"""Contractibility semi-decision: integral homology via Smith normal form,
greedy elementary collapse, and explicit contraction homotopies replayed from
collapse sequences.

Both kernels work on a local integer-indexed face table and are near-linear
on the fibers this package builds:

- ``homology`` eliminates the +-1 pivots of each sparse boundary matrix first
  (the reduce-then-SNF strategy of Kaczynski-Mischaikow-Mrozek, *Computational
  Homology*, 2004).  Each pivot costs one column operation per nonzero of its
  row, so the elimination is linear in the entries plus fill-in; only the
  residual block, where the torsion lives, reaches the dense
  ``smith_diagonal``.
- ``greedy_collapse`` keeps the free faces in a heap keyed on the complex's
  sort order and updates cofacet counts only on the faces of each removed
  pair: O(n log n) for n simplices of bounded dimension.

Contractibility is undecidable in general; the Unknown verdict is first-class
and must be propagated by callers rather than guessed away.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .complexes import (
    Point,
    Simplex,
    SimplicialComplex,
    combine_points,
    make_point,
)
from .evaluators import Homotopy


class NotContractibleError(ValueError):
    """A full contraction was requested from a partial collapse."""


class CertificateMismatchError(RuntimeError):
    """A full collapse and a nontrivial homology profile of one complex: one
    of the two engines is wrong, so neither verdict can be trusted."""


# -- Smith normal form over exact integers --------------------------------------

def smith_diagonal(matrix: list[list[int]]) -> list[int]:
    """Diagonal of the Smith normal form (nonnegative, divisibility chain).

    Arbitrary-precision integers throughout, so torsion cannot overflow.
    """
    A = [row[:] for row in matrix]
    m = len(A)
    n = len(A[0]) if m else 0
    t = 0
    while True:
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = A[i][j]
                if v != 0 and (best is None or abs(v) < best):
                    best = abs(v)
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        A[t], A[pi] = A[pi], A[t]
        for row in A:
            row[t], row[pj] = row[pj], row[t]
        while True:
            reduced = True
            for i in range(t + 1, m):
                if A[i][t] != 0:
                    q = A[i][t] // A[t][t]
                    for j in range(t, n):
                        A[i][j] -= q * A[t][j]
                    if A[i][t] != 0:  # remainder becomes the new, smaller pivot
                        A[t], A[i] = A[i], A[t]
                        reduced = False
            for j in range(t + 1, n):
                if A[t][j] != 0:
                    q = A[t][j] // A[t][t]
                    for i in range(t, m):
                        A[i][j] -= q * A[i][t]
                    if A[t][j] != 0:
                        for i in range(t, m):
                            A[i][t], A[i][j] = A[i][j], A[i][t]
                        reduced = False
            if reduced:
                break
        # enforce divisibility of the remaining block by the pivot
        p = A[t][t]
        fixed = True
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if A[i][j] % p != 0:
                    for jj in range(t, n):
                        A[t][jj] += A[i][jj]
                    fixed = False
                    break
            if not fixed:
                break
        if not fixed:
            continue
        t += 1
    return [abs(A[i][i]) for i in range(min(m, n)) if A[i][i] != 0]


def sparse_smith_diagonal(columns: list[dict[int, int]]) -> list[int]:
    """Smith normal form diagonal of a matrix given as sparse columns
    (row -> nonzero entry); equal to ``smith_diagonal`` of the dense matrix.

    A +-1 entry a_ij splits the matrix as [a_ij] (+) A', where A' is A without
    row i and column j after column operations clear row i.  Pivots are taken
    from the row with the fewest nonzeros, in its shortest unit column, which
    keeps fill-in low; the non-unit residual goes to ``smith_diagonal``.
    """
    cols = {j: dict(c) for j, c in enumerate(columns) if c}
    rows: dict[int, set[int]] = {}
    for j, c in cols.items():
        for i in c:
            rows.setdefault(i, set()).add(j)
    # every change to a row pushes its new length, so an entry whose length
    # is out of date is stale and skipped
    heap = [(len(js), i) for i, js in rows.items()]
    heapq.heapify(heap)
    units = 0
    while heap:
        n, i = heapq.heappop(heap)
        row = rows.get(i)
        if row is None or n != len(row):
            continue
        unit = [j for j in row if cols[j][i] in (1, -1)]
        if not unit:
            continue  # pushed again if a column operation changes the row
        j = min(unit, key=lambda c: (len(cols[c]), c))
        pivot = cols.pop(j)
        a = pivot[i]
        for r in pivot:
            rows[r].discard(j)
        for k in list(row):
            col = cols[k]
            q = col[i] * a  # a is its own inverse
            for r, v in pivot.items():
                w = col.get(r, 0) - q * v
                if w:
                    if r not in col:
                        rows[r].add(k)
                    col[r] = w
                elif r in col:
                    del col[r]
                    rows[r].discard(k)
            if not col:
                del cols[k]
        del rows[i]
        for r in pivot:
            if r != i and rows[r]:
                heapq.heappush(heap, (len(rows[r]), r))
        units += 1
    live_rows = sorted(r for r, js in rows.items() if js)
    live_cols = sorted(cols)
    residual = [[cols[j].get(r, 0) for j in live_cols] for r in live_rows]
    return [1] * units + smith_diagonal(residual)


@dataclass(frozen=True)
class HomologyProfile:
    """Reduced Betti numbers and torsion coefficients per degree."""

    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]

    @property
    def trivial(self) -> bool:
        return all(b == 0 for b in self.betti) and all(not t for t in self.torsion)


def homology(K: SimplicialComplex) -> HomologyProfile:
    """Reduced integral simplicial homology via Smith normal form."""
    dim = K.dimension
    # degree 0 maps onto Z by the augmentation, which makes the homology reduced
    diags: dict[int, list[int]] = {0: sparse_smith_diagonal([{0: 1}] * len(K.simplices_of_dim(0)))}
    for d in range(1, dim + 1):
        index = {s.vertices: i for i, s in enumerate(K.simplices_of_dim(d - 1))}
        columns = []
        for s in K.simplices_of_dim(d):
            vs = s.vertices
            columns.append({index[vs[:i] + vs[i + 1 :]]: (-1) ** i for i in range(len(vs))})
        diags[d] = sparse_smith_diagonal(columns)
    betti = []
    torsion = []
    for d in range(dim + 1):
        b = len(K.simplices_of_dim(d)) - len(diags[d]) - len(diags.get(d + 1, []))
        betti.append(b)
        torsion.append(tuple(v for v in diags.get(d + 1, []) if v > 1))
    return HomologyProfile(betti=tuple(betti), torsion=tuple(torsion))


# -- greedy collapse -------------------------------------------------------------

@dataclass(frozen=True)
class CollapseSequence:
    """Elementary collapses (free face, its unique coface), replayable in order."""

    steps: tuple[tuple[Simplex, Simplex], ...]
    complete: bool
    basepoint: str | None
    remaining: tuple[Simplex, ...]


def greedy_collapse(K: SimplicialComplex) -> CollapseSequence:
    """Repeatedly remove the smallest free face (order: dimension, then vertex
    indices); terminates at a single vertex or at a stuck core."""
    order = K.sorted_simplices()  # position = rank under K.sort_key = heap key
    index = {s.vertices: i for i, s in enumerate(order)}
    facets = []
    for s in order:
        vs = s.vertices
        facets.append([index[vs[:k] + vs[k + 1 :]] for k in range(len(vs))] if len(vs) > 1 else [])
    cofacets: list[list[int]] = [[] for _ in order]
    for i, fs in enumerate(facets):
        for f in fs:
            cofacets[f].append(i)
    # The alive set stays closed under faces, so a simplex has exactly one
    # alive proper coface iff it has exactly one alive cofacet (a coface of
    # codimension >= 2 contains two cofacets); counting cofacets suffices.
    count = [len(c) for c in cofacets]
    alive = [True] * len(order)
    free = [i for i, c in enumerate(count) if c == 1]  # ascending, hence a heap
    steps: list[tuple[Simplex, Simplex]] = []
    while free:
        a = heapq.heappop(free)
        if not alive[a] or count[a] != 1:
            continue
        b = next(c for c in cofacets[a] if alive[c])
        alive[a] = alive[b] = False
        steps.append((order[a], order[b]))
        for f in facets[a] + facets[b]:
            count[f] -= 1
            if count[f] == 1 and alive[f]:
                heapq.heappush(free, f)
    remaining = [s for s, live in zip(order, alive) if live]
    complete = len(remaining) == 1 and remaining[0].dim == 0
    return CollapseSequence(
        steps=tuple(steps),
        complete=complete,
        basepoint=remaining[0].vertices[0] if complete else None,
        remaining=tuple(remaining),
    )


# -- verdicts --------------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    kind: str  # "contractible" | "not_contractible" | "unknown"
    reason: str
    sequence: CollapseSequence | None = None
    profile: HomologyProfile | None = None

    @property
    def is_contractible(self) -> bool:
        return self.kind == "contractible"


def contractibility_verdict(K: SimplicialComplex | None) -> Verdict:
    """Empty, disconnected or homologically nontrivial complexes are refuted;
    a full collapse certifies contractibility; otherwise Unknown.  Every
    verdict on a nonempty complex carries its collapse sequence, so the
    stuck core of an Unknown verdict is ``sequence.remaining``."""
    if K is None:
        return Verdict(kind="not_contractible", reason="empty complex")
    prof = homology(K)
    seq = greedy_collapse(K)
    # soundness cross-check: a collapse certificate implies trivial homology
    if seq.complete and not prof.trivial:
        raise CertificateMismatchError(
            f"{K} collapses to a vertex but has nontrivial homology {prof}"
        )
    if not prof.trivial:
        nz = [f"b~{d}={b}" for d, b in enumerate(prof.betti) if b] + [
            f"torsion in degree {d}" for d, t in enumerate(prof.torsion) if t
        ]
        if prof.betti[0] > 0:
            nz.append("disconnected")
        return Verdict(kind="not_contractible", reason=", ".join(nz), sequence=seq, profile=prof)
    if seq.complete:
        return Verdict(kind="contractible", reason="full collapse", sequence=seq, profile=prof)
    return Verdict(kind="unknown", reason="greedy collapse stuck, homology trivial", sequence=seq, profile=prof)


# -- contraction homotopy from a collapse sequence -------------------------------

def _squash(K: SimplicialComplex, p: Point, free: Simplex, coface: Simplex) -> Point:
    """The elementary-collapse retraction on the coface: subtract the minimal
    free-face coordinate from the free face and push it onto the apex vertex."""
    if not coface.contains(p.carrier):
        return p
    d = p.as_dict()
    apex = next(v for v in coface.vertices if v not in free.vertices)
    m = min(d.get(v, 0.0) for v in free.vertices)
    if m <= 0.0:
        return p
    out = {}
    for v in free.vertices:
        out[v] = d.get(v, 0.0) - m
    out[apex] = d.get(apex, 0.0) + m * len(free.vertices)
    return make_point(K, out)


def contraction_from_collapse(K: SimplicialComplex, seq: CollapseSequence) -> Homotopy:
    """Contraction K x I -> K: each elementary collapse contributes its linear
    deformation retraction on an equal subinterval, composed in order.  A
    track moves at barycentric-coordinate (l2) speed at most 2 * max(1, N),
    N the number of collapse steps."""
    if not seq.complete:
        raise NotContractibleError("collapse sequence is partial; no contraction")
    steps = seq.steps
    N = len(steps)
    base = seq.basepoint

    def fn(p: Point, t: float) -> Point:
        if N == 0 or t <= 0.0:
            return p
        s = min(max(t, 0.0), 1.0) * N
        k = min(int(s), N - 1)
        frac = s - k
        cur = p
        for i in range(k):
            cur = _squash(K, cur, *steps[i])
        if frac <= 0.0:
            return cur
        nxt = _squash(K, cur, *steps[k])
        if frac >= 1.0:
            return nxt
        return combine_points(K, [(1.0 - frac, cur), (frac, nxt)])

    return Homotopy(
        domain=K,
        codomain=K,
        fn=fn,
        name=f"contraction to {base}",
    )
