"""Contractibility semi-decision: integral homology via Smith normal form,
greedy elementary collapse, and explicit contraction homotopies replayed from
collapse sequences.

Both kernels read the complex's face poset by sort position
(``complexes._face_poset``, built once per complex) and are near-linear on
the fibers this package builds:

- ``homology`` reads the Smith normal form of each sparse boundary matrix
  off one elimination, ``sparse_smith_diagonal``, which removes the +-1
  pivots first (the reduce-then-SNF strategy of Kaczynski-Mischaikow-Mrozek,
  *Computational Homology*, 2004).  Each such pivot costs one column
  operation per nonzero of its row, so that phase is linear in the entries
  plus fill-in; the same elimination then reduces the residual, where the
  torsion lives, by least-entry pivots.  ``smith_diagonal`` is its front end
  for dense matrices.
- ``greedy_collapse`` keeps the free faces in a heap keyed on the complex's
  sort order and updates cofacet counts only on the faces of each removed
  pair: O(n log n) for n simplices of bounded dimension.

Contractibility is undecidable in general; the Unknown verdict is first-class
and must be propagated by callers rather than guessed away.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .complexes import (
    Point,
    Simplex,
    SimplicialComplex,
    _face_poset,
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
    """Diagonal of the Smith normal form (nonnegative, divisibility chain) of
    a dense matrix: ``sparse_smith_diagonal`` of its columns."""
    n = len(matrix[0]) if matrix else 0
    return sparse_smith_diagonal([{i: row[j] for i, row in enumerate(matrix) if row[j]} for j in range(n)])


def _subtract(cols: dict[int, dict[int, int]], rows: dict[int, set[int]], k: int, q: int, pivot: dict[int, int]) -> None:
    """Column k minus q times the pivot column; the row index follows, and
    a column that empties is dropped."""
    col = cols[k]
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


def sparse_smith_diagonal(columns: list[dict[int, int]]) -> list[int]:
    """Smith normal form diagonal (nonnegative, divisibility chain) of a
    matrix given as sparse columns (row -> nonzero entry), by one elimination
    over exact integers.

    Units first: a +-1 entry a_ij splits the matrix as [a_ij] (+) A', where A'
    is A without row i and column j after column operations clear row i.
    Pivots are taken from the row with the fewest nonzeros, in its shortest
    unit column, which keeps fill-in low.  Then the residual, where the
    torsion lives: its entry of least absolute value is the pivot, column
    operations reduce its row and row operations its column, and a nonzero
    remainder is a smaller pivot for the next round (Euclid).  The pivots
    found are brought into a divisibility chain by pairwise gcd and lcm.
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
            _subtract(cols, rows, k, cols[k][i] * a, pivot)  # a is its own inverse
        del rows[i]
        for r in pivot:
            if r != i and rows[r]:
                heapq.heappush(heap, (len(rows[r]), r))
        units += 1
    diagonal = []
    while cols:
        _, i, j = min((abs(v), r, k) for k, col in cols.items() for r, v in col.items())
        pivot = cols[j]
        a = pivot[i]
        for k in rows[i] - {j}:
            _subtract(cols, rows, k, cols[k][i] // a, pivot)
        if rows[i] != {j}:
            continue  # a remainder in row i
        # row i is a's alone, so a row operation changes column j only
        for r in [r for r in pivot if r != i]:
            pivot[r] %= a
            if not pivot[r]:
                del pivot[r]
                rows[r].discard(j)
        if len(pivot) == 1:
            del cols[j], rows[i]
            diagonal.append(abs(a))
    for a in range(len(diagonal)):
        for b in range(a + 1, len(diagonal)):
            x, y = diagonal[a], diagonal[b]
            diagonal[a], diagonal[b] = math.gcd(x, y), math.lcm(x, y)
    return [1] * units + diagonal


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
    facets, _ = _face_poset(K)
    # degree 0 maps onto Z by the augmentation, which makes the homology reduced
    diags: dict[int, list[int]] = {0: sparse_smith_diagonal([{0: 1}] * len(K.simplices_of_dim(0)))}
    start = 0  # sort position of the first simplex of dimension d - 1
    for d in range(1, dim + 1):
        first = start + len(K.simplices_of_dim(d - 1))  # and of dimension d
        columns = range(first, first + len(K.simplices_of_dim(d)))
        diags[d] = sparse_smith_diagonal([{f - start: (-1) ** k for k, f in enumerate(facets[i])} for i in columns])
        start = first
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
    facets, cofacets = _face_poset(K)
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

    def track_factory(p: Point):
        chain = [p]  # chain[i]: p after the first i squashes, extended on demand

        def at(t: float) -> Point:
            if N == 0 or t <= 0.0:
                return p
            s = min(t, 1.0) * N
            k = min(int(s), N - 1)
            frac = s - k
            for i in range(len(chain) - 1, k + (frac > 0.0)):
                chain.append(_squash(K, chain[i], *steps[i]))
            if frac <= 0.0:
                return chain[k]
            if frac >= 1.0:
                return chain[k + 1]
            return combine_points(K, [(1.0 - frac, chain[k]), (frac, chain[k + 1])])

        return at

    return Homotopy(
        domain=K,
        codomain=K,
        track_factory=track_factory,
    )
