"""Contractibility semi-decision: greedy elementary collapse, replayed as a
certificate, then integral homology via Smith normal form of the core the
collapse leaves, and explicit contraction homotopies replayed from collapse
sequences.

Both kernels read the complex's face poset by sort position
(``complexes._face_poset``, built once per complex) and are near-linear on
the fibers this package builds:

- ``greedy_collapse`` keeps the free faces in a heap keyed on the complex's
  sort order and updates cofacet counts only on the faces of each removed
  pair: O(n log n) for n simplices of bounded dimension.  It runs once per
  complex (``_collapse``, kept on K).  ``check_collapse`` replays its
  sequence on the same poset in O(steps x cofacets), so a verdict never
  rests on the heap's bookkeeping alone.
- ``homology`` reduces only the core the collapse leaves, which has K's
  homology since a collapse is a deformation retraction: of a complex that
  collapses to a vertex, one column of the augmentation.  It reads the
  Smith normal form of each sparse boundary matrix off one elimination,
  ``sparse_smith_diagonal``, which removes the +-1 pivots first (the
  reduce-then-SNF strategy of Kaczynski-Mischaikow-Mrozek, *Computational
  Homology*, 2004).  Each such pivot costs one column
  operation per nonzero of its row, so that phase is linear in the entries
  plus fill-in; the same elimination then reduces the residual, where the
  torsion lives, by least-entry pivots.  The boundary maps are reduced from
  the top degree down, and the d-simplex of each unit pivot row of
  boundary d + 1 is cleared from the columns of boundary d (the "twist" of
  Chen-Kerber, *Persistent homology computation with a twist*, EuroCG
  2011), which leaves every Smith normal form diagonal as it is.
  ``smith_diagonal`` is the elimination's front end for dense matrices.

What reading the core gives up: the cross-check of a full collapse against
homology now reads the homology of one vertex, so a homology engine that
misreads a collapsible complex as nontrivial is no longer caught there; the
Smith normal form oracle tests cover that engine on its own.

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
    """A collapse sequence that does not replay on its complex
    (``check_collapse``), or a full collapse of a complex whose homology
    reads nontrivial: an engine is wrong, so no verdict read off it can be
    trusted."""


# -- Smith normal form over exact integers --------------------------------------

def smith_diagonal(matrix: list[list[int]]) -> list[int]:
    """Diagonal of the Smith normal form (nonnegative, divisibility chain) of
    a dense matrix: ``sparse_smith_diagonal`` of its columns."""
    n = len(matrix[0]) if matrix else 0
    return sparse_smith_diagonal([{i: row[j] for i, row in enumerate(matrix) if row[j]} for j in range(n)])[0]


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


def sparse_smith_diagonal(columns: list[dict[int, int]]) -> tuple[list[int], list[int]]:
    """Smith normal form diagonal (nonnegative, divisibility chain) of a
    matrix given as sparse columns (row -> nonzero entry), by one elimination
    over exact integers, and the rows of its unit pivots.

    Units first: a +-1 entry a_ij splits the matrix as [a_ij] (+) A', where A'
    is A without row i and column j after column operations clear row i.
    Pivots are taken from the row with the fewest nonzeros, in its shortest
    unit column, which keeps fill-in low.  Then the residual, where the
    torsion lives: its entry of least absolute value is the pivot, column
    operations reduce its row and row operations its column, and a nonzero
    remainder is a smaller pivot for the next round (Euclid).  The pivots
    found are brought into a divisibility chain by pairwise gcd and lcm.

    The unit pivot columns, reduced, lie in the column space, are 0 on the
    rows of earlier unit pivots and +-1 on their own: triangular with a
    unit diagonal on the returned rows.
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
    units = []
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
        units.append(i)
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
    return [1] * len(units) + diagonal, units


@dataclass(frozen=True)
class HomologyProfile:
    """Reduced Betti numbers and torsion coefficients per degree."""

    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]

    @property
    def trivial(self) -> bool:
        return all(b == 0 for b in self.betti) and all(not t for t in self.torsion)


def homology(K: SimplicialComplex) -> HomologyProfile:
    """Reduced integral simplicial homology via Smith normal form, read off
    the core that K's greedy collapse leaves (``_collapse``): an elementary
    collapse is a deformation retraction, so the core has K's homology, and
    of a complex that collapses to a vertex only the augmentation is left.

    With clearing: boundary d + 1 is reduced before boundary d, and a
    d-simplex that is the row of one of its unit pivots is dropped from the
    columns of boundary d.  The reduced pivot columns lie in ker(boundary
    d) and are unimodular on their pivot rows, so with the other
    d-simplices they are a basis of the d-chains in which boundary d is the
    dropped columns and zeros: its Smith normal form diagonal is
    unchanged.  Rows and columns are named by sort position in K."""
    dim = K.dimension
    facets, _ = _face_poset(K)
    cells: list[list[int]] = [[] for _ in range(dim + 1)]  # the core's positions by dimension
    for i in _collapse(K)[1]:
        cells[K._sorted[i].dim].append(i)
    diags: dict[int, list[int]] = {}
    cleared: set[int] = set()
    for d in range(dim, 0, -1):
        columns = [{f: (-1) ** k for k, f in enumerate(facets[i])} for i in cells[d] if i not in cleared]
        diags[d], units = sparse_smith_diagonal(columns)
        cleared = set(units)
    # degree 0 maps onto Z by the augmentation, which makes the homology reduced
    diags[0] = sparse_smith_diagonal([{0: 1}] * (len(cells[0]) - len(cleared)))[0]
    return HomologyProfile(
        betti=tuple(len(cells[d]) - len(diags[d]) - len(diags.get(d + 1, [])) for d in range(dim + 1)),
        torsion=tuple(tuple(v for v in diags.get(d + 1, []) if v > 1) for d in range(dim + 1)),
    )


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
    steps, core = _collapse(K)
    order = K._sorted
    complete = len(core) == 1 and order[core[0]].dim == 0
    basepoint = order[core[0]].vertices[0] if complete else None
    return CollapseSequence(tuple((order[a], order[b]) for a, b in steps), complete, basepoint, tuple(order[i] for i in core))


def _collapse(K: SimplicialComplex) -> tuple[list[tuple[int, int]], list[int]]:
    """The greedy collapse by sort position (= rank under K.sort_key = heap
    key): its steps and the positions it leaves, ascending.  Built on first
    use and kept on K, so the collapse and the homology of K share one run."""
    facets, cofacets = _face_poset(K)
    if K._collapse is None:
        # The alive set stays closed under faces, so a simplex has exactly one
        # alive proper coface iff it has exactly one alive cofacet (a coface of
        # codimension >= 2 contains two cofacets); counting cofacets suffices.
        count = [len(c) for c in cofacets]
        alive = [True] * len(count)
        free = [i for i, c in enumerate(count) if c == 1]  # ascending, hence a heap
        steps = []
        while free:
            a = heapq.heappop(free)
            if not alive[a] or count[a] != 1:
                continue
            b = next(c for c in cofacets[a] if alive[c])
            alive[a] = alive[b] = False
            steps.append((a, b))
            for f in facets[a] + facets[b]:
                count[f] -= 1
                if count[f] == 1 and alive[f]:
                    heapq.heappush(free, f)
        K._collapse = (steps, [i for i, live in enumerate(alive) if live])
    return K._collapse


def check_collapse(K: SimplicialComplex, seq: CollapseSequence) -> None:
    """Replay ``seq`` on K's face poset: each step (a, b) must be two live
    simplices of K with b the only live cofacet of a (so a is a facet of b,
    and the live simplices stay closed under faces); the live simplices
    after the last step, in K's order, must be ``seq.remaining``; and
    ``seq.complete`` (with its basepoint) must hold exactly when they are
    one vertex.  Raises ``CertificateMismatchError`` naming the first bad
    step."""
    cofacets = _face_poset(K)[1]
    index = {s.vertices: i for i, s in enumerate(K._sorted)}
    live = [True] * len(index)
    for n, (a, b) in enumerate(seq.steps):
        i, j = index.get(a.vertices), index.get(b.vertices)
        if i is None or j is None or not live[i] or [c for c in cofacets[i] if live[c]] != [j]:
            raise CertificateMismatchError(f"collapse step {n} ({a}, {b}) of {K} is not a free face and its only live cofacet")
        live[i] = live[j] = False
    remaining = tuple(s for s, up in zip(K._sorted, live) if up)
    complete = len(remaining) == 1 and remaining[0].dim == 0
    if remaining != seq.remaining or (seq.complete, seq.basepoint) != (complete, remaining[0].vertices[0] if complete else None):
        raise CertificateMismatchError(f"the collapse of {K} after its {len(seq.steps)} steps does not leave what it claims")


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
    """The collapse first, replayed by ``check_collapse``, then the
    homology of its core.  Empty, disconnected or homologically nontrivial
    complexes are refuted; a full collapse certifies contractibility;
    otherwise Unknown.  Every verdict on a nonempty complex carries its
    collapse sequence, so the stuck core of an Unknown verdict is
    ``sequence.remaining``."""
    if K is None:
        return Verdict(kind="not_contractible", reason="empty complex")
    seq = greedy_collapse(K)
    check_collapse(K, seq)
    prof = homology(K)
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
