"""Finite abstract simplicial complexes, points in barycentric coordinates,
barycentric subdivision and open stars.

A complex carries the "standard" geometry: every n-simplex is identified with
the convex hull of the unit basis vectors of R^{n+1}, so barycentric
coordinates over a common carrier simplex double as Euclidean coordinates.
All global metric questions live in :mod:`plcontrol.metrics`.

Simplices are interned: ``SimplicialComplex.__init__`` builds one table per
complex, ``_by_labels``, from the label set of each face to its one
``Simplex``.  ``simplex``, ``make_point`` and ``metrics.shared_carrier`` find
a carrier there with one lookup.  Points are validated where they are built:
the public ``Point`` constructor checks the coordinate count, finiteness,
signs and sum; ``make_point`` checks the weights it keeps itself and builds
through the private ``Point._prechecked``, which nothing else calls.  Each
point's coordinates are checked canonical once: ``canonical`` flags a point
whose coordinates pass (the flag is not part of its value and does not name
a complex), and a later call on it only looks its carrier up.  Likewise a
point hashes its carrier and coordinates once and keeps the hash.

``__init__`` enumerates the faces in one pass, as sorted vertex index
tuples, skipping a generator that is a face of a longer one, and builds each
face's ``Simplex`` without checking it again (its generator was checked).  It
sorts the faces once, in ``sort_key`` order; the positions in that tuple,
``_sorted``, index the face poset.

Everything derived from a complex and kept on it is a named attribute
declared in ``__init__``, with its owner beside it: the face poset (the
facets and cofacets of each simplex by position, which homology, collapse,
``face_chains`` and ``maximal_simplices`` read), the greedy collapse by
position (which homology reads its core off), the comesh, the eps-free
cells of the flags that inversions have named, one cellulation per exact
eps (which holds no arrays), one metric graph per refinement and the
component of each vertex.  Each is filled on first use and lives as long as
the complex.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

TOL = 1e-9


class MalformedInputError(ValueError):
    """Raised for inputs violating structural preconditions."""


def _check_nonnegative(**counts) -> None:
    """Raise MalformedInputError for the first of ``counts`` below 0."""
    for name, value in counts.items():
        if value < 0:
            raise MalformedInputError(f"{name} must be >= 0, got {value}")


class NotFoundError(KeyError):
    """Raised when a simplex or point does not belong to the complex at hand."""


@dataclass(frozen=True)
class Simplex:
    """A simplex as a duplicate-free tuple of vertex labels.

    The tuple order is the owning complex's vertex order (first appearance);
    complexes canonicalize on construction, so equal vertex sets compare equal.
    """

    vertices: tuple[str, ...]

    def __post_init__(self):
        if not self.vertices:
            raise MalformedInputError("empty simplex")
        if len(set(self.vertices)) != len(self.vertices):
            raise MalformedInputError(f"duplicate vertex in simplex {self.vertices}")

    @classmethod
    def _unchecked(cls, vertices: tuple[str, ...]) -> "Simplex":
        """A simplex whose vertices the caller has checked; only
        ``SimplicialComplex.__init__`` calls it, on faces of checked generators."""
        s = object.__new__(cls)
        object.__setattr__(s, "vertices", vertices)
        return s

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    def faces(self) -> Iterable["Simplex"]:
        """All nonempty faces, the simplex itself included."""
        n = len(self.vertices)
        for mask in range(1, 1 << n):
            yield Simplex(tuple(v for i, v in enumerate(self.vertices) if mask >> i & 1))

    def facets(self) -> list["Simplex"]:
        """Codimension-one faces (empty list for a vertex)."""
        if self.dim == 0:
            return []
        return [
            Simplex(self.vertices[:i] + self.vertices[i + 1 :])
            for i in range(len(self.vertices))
        ]

    def contains(self, other: "Simplex") -> bool:
        return set(other.vertices) <= set(self.vertices)

    def __le__(self, other: "Simplex") -> bool:
        return other.contains(self)

    def __lt__(self, other: "Simplex") -> bool:
        return self != other and other.contains(self)

    def __str__(self) -> str:
        return "{" + ",".join(self.vertices) + "}"


class SimplicialComplex:
    """A finite complex closed under taking faces.

    Vertex order is fixed at construction (``vertex_order``, each of whose
    labels must lie in a generator, then first appearance in the generator
    list) and is the total order used everywhere determinism matters.
    """

    def __init__(self, generators: Iterable[Iterable[str]], vertex_order: Iterable[str] | None = None):
        gens = [tuple(g) for g in generators]
        if not gens:
            raise MalformedInputError("a complex needs at least one generator simplex")
        order: list[str] = []
        seen: set[str] = set()
        if vertex_order is not None:
            for v in vertex_order:
                if v in seen:
                    raise MalformedInputError(f"duplicate vertex label {v!r}")
                seen.add(v)
                order.append(v)
        for g in gens:
            if len(set(g)) != len(g):
                raise MalformedInputError(f"duplicate vertex inside one simplex: {g}")
            for v in g:
                if v not in seen:
                    seen.add(v)
                    order.append(v)
        self._order: tuple[str, ...] = tuple(order)
        self._index: dict[str, int] = {v: i for i, v in enumerate(order)}

        if not all(gens):
            raise MalformedInputError("empty simplex")
        # every face once, as its sorted vertex index tuple, by dimension; a
        # generator taken after every longer one is skipped if it is a face
        faces: list[set[tuple[int, ...]]] = [set() for _ in range(max(map(len, gens)))]
        for top in sorted({tuple(sorted(map(self._index.__getitem__, g))) for g in gens}, key=len, reverse=True):
            if top not in faces[len(top) - 1]:
                for r in range(1, len(top) + 1):
                    faces[r - 1].update(itertools.combinations(top, r))
        # the interned simplices, checked with their generators, in sort_key
        # order (positions index the face poset) and found by their label sets
        unchecked, label = Simplex._unchecked, self._order.__getitem__
        self._by_dim = {
            d: tuple(unchecked(tuple(map(label, t))) for t in sorted(group)) for d, group in enumerate(faces)
        }
        self._sorted: tuple[Simplex, ...] = tuple(itertools.chain.from_iterable(self._by_dim.values()))
        self._by_labels: dict[frozenset[str], Simplex] = {frozenset(s.vertices): s for s in self._sorted}
        self._simplices = frozenset(self._sorted)
        if len(self._by_dim[0]) < len(order):  # a label of vertex_order that no generator uses
            stray = next(v for v in order if frozenset((v,)) not in self._by_labels)
            raise MalformedInputError(f"vertex label {stray!r} lies in no simplex")
        # a file's drawing layout: file data, not derived from K
        self.positions: dict[str, tuple[float, float]] | None = None
        # Data derived from K alone, each filled on first use by its owner and
        # kept while K lives; nothing here points back at a map or family.
        self._poset: tuple | None = None  # _face_poset: facets and cofacets by position
        self._collapse: tuple | None = None  # contract._collapse: steps and core by position
        self._comesh: float | None = None  # cellulation.comesh_of
        # cellulation._flag_cell: the eps-free cell of each flag an inversion
        # (or Cellulation.cells) has named, carrier -> vertex masks -> cell
        self._flag_cells: dict[Simplex, dict[tuple[int, ...], object]] = {}
        # cellulation._fits: per (point, tol) an inversion has read, the flags
        # that fit the point at some eps, in flag order, with the level each needs
        self._fits: dict[tuple, tuple] = {}
        # cellulation.build_cellulation, one per exact eps; each names K, the
        # one cycle kept by design, so a dropped cellulation is still a hit
        self._cellulations: dict[float, object] = {}
        self._metric_graphs: dict[int, object] = {}  # metrics._graph, one per refinement
        self._component_of: dict[str, int] | None = None  # metrics._components_by_vertex

    # -- basic structure ----------------------------------------------------

    @property
    def vertex_order(self) -> tuple[str, ...]:
        return self._order

    @property
    def simplices(self) -> frozenset[Simplex]:
        return self._simplices

    @property
    def dimension(self) -> int:
        return self._sorted[-1].dim

    def vertex_index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise NotFoundError(f"vertex {label!r} not in complex") from None

    def simplex(self, labels: Iterable[str]) -> Simplex:
        """Canonical simplex on the given labels (sorted by vertex order):
        the interned one when the labels span a simplex of the complex."""
        labels = tuple(labels)
        s = self._by_labels.get(frozenset(labels))
        if s is not None and len(s.vertices) == len(labels):
            return s
        return Simplex(tuple(sorted(labels, key=self.vertex_index)))

    def sort_key(self, s: Simplex) -> tuple:
        return (s.dim, tuple(self._index[v] for v in s.vertices))

    def sorted_simplices(self) -> list[Simplex]:
        return list(self._sorted)

    def simplices_of_dim(self, d: int) -> tuple[Simplex, ...]:
        return self._by_dim.get(d, ())

    def maximal_simplices(self) -> list[Simplex]:
        """Simplices that are no facet of another (those with no cofacet), sorted."""
        return [s for s, up in zip(self._sorted, _face_poset(self)[1]) if not up]

    def __contains__(self, s: Simplex) -> bool:
        return s in self._simplices

    def star(self, s: Simplex) -> set[Simplex]:
        """Open star: all cofaces of ``s`` (each standing for its open cell)."""
        if s not in self._simplices:
            raise NotFoundError(f"simplex {s} not in complex")
        return {t for t in self._simplices if s <= t}

    def components(self) -> list[frozenset[str]]:
        """Connected components as vertex sets (union-find over edges)."""
        parent = {v: v for v in self._order}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for e in self.simplices_of_dim(1):
            a, b = (find(v) for v in e.vertices)
            if a != b:
                parent[a] = b
        groups: dict[str, set[str]] = {}
        for v in self._order:
            groups.setdefault(find(v), set()).add(v)
        return [frozenset(g) for g in groups.values()]

    def __repr__(self) -> str:
        return f"SimplicialComplex(dim={self.dimension}, simplices={len(self._simplices)})"


def closure_complex(generators: Iterable[Iterable[str]], vertex_order: Iterable[str] | None = None) -> SimplicialComplex:
    """Build the complex generated by the given simplices, closed under faces."""
    return SimplicialComplex(generators, vertex_order)


# -- points ------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Point:
    """A location in a complex: carrier simplex plus barycentric coordinates.

    Canonical form has all coordinates strictly positive, so the carrier is
    the unique simplex whose interior contains the point.  The coordinates
    are held as Python floats, so equal points hold equal values whatever
    numeric type they were built from.  ``_canonical``
    records that ``canonical`` found the coordinates canonical, and
    ``_hash`` keeps ``hash((carrier, coords))`` from the first ``hash``
    on; neither is part of the point's value, and a pickle or copy
    rebuilds the point from its value alone, so no kept hash reaches a
    process whose string hashes differ.
    """

    carrier: Simplex
    coords: tuple[float, ...]
    _canonical: bool = field(default=False, init=False, compare=False, repr=False)
    _hash: int | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(map(float, self.coords)))
        if len(self.coords) != len(self.carrier.vertices):
            raise MalformedInputError(
                f"{len(self.coords)} coords for carrier {self.carrier} "
                f"with {len(self.carrier.vertices)} vertices"
            )
        total = sum(self.coords)
        if not math.isfinite(total):  # comparisons with NaN are all false
            raise MalformedInputError(f"non-finite barycentric coordinate in {self.coords}")
        if any(c < -TOL for c in self.coords):
            raise MalformedInputError(f"negative barycentric coordinate in {self.coords}")
        if abs(total - 1.0) > 1e-7:
            raise MalformedInputError(f"coordinates sum to {total}, not 1")

    @classmethod
    def _prechecked(cls, carrier: Simplex, coords: tuple[float, ...]) -> "Point":
        """A point whose checks the caller has made; only `make_point` calls it."""
        p = object.__new__(cls)
        object.__setattr__(p, "carrier", carrier)
        object.__setattr__(p, "coords", coords)
        object.__setattr__(p, "_canonical", False)
        object.__setattr__(p, "_hash", None)
        return p

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.carrier, self.coords)))
        return self._hash

    def __reduce__(self):
        return type(self), (self.carrier, self.coords)

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.carrier.vertices, self.coords))


def make_point(K: SimplicialComplex, weights: Mapping[str, float], tol: float = TOL) -> Point:
    """Canonical point from a vertex-weight mapping (zeros dropped, renormalized).

    The carrier is the interned simplex on the support, and the weights are
    summed, as Python floats, in its vertex order.  With tol >= 0 every kept weight is positive
    and the sum has just been checked, so the point skips ``Point``'s checks;
    when the support spans no simplex, the checks only pick the error.
    """
    support = {v: w for v, w in weights.items() if w > tol}
    if len(support) < len(weights) and not all(map(math.isfinite, weights.values())):
        # NaN and -inf fail the filter; +inf is kept and fails the sum check
        raise MalformedInputError(f"non-finite weight in {dict(weights)}")
    carrier = K._by_labels.get(frozenset(support))
    if carrier is None and not support:
        raise MalformedInputError("point with empty support")
    span = carrier if carrier is not None else K.simplex(support)  # raises on an unknown vertex
    ws = [float(support[v]) for v in span.vertices]
    total = sum(ws)
    if abs(total - 1.0) > 1e-7:
        raise MalformedInputError(f"weights sum to {total}, not 1")
    if carrier is None:
        raise NotFoundError(f"support {span} spans no simplex of the complex")
    return (Point._prechecked if tol >= 0 else Point)(carrier, tuple(w / total for w in ws))


def _row_point(K: SimplicialComplex, vertices, row: np.ndarray) -> Point:
    """The point of K on the entries of ``row`` above 0 over ``vertices``
    (in K's vertex order), with those entries as its coordinates: the
    point ``make_point`` returns when an array kernel has reproduced its
    coordinates."""
    kept = [(v, c) for v, c in zip(vertices, row.tolist()) if c > 0.0]
    return Point(K._by_labels[frozenset(v for v, _ in kept)], tuple(c for _, c in kept))


def canonical(K: SimplicialComplex, p: Point, tol: float = TOL) -> Point:
    """Drop (near-)zero coordinates so the carrier is minimal.

    A point whose coordinates pass (all > TOL, sum within 1e-12 of 1) is
    returned as it is and flagged, so later calls with the default tol only
    look its carrier up in K."""
    flagged = p._canonical and tol == TOL
    if flagged or all(c > tol for c in p.coords):
        if p.carrier not in K.simplices:
            raise NotFoundError(f"carrier {p.carrier} not in complex")
        if flagged:
            return p
        total = sum(p.coords)
        if abs(total - 1.0) > 1e-12:
            return Point(p.carrier, tuple(c / total for c in p.coords))
        if tol == TOL:
            object.__setattr__(p, "_canonical", True)
        return p
    return make_point(K, p.as_dict(), tol=tol)


def _row_sums(rows: np.ndarray) -> np.ndarray:
    """Each row's sum, accumulated column by column as Python's ``sum``
    adds a tuple of coordinates (a numpy reduction may add in another
    order); a column of zeros changes no sum."""
    total = rows[:, 0].copy()
    for k in range(1, rows.shape[1]):
        total += rows[:, k]
    return total


def _canonical_rows(rows: np.ndarray) -> np.ndarray:
    """Per row, whether ``canonical`` leaves a point with these coordinates
    as it is: every coordinate > TOL and the sum (``_row_sums``) within
    1e-12 of 1."""
    return (rows > TOL).all(axis=1) & (np.abs(_row_sums(rows) - 1.0) <= 1e-12)


def vertex_point(K: SimplicialComplex, label: str) -> Point:
    return Point(K.simplex([label]), (1.0,))


def barycenter(K: SimplicialComplex, s: Simplex) -> Point:
    if s not in K.simplices:
        raise NotFoundError(f"simplex {s} not in complex")
    n = len(s.vertices)
    return Point(s, (1.0 / n,) * n)


def combine_points(K: SimplicialComplex, weighted: Iterable[tuple[float, Point]]) -> Point:
    """Affine combination of points; their carriers must span a common simplex."""
    acc: dict[str, float] = {}
    for w, p in weighted:
        if w == 0.0:
            continue
        for v, c in zip(p.carrier.vertices, p.coords):
            acc[v] = acc.get(v, 0.0) + w * c
    return make_point(K, acc)


# -- barycentric subdivision ---------------------------------------------------

def _sd_label(s: Simplex) -> str:
    return "{" + ",".join(s.vertices) + "}"


def _face_poset(K: SimplicialComplex) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """The face poset of K by ``sort_key`` position, built on first use and
    kept on K: the facets of each simplex, the facet missing vertex k in
    slot k, and the cofacets of each simplex in ascending order.  Readers
    share the lists and must not change them."""
    if K._poset is None:
        index = {s.vertices: i for i, s in enumerate(K._sorted)}
        facets = [tuple(index[vs[:k] + vs[k + 1 :]] for k in range(len(vs)) if len(vs) > 1) for vs in index]
        cofacets: list[list[int]] = [[] for _ in facets]
        for i, fs in enumerate(facets):
            for f in fs:
                cofacets[f].append(i)
        K._poset = (facets, cofacets)
    return K._poset


def face_chains(K: SimplicialComplex):
    """Every nonempty chain s_0 < ... < s_m of the face poset, depth first:
    each chain is followed by its extensions, both in ``sort_key`` order.

    The strict cofaces of a simplex are its cofacets and their strict
    cofaces; that table is built per call from ``_face_poset``.
    """
    simps = K._sorted
    _, cofacets = _face_poset(K)
    up: list[list[int]] = [[]] * len(simps)
    for i in reversed(range(len(simps))):  # cofaces sit at higher positions
        up[i] = sorted({j for c in cofacets[i] for j in (c, *up[c])})
    for i in range(len(simps)):
        stack = [(i,)]
        while stack:
            chain = stack.pop()
            yield tuple(simps[k] for k in chain)
            stack.extend(chain + (j,) for j in reversed(up[chain[-1]]))


def barycentric_subdivision(K: SimplicialComplex) -> tuple[SimplicialComplex, dict[str, Point]]:
    """Barycentric subdivision Sd K together with the vertex-to-point mapping.

    Vertices of Sd K are the barycenters of simplices of K; the simplices of
    Sd K are the chains in the face poset of K.
    """
    order = [_sd_label(s) for s in K.sorted_simplices()]
    chains = [tuple(_sd_label(s) for s in c) for c in face_chains(K)]
    sd = SimplicialComplex(chains, vertex_order=order)
    mapping = {_sd_label(s): barycenter(K, s) for s in K.sorted_simplices()}
    return sd, mapping


def count_chains(K: SimplicialComplex) -> int:
    """Number of nonempty chains in the face poset, the simplex count of Sd K."""
    return sum(1 for _ in face_chains(K))


def subdivision_points(K: SimplicialComplex, rounds: int = 1) -> list[Point]:
    """Vertices of the r-fold barycentric subdivision, as points of K.

    Round r's points are the barycenters of the simplices of Sd^(r-1) K, each
    the average of round r-1's points at its vertices, so the last round
    builds no complex.
    """
    if rounds <= 0:
        return [vertex_point(K, v) for v in K.vertex_order]
    current = K
    points = [barycenter(K, s) for s in K.sorted_simplices()]
    for _ in range(rounds - 1):
        current, _ = barycentric_subdivision(current)
        points = [
            combine_points(K, [(1.0 / len(c.vertices), points[current.vertex_index(v)]) for v in c.vertices])
            for c in current.sorted_simplices()
        ]
    return points
