"""Simplicial maps, fibers over barycenters, the product decomposition of a
fiber over an open simplex, and the star-preimage deformation retraction.

The recurring coordinate trick: for f simplicial and x with f(x) in the
interior of sigma = w_0...w_m, grouping the barycentric coordinates of x by
target vertex splits x into a fiber part (a point of f^{-1}(sigma-hat)) and a
base part (f(x)).  All fiber operations below are instances of regrouping.

The cell bijection of the product decomposition holds by construction of the
fiber's cells, so its certificate samples only the join/split round trip,
the one part of it that can fail.

What is kept, and for how long: a map keeps, while it lives, the source
simplices grouped by image simplex (``f._by_image``, built in one pass by
``_source_by_image``), which ``validate_map``, the fibers and
``surjectivity_check`` read, so a loaded map computes each source
simplex's image once, and one fiber per target simplex (``f._fiber_cache``).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .complexes import (
    MalformedInputError,
    NotFoundError,
    Point,
    Simplex,
    SimplicialComplex,
    TOL,
    _check_nonnegative,
    _row_sums,
    barycenter,
    closure_complex,
    combine_points,
    make_point,
)
from .contract import Verdict, contractibility_verdict
from .evaluators import Homotopy


class VacuousRetractionError(ValueError):
    """Retraction requested over an empty preimage (vacuous case)."""


class ProductDecompositionError(RuntimeError):
    """The product decomposition over an open simplex failed a check (an
    implementation bug)."""


@dataclass(eq=False)
class SimplicialMap:
    source: SimplicialComplex
    target: SimplicialComplex
    vertex_map: dict[str, str]

    def __post_init__(self):
        for v in self.source.vertex_order:
            if v not in self.vertex_map:
                raise MalformedInputError(f"vertex {v!r} has no image")
            if self.vertex_map[v] not in self.target._index:
                raise MalformedInputError(
                    f"image {self.vertex_map[v]!r} of {v!r} is not a target vertex"
                )
        if len(self.vertex_map) != len(self.source.vertex_order):  # every source vertex is a key
            stray = next(v for v in self.vertex_map if v not in self.source._index)
            raise MalformedInputError(f"vertex map names {stray!r}, which is not a source vertex")
        # derived from f alone, filled on first use by the owner named and kept while f lives
        self._fiber_cache: dict = {}  # fiber_over_barycenter, one per target simplex
        self._by_image: dict[Simplex, list[Simplex]] | None = None  # _source_by_image

    def image_simplex(self, s: Simplex) -> Simplex:
        return self.target.simplex({self.vertex_map[v] for v in s.vertices})

    def __call__(self, p: Point) -> Point:
        return evaluate_map(self, p)


def identity_map(K: SimplicialComplex) -> SimplicialMap:
    return SimplicialMap(K, K, {v: v for v in K.vertex_order})


def validate_map(f: SimplicialMap) -> list[Simplex]:
    """Empty list if simplicial; otherwise every source simplex whose vertex
    image spans no target simplex, in ``sorted_simplices`` order.  The
    images are those of ``_source_by_image``, which the fibers and
    ``surjectivity_check`` read afterwards."""
    target = f.target.simplices
    bad = [tau for image, group in _source_by_image(f).items() if image not in target for tau in group]
    return sorted(bad, key=f.source.sort_key)


def _image_weights(f: SimplicialMap, p: Point) -> dict[str, float]:
    """p's coordinates summed over the vertices sharing an image."""
    out: dict[str, float] = {}
    for v, c in zip(p.carrier.vertices, p.coords):
        w = f.vertex_map[v]
        out[w] = out.get(w, 0.0) + c
    return out


def evaluate_map(f: SimplicialMap, p: Point) -> Point:
    """Affine extension of the vertex assignment, canonicalized."""
    return make_point(f.target, _image_weights(f, p))


def surjectivity_check(f: SimplicialMap) -> list[Simplex]:
    """Simplices of the target whose open cell misses the image entirely.

    An open cell is hit iff some source simplex maps onto its closure, so the
    returned list is exactly the open stars obstructing surjectivity (the
    inclusion-minimal ones are the minimal elements of this list).
    """
    hit = _source_by_image(f)
    return [s for s in f.target.sorted_simplices() if s not in hit]


def _source_by_image(f: SimplicialMap) -> dict[Simplex, list[Simplex]]:
    """image simplex -> the source simplices mapping onto it, each group in
    ``sorted_simplices`` order: one ``image_simplex`` call per source
    simplex, made on first use and kept in ``f._by_image``."""
    if f._by_image is None:
        groups: dict[Simplex, list[Simplex]] = {}
        for tau in f.source.sorted_simplices():
            groups.setdefault(f.image_simplex(tau), []).append(tau)
        f._by_image = groups
    return f._by_image


# -- fibers over barycenters ---------------------------------------------------

def _tuple_label(labels: tuple[str, ...]) -> str:
    return "(" + "|".join(labels) + ")"


@dataclass(frozen=True)
class ProductCell:
    """The portion of a fiber inside one source simplex mapping onto sigma:
    the product of the per-target-vertex faces of tau."""

    tau: Simplex
    factors: tuple[tuple[str, ...], ...]

    @property
    def dim(self) -> int:
        return sum(len(fac) - 1 for fac in self.factors)


def _monotone_paths(shape: tuple[int, ...]):
    """Vertex index tuples of the maximal staircase simplices of a grid, in
    lexicographic order of the axis stepped at each move."""
    top = tuple(n - 1 for n in shape)
    stack = [(tuple(0 for _ in shape),)]
    while stack:
        path = stack.pop()
        pos = path[-1]
        if pos == top:
            yield path
        for i in reversed(range(len(shape))):
            if pos[i] < top[i]:
                stack.append(path + (pos[:i] + (pos[i] + 1,) + pos[i + 1 :],))


@dataclass
class FiberComplex:
    """f^{-1}(sigma-hat) as a union of product cells, with the staircase
    triangulation and, built on first read, the affine embedding back into
    the source complex.

    It keeps the source, not f, so ``f._fiber_cache`` points one way only.
    """

    source: SimplicialComplex
    sigma: Simplex
    cells: list[ProductCell]
    triangulation: SimplicialComplex | None

    @property
    def is_empty(self) -> bool:
        return not self.cells

    @functools.cached_property
    def embedding(self) -> dict[str, Point]:
        """Each vertex of the triangulation, a grid tuple of one cell, in
        the triangulation's vertex order -> the tuple's barycenter in the
        source."""
        if self.triangulation is None:
            return {}
        tuples = {_tuple_label(t): t for cell in self.cells for t in itertools.product(*cell.factors)}
        w = 1.0 / len(self.sigma.vertices)
        return {v: make_point(self.source, {u: w for u in tuples[v]}) for v in self.triangulation.vertex_order}

    @functools.cached_property
    def verdict(self) -> Verdict:
        """The triangulation's contractibility verdict, computed once."""
        return contractibility_verdict(self.triangulation)

    def embed(self, labels: tuple[str, ...], weights: tuple[float, ...]) -> Point:
        return combine_points(
            self.source, [(w, self.embedding[v]) for v, w in zip(labels, weights)]
        )

    def locate(self, x: Point, tol: float = 1e-7) -> tuple[tuple[str, ...], tuple[float, ...]]:
        """Express a point of |fiber| in triangulation coordinates."""
        m1 = len(self.sigma.vertices)
        carrier_set = set(x.carrier.vertices)
        xd = x.as_dict()
        for cell in self.cells:
            if not carrier_set <= set(cell.tau.vertices):
                continue
            lambdas = []
            ok = True
            for fac in cell.factors:
                mass = sum(xd.get(v, 0.0) for v in fac)
                if abs(mass - 1.0 / m1) > tol:
                    ok = False
                    break
                lambdas.append([xd.get(v, 0.0) * m1 for v in fac])
            if not ok:
                continue
            chain, mu = _staircase_locate(lambdas)
            labels = tuple(
                _tuple_label(tuple(fac[idx[i]] for i, fac in enumerate(cell.factors)))
                for idx in chain
            )
            return labels, mu
        raise NotFoundError(f"point {x} not located in fiber over {self.sigma}")


def _staircase_locate(lambdas: list[list[float]], tol: float = 1e-12):
    """Locate a product point in the staircase triangulation.

    Per factor, cumulative sums mark the times at which the staircase path
    increments that coordinate; merging all thresholds yields the chain of
    grid tuples and their affine weights.
    """
    events: list[float] = []
    cums: list[list[float]] = []
    for lam in lambdas:
        acc = 0.0
        cum = []
        for c in lam[:-1]:
            acc += c
            cum.append(acc)
            if tol < acc < 1.0 - tol:
                events.append(acc)
        cums.append(cum)
    cuts = [0.0]
    for e in sorted(events):
        if e - cuts[-1] > tol:
            cuts.append(e)
    if 1.0 - cuts[-1] > tol:
        cuts.append(1.0)
    else:
        cuts[-1] = 1.0
    chain = []
    mu = []
    for k in range(len(cuts) - 1):
        mid = 0.5 * (cuts[k] + cuts[k + 1])
        idx = tuple(sum(1 for c in cum if c <= mid) for cum in cums)
        chain.append(idx)
        mu.append(cuts[k + 1] - cuts[k])
    total = sum(mu)
    return chain, tuple(w / total for w in mu)


def fiber_over_barycenter(f: SimplicialMap, sigma: Simplex) -> FiberComplex:
    """Cells are the products of per-vertex preimage faces over every source
    simplex mapping onto sigma, glued along shared faces and triangulated by
    the staircase triangulation.  The simplices are read from sigma's group
    of ``_source_by_image``, in ``sorted_simplices`` order.

    Only the maximal cells hand their staircase simplices to
    ``closure_complex``: a cell that is a face of another is a product of
    subchains of that cell's factors, so each of its staircase simplices is
    a chain in the larger cell's grid, and a chain in a product of chains
    extends to a maximal one, a staircase simplex of the larger cell.  A
    cell below another is a facet of a cell of the group, since every face
    between them maps onto sigma too.  So a cell is maximal when no cell of
    the group gives its simplex by dropping one vertex; only a vertex of a
    factor with two or more vertices can be dropped within the group.
    Every grid tuple lies on a maximal chain, so the paths name every
    vertex of the triangulation."""
    if sigma not in f.target.simplices:
        raise NotFoundError(f"simplex {sigma} not in target")
    if sigma in f._fiber_cache:
        return f._fiber_cache[sigma]
    slot = {w: k for k, w in enumerate(sigma.vertices)}
    cells = []
    for tau in _source_by_image(f).get(sigma, ()):
        factors = [[] for _ in sigma.vertices]
        for v in tau.vertices:
            factors[slot[f.vertex_map[v]]].append(v)
        cells.append(ProductCell(tau=tau, factors=tuple(map(tuple, factors))))
    if not cells:
        fc = FiberComplex(source=f.source, sigma=sigma, cells=[], triangulation=None)
        f._fiber_cache[sigma] = fc
        return fc

    facets = {vs[:k] + vs[k + 1 :] for vs in (cell.tau.vertices for cell in cells) for k in range(len(vs))}
    paths: dict[tuple[int, ...], list] = {}  # shape -> its staircase paths
    labels: dict[tuple[str, ...], str] = {}  # grid tuple -> its vertex label
    generators: list[tuple[str, ...]] = []
    for cell in cells:
        if cell.tau.vertices in facets:
            continue
        shape = tuple(len(fac) for fac in cell.factors)
        for path in paths.get(shape) or paths.setdefault(shape, list(_monotone_paths(shape))):
            gen = []
            for idx in path:
                t = tuple(fac[i] for fac, i in zip(cell.factors, idx))
                gen.append(labels.get(t) or labels.setdefault(t, _tuple_label(t)))
            generators.append(tuple(gen))
    src_idx = f.source.vertex_index
    order = sorted(labels, key=lambda tup: tuple(src_idx(v) for v in tup))
    fc = FiberComplex(source=f.source, sigma=sigma, cells=cells, triangulation=closure_complex(generators, vertex_order=[labels[t] for t in order]))
    f._fiber_cache[sigma] = fc
    return fc


# -- fiber coordinates (join-coordinate trivialization) ------------------------

def fiber_split(f: SimplicialMap, x: Point) -> tuple[Point, Point]:
    """x in f^{-1}(interior sigma) -> (fiber part over sigma-hat, f(x))."""
    y = evaluate_map(f, x)
    m1 = len(y.carrier.vertices)
    yd = y.as_dict()
    z: dict[str, float] = {}
    for v, c in zip(x.carrier.vertices, x.coords):
        w = f.vertex_map[v]
        z[v] = c / (m1 * yd[w])
    return make_point(f.source, z), y


def fiber_join(f: SimplicialMap, z: Point, y: Point) -> Point:
    """Inverse of the split: distribute the fiber part's vertex groups with
    the weights of y (groups over vertices outside supp(y) are dropped).
    The fiber simplex is the support of f(z), read as ``make_point`` reads
    it (image weights above TOL) without building the point."""
    sigma_labels = {w for w, c in _image_weights(f, z).items() if c > TOL}
    yd = y.as_dict()
    if not set(yd) <= sigma_labels:
        raise MalformedInputError(
            f"base point support {sorted(yd)} exceeds fiber simplex {sorted(sigma_labels)}"
        )
    m1 = len(sigma_labels)
    out: dict[str, float] = {}
    for v, c in zip(z.carrier.vertices, z.coords):
        w = f.vertex_map[v]
        lam = yd.get(w, 0.0)
        if lam > TOL:
            out[v] = c * m1 * lam
    return make_point(f.source, out)


def _image_sums(rows: np.ndarray, img: list[int], n: int) -> np.ndarray:
    """Per row, the columns summed into their image positions ``img``
    (n of them), column by column as ``_image_weights`` adds them."""
    out = np.zeros((rows.shape[0], n))
    for k, j in enumerate(img):
        out[:, j] += rows[:, k]
    return out


def _joined_image_rows(f: SimplicialMap, sigma: Simplex, ws: list[Point], L: np.ndarray):
    """``evaluate_map(f, fiber_join(f, w, y))`` over sigma's vertices for
    each fiber point w of ``ws`` and base point y, given as the matching
    row of L over sigma (0 off y's carrier), and per row whether the
    arrays reproduce it: the join→image row kernel of the g table and of
    h1's group pass.

    The points sit as rows over the vertices of their carriers' union, in
    the source's vertex order.  Every sum adds one column at a time in
    that order, as ``fiber_join``, ``make_point`` and ``_image_weights``
    add in carrier order (a column off a carrier, or a weight they drop,
    adds 0), so a reproduced row is bit for bit the point's coordinates.
    A row is not reproduced where y's support is not in w's fiber simplex,
    where a coordinate of the image is at or below TOL, or where a sum is
    off 1 by more than ``make_point`` allows or, for the image, by more
    than ``canonical`` leaves as it is.  Every vertex of the ws maps into
    sigma."""
    distinct = {id(w): w for w in ws}
    cols = sorted({v for w in distinct.values() for v in w.carrier.vertices}, key=f.source.vertex_index)
    at = {v: k for k, v in enumerate(cols)}
    dense = {}
    for key, w in distinct.items():
        row = dense[key] = [0.0] * len(cols)
        for v, c in zip(w.carrier.vertices, w.coords):
            row[at[v]] = c
    C = np.array([dense[id(w)] for w in ws])
    pos = {w: j for j, w in enumerate(sigma.vertices)}
    img = [pos[f.vertex_map[v]] for v in cols]
    n = len(pos)
    labels = _image_sums(C, img, n) > TOL  # each w's fiber simplex, as fiber_join reads it
    lam = L[:, img]
    W = (C * labels.sum(axis=1)[:, None]) * lam
    W[(lam <= TOL) | (W <= TOL)] = 0.0  # the weights fiber_join and make_point drop
    ok = (labels | (L == 0.0)).all(axis=1)
    total = _row_sums(W)
    ok &= np.abs(total - 1.0) <= 1e-7
    X = W / np.where(ok, total, 1.0)[:, None]  # the joined points
    S = _image_sums(X, img, n)
    total = _row_sums(S)
    ok &= np.abs(total - 1.0) <= 1e-7
    F = S / np.where(ok, total, 1.0)[:, None]
    ok &= ((np.minimum(S, F) > TOL) | (S == 0.0)).all(axis=1) & (np.abs(_row_sums(F) - 1.0) <= 1e-12)
    return F, ok


def fiber_project(f: SimplicialMap, z: Point, tau: Simplex) -> Point:
    """The closure transition map from the fiber over sigma-hat to the fiber
    over tau-hat, tau a face of sigma: keep the groups over tau, reweight."""
    return fiber_split(f, fiber_join(f, z, barycenter(f.target, tau)))[0]


class JoinTrivialization:
    """Default product structure f^{-1}(open sigma) ~ f^{-1}(sigma-hat) x open
    sigma, realized by join coordinates as in the product decomposition."""

    def __init__(self, f: SimplicialMap):
        self.f = f

    def split(self, x: Point) -> tuple[Point, Point]:
        return fiber_split(self.f, x)

    def join(self, z: Point, y: Point) -> Point:
        return fiber_join(self.f, z, y)

    def project(self, z: Point, tau: Simplex) -> Point:
        return fiber_project(self.f, z, tau)


# -- product decomposition certificate -----------------------------------------

@dataclass
class IsoCertificate:
    """Witness for f^{-1}(open sigma) ~ f^{-1}(sigma-hat) x open sigma."""

    sigma: Simplex
    cell_bijection: dict[Simplex, ProductCell]
    samples_checked: int

    @property
    def is_empty(self) -> bool:
        return not self.cell_bijection


def verify_product_decomposition(
    f: SimplicialMap, sigma: Simplex, samples: int = 100, seed: int = 0
) -> IsoCertificate:
    """A sampled check of the join coordinates over sigma: for y drawn in
    open sigma and z drawn in the fiber over sigma-hat, splitting join(z, y)
    gives back (z, y).

    The cell bijection tau -> (its product cell) holds by construction, so
    it is returned unchecked: ``fiber_over_barycenter`` keeps tau only when
    f(tau) = sigma and takes the factors tau ∩ f^{-1}(w), w in sigma, which
    partition tau's vertices into sigma.dim + 1 nonempty groups.  Hence
    each cell's product dimension plus sigma.dim is tau.dim, and tau_a <=
    tau_b exactly when each factor of the one lies in the matching factor
    of the other."""
    _check_nonnegative(samples=samples, seed=seed)
    fiber = fiber_over_barycenter(f, sigma)
    bijection = {cell.tau: cell for cell in fiber.cells}
    if fiber.is_empty:
        return IsoCertificate(sigma=sigma, cell_bijection={}, samples_checked=0)

    rng = np.random.default_rng(seed)
    maxs = fiber.triangulation.maximal_simplices()
    n = len(sigma.vertices)
    checked = 0
    for _ in range(samples):
        w = rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n  # stay in the open cell
        y = Point(sigma, tuple(w / w.sum()))
        s = maxs[int(rng.integers(len(maxs)))]
        z = fiber.embed(s.vertices, tuple(rng.dirichlet(np.ones(len(s.vertices)))))
        z2, y2 = fiber_split(f, fiber_join(f, z, y))
        gap = max(_coord_gap(z, z2), _coord_gap(y, y2))
        if gap > TOL:
            raise ProductDecompositionError(
                f"join/split round trip over {sigma} is off by {gap:.3e} at z={z}, y={y}"
            )
        checked += 1
    return IsoCertificate(sigma=sigma, cell_bijection=bijection, samples_checked=checked)


def _coord_gap(p: Point, q: Point) -> float:
    """Largest barycentric-coordinate difference, over the union of carriers."""
    pd, qd = p.as_dict(), q.as_dict()
    return max(abs(pd.get(v, 0.0) - qd.get(v, 0.0)) for v in set(pd) | set(qd))


# -- star-preimage deformation retraction ---------------------------------------

def build_star_retraction(f: SimplicialMap, sigma: Simplex) -> Homotopy:
    """Strong deformation retraction of f^{-1}(st(sigma)) onto
    f^{-1}(interior sigma): the join parameter off sigma goes to zero at unit
    speed and stays there."""
    if fiber_over_barycenter(f, sigma).is_empty:
        raise VacuousRetractionError(
            f"f^{{-1}} of the open cell of {sigma} is empty; retraction is vacuous"
        )
    sig = set(sigma.vertices)

    def track_factory(x: Point):
        t_out = sum(
            c for v, c in zip(x.carrier.vertices, x.coords) if f.vertex_map[v] not in sig
        )
        t_in = 1.0 - t_out
        if t_in <= TOL:
            raise NotFoundError(f"point {x} outside f^{{-1}}(st({sigma}))")

        def at(s: float) -> Point:
            t_new = max(0.0, t_out - s)
            out: dict[str, float] = {}
            for v, c in zip(x.carrier.vertices, x.coords):
                if f.vertex_map[v] in sig:
                    out[v] = c * (1.0 - t_new) / t_in
                elif t_out > 0.0 and t_new > 0.0:
                    out[v] = c * t_new / t_out
            return make_point(f.source, out)

        return at

    return Homotopy(
        domain=f.source,
        codomain=f.source,
        track_factory=track_factory,
    )
