"""Simplicial maps, fibers over barycenters, the product decomposition of a
fiber over an open simplex, and the star-preimage deformation retraction.

The recurring coordinate trick: for f simplicial and x with f(x) in the
interior of sigma = w_0...w_m, grouping the barycentric coordinates of x by
target vertex splits x into a fiber part (a point of f^{-1}(sigma-hat)) and a
base part (f(x)).  All fiber operations below are instances of regrouping.
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
        self._fiber_cache: dict = {}

    def image_labels(self, s: Simplex) -> tuple[str, ...]:
        return tuple(sorted({self.vertex_map[v] for v in s.vertices}, key=self.target.vertex_index))

    def image_simplex(self, s: Simplex) -> Simplex:
        return self.target.simplex(self.image_labels(s))

    def __call__(self, p: Point) -> Point:
        return evaluate_map(self, p)


def identity_map(K: SimplicialComplex) -> SimplicialMap:
    return SimplicialMap(K, K, {v: v for v in K.vertex_order})


def validate_map(f: SimplicialMap) -> list[Simplex]:
    """Empty list if simplicial; otherwise every source simplex whose vertex
    image spans no target simplex."""
    bad = []
    for s in f.source.sorted_simplices():
        if not f.target.contains_labels(f.image_labels(s)):
            bad.append(s)
    return bad


def evaluate_map(f: SimplicialMap, p: Point) -> Point:
    """Affine extension of the vertex assignment (coordinates summed over
    vertices sharing an image), canonicalized."""
    out: dict[str, float] = {}
    for v, c in zip(p.carrier.vertices, p.coords):
        w = f.vertex_map[v]
        out[w] = out.get(w, 0.0) + c
    return make_point(f.target, out)


def surjectivity_check(f: SimplicialMap) -> list[Simplex]:
    """Simplices of the target whose open cell misses the image entirely.

    An open cell is hit iff some source simplex maps onto its closure, so the
    returned list is exactly the open stars obstructing surjectivity (the
    inclusion-minimal ones are the minimal elements of this list).
    """
    hit: set[Simplex] = {f.image_simplex(s) for s in f.source.simplices}
    return [s for s in f.target.sorted_simplices() if s not in hit]


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
    """Vertex index tuples of the maximal staircase simplices of a grid."""
    top = tuple(n - 1 for n in shape)

    def rec(pos: tuple[int, ...]):
        if pos == top:
            yield (pos,)
            return
        for i in range(len(shape)):
            if pos[i] < top[i]:
                nxt = pos[:i] + (pos[i] + 1,) + pos[i + 1 :]
                for rest in rec(nxt):
                    yield (pos,) + rest

    yield from rec(tuple(0 for _ in shape))


@dataclass
class FiberComplex:
    """f^{-1}(sigma-hat) as a union of product cells, with the staircase
    triangulation and the affine embedding back into the source."""

    f: SimplicialMap
    sigma: Simplex
    cells: list[ProductCell]
    triangulation: SimplicialComplex | None
    embedding: dict[str, Point]

    @property
    def is_empty(self) -> bool:
        return not self.cells

    @functools.cached_property
    def verdict(self) -> Verdict:
        """The triangulation's contractibility verdict, computed once."""
        return contractibility_verdict(self.triangulation)

    def embed(self, labels: tuple[str, ...], weights: tuple[float, ...]) -> Point:
        return combine_points(
            self.f.source, [(w, self.embedding[v]) for v, w in zip(labels, weights)]
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
    the staircase triangulation."""
    if sigma not in f.target.simplices:
        raise NotFoundError(f"simplex {sigma} not in target")
    if sigma in f._fiber_cache:
        return f._fiber_cache[sigma]
    cells = []
    for tau in f.source.sorted_simplices():
        if f.image_simplex(tau) != sigma:
            continue
        factors = tuple(
            tuple(v for v in tau.vertices if f.vertex_map[v] == w) for w in sigma.vertices
        )
        cells.append(ProductCell(tau=tau, factors=factors))
    if not cells:
        fc = FiberComplex(f=f, sigma=sigma, cells=[], triangulation=None, embedding={})
        f._fiber_cache[sigma] = fc
        return fc

    m1 = len(sigma.vertices)
    src_idx = f.source.vertex_index
    all_tuples: set[tuple[str, ...]] = set()
    generators: list[tuple[str, ...]] = []
    for cell in cells:
        shape = tuple(len(fac) for fac in cell.factors)
        for path in _monotone_paths(shape):
            labels = tuple(
                _tuple_label(tuple(cell.factors[i][idx[i]] for i in range(len(shape))))
                for idx in path
            )
            generators.append(labels)
        for idx in itertools.product(*(range(n) for n in shape)):
            all_tuples.add(tuple(cell.factors[i][idx[i]] for i in range(len(shape))))
    order = sorted(all_tuples, key=lambda tup: tuple(src_idx(v) for v in tup))
    tri = closure_complex(generators, vertex_order=[_tuple_label(t) for t in order])
    embedding = {
        _tuple_label(t): make_point(f.source, {v: 1.0 / m1 for v in t}) for t in order
    }
    fc = FiberComplex(f=f, sigma=sigma, cells=cells, triangulation=tri, embedding=embedding)
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
    the weights of y (groups over vertices outside supp(y) are dropped)."""
    sigma_labels = set(evaluate_map(f, z).carrier.vertices)
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
    """Combinatorial check of the cell bijection over sigma, then a sampled
    check of the join coordinates: for y drawn in open sigma and z drawn in
    the fiber over sigma-hat, splitting join(z, y) gives back (z, y)."""
    if sigma not in f.target.simplices:
        raise NotFoundError(f"simplex {sigma} not in target")
    fiber = fiber_over_barycenter(f, sigma)
    bijection = {cell.tau: cell for cell in fiber.cells}

    for cell in fiber.cells:
        if cell.dim + sigma.dim != cell.tau.dim:
            raise ProductDecompositionError(
                f"dimension mismatch over {sigma}: cell {cell.tau} "
                f"has product dim {cell.dim}"
            )
    taus = list(bijection)
    for a in taus:
        for b in taus:
            cells_face = all(
                set(fa) <= set(fb)
                for fa, fb in zip(bijection[a].factors, bijection[b].factors)
            )
            if (a <= b) != cells_face:
                raise ProductDecompositionError(f"face relation mismatch between {a} and {b}")

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
    if sigma not in f.target.simplices:
        raise NotFoundError(f"simplex {sigma} not in target")
    if fiber_over_barycenter(f, sigma).is_empty:
        raise VacuousRetractionError(
            f"f^{{-1}} of the open cell of {sigma} is empty; retraction is vacuous"
        )
    sig = set(sigma.vertices)

    def fn(x: Point, s: float) -> Point:
        t_out = sum(
            c for v, c in zip(x.carrier.vertices, x.coords) if f.vertex_map[v] not in sig
        )
        t_in = 1.0 - t_out
        if t_in <= TOL:
            raise NotFoundError(f"point {x} outside f^{{-1}}(st({sigma}))")
        t_new = max(0.0, t_out - s)
        out: dict[str, float] = {}
        for v, c in zip(x.carrier.vertices, x.coords):
            if f.vertex_map[v] in sig:
                out[v] = c * (1.0 - t_new) / t_in
            elif t_out > 0.0 and t_new > 0.0:
                out[v] = c * t_new / t_out
        return make_point(f.source, out)

    return Homotopy(
        domain=f.source,
        codomain=f.source,
        fn=fn,
        name=f"star-retraction over {sigma}",
    )
