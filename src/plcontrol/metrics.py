"""The standard path metric and the derived size quantities.

Within one simplex the metric is the Euclidean metric of the standard
embedding (vertex i at the i-th unit vector), so two points sharing a carrier
are at exactly the l2 distance of their coordinate vectors.  Across simplices
the path metric is bounded from above by Dijkstra over a Steiner-point graph;
the bound is one-sided in the safe direction for control measurement and
converges as the refinement parameter grows.

The control tables of ``homotopies`` measure many such distances at once as
rows of coordinate differences over one carrier: ``_norms`` norms the rows
with the bits of ``_l2_in_simplex``, and ``_row_sups`` reduces each point's
rows over a time grid to (sup, first time attaining it, pairs), the
first-maximum reduction that ``_first_maxes`` is.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .complexes import (
    NotFoundError,
    Point,
    Simplex,
    SimplicialComplex,
    barycenter,
    canonical,
    vertex_point,
)

INF = math.inf


def _coords_over(p: Point, vertices: tuple[str, ...]) -> np.ndarray:
    out = np.zeros(len(vertices))
    d = p.as_dict()
    for i, v in enumerate(vertices):
        out[i] = d.get(v, 0.0)
    return out


def shared_carrier(K: SimplicialComplex, p: Point, q: Point) -> Simplex | None:
    return K._by_labels.get(frozenset(p.carrier.vertices + q.carrier.vertices))


def _l2_in_simplex(p: Point, q: Point, carrier: Simplex) -> float:
    # math.sqrt(d.dot(d)) is what np.linalg.norm computes for a real 1-D array;
    # points on the interned carrier itself are read as they are
    if p.carrier is carrier and q.carrier is carrier:
        d = np.subtract(p.coords, q.coords, dtype=float)
    else:
        verts = carrier.vertices
        d = _coords_over(p, verts) - _coords_over(q, verts)
    return math.sqrt(d.dot(d))


def _norms(d: np.ndarray) -> list[float]:
    """The l2 norm of each row of d, which ``distance`` computes as
    ``math.sqrt(d.dot(d))`` (``_l2_in_simplex``): the per-row dot products
    of one ``matmul`` of C-ordered rows have the same bits (on rows of
    another layout it may add in another order)."""
    d = np.ascontiguousarray(d)
    return np.sqrt(np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0]).tolist()


def _first_maxes(times, dists: np.ndarray) -> list[tuple[float, float | None, int]]:
    """Per row of ``dists``, one distance per time of ``times``: (its
    largest distance, the first time attaining it, the number of pairs),
    (0.0, None, 0) for no time.  One ``argmax`` per row, which returns the
    first of equal maxima."""
    if not len(times):
        return [(0.0, None, 0)] * len(dists)
    first = dists.argmax(axis=1)
    return [(best, times[k], len(times)) for best, k in zip(dists[np.arange(len(dists)), first].tolist(), first.tolist())]


def _row_sups(times, diffs, fast, pair) -> list[tuple[float, float | None, int]]:
    """Per point p, ``_first_maxes`` over ``times`` of one distance per row
    k of ``diffs[p]``, the point's coordinate differences from another
    point over one carrier: for a row marked ``fast[p][k]``, the l2 norm
    of the row, for any other row, ``pair(p, k)``.  The fast rows of one
    width take one ``_norms`` call, whose bits per row do not depend on
    the rows beside it."""
    fast = np.array(fast, dtype=bool).reshape(len(diffs), len(times))
    dists = np.zeros(fast.shape)
    for width in {d.shape[1] for d in diffs}:
        of = np.array([d.shape[1] == width for d in diffs])
        dists[fast & of[:, None]] = _norms(np.stack([d for d, ok in zip(diffs, of) if ok])[fast[of]])
    for p, k in np.argwhere(~fast).tolist():
        dists[p, k] = pair(p, k)
    return _first_maxes(times, dists)


def vertex_barycenter_distance(n: int) -> float:
    """Distance from a vertex of the standard n-simplex to its barycenter."""
    if n == 0:
        return 0.0
    return math.sqrt(n / (n + 1))


# -- Steiner graph for cross-simplex upper bounds ------------------------------

def _lattice_coords(dim: int, resolution: int):
    """Barycentric lattice points of a dim-simplex with denominator `resolution`."""
    for combo in itertools.combinations_with_replacement(range(dim + 1), resolution):
        counts = [0] * (dim + 1)
        for c in combo:
            counts[c] += 1
        yield tuple(c / resolution for c in counts)


class _MetricGraph:
    """Static Steiner graph: lattice points and barycenters, edges inside
    maximal simplices weighted by exact within-simplex distance."""

    def __init__(self, K: SimplicialComplex, refinement: int):
        nodes: dict[tuple, Point] = {}

        def add(p: Point):
            key = (p.carrier.vertices, tuple(round(c, 12) for c in p.coords))
            nodes.setdefault(key, p)

        for s in K.sorted_simplices():
            add(barycenter(K, s))
            # nested lattices keep the node set monotone in `refinement`
            for r in range(1, refinement + 2):
                for coords in _lattice_coords(s.dim, r):
                    add(canonical(K, Point(s, coords)))
        self.points = list(nodes.values())
        self.adj: list[list[tuple[int, float]]] = [[] for _ in self.points]
        per_simplex: dict[Simplex, list[int]] = {}
        maxs = K.maximal_simplices()
        for i, p in enumerate(self.points):
            for m in maxs:
                if m.contains(p.carrier):
                    per_simplex.setdefault(m, []).append(i)
        for m, idxs in per_simplex.items():
            verts = m.vertices
            arr = np.array([_coords_over(self.points[i], verts) for i in idxs])
            for a in range(len(idxs)):
                diffs = arr[a + 1 :] - arr[a]
                dists = np.linalg.norm(diffs, axis=1)
                for b, dist in enumerate(dists, start=a + 1):
                    self.adj[idxs[a]].append((idxs[b], float(dist)))
                    self.adj[idxs[b]].append((idxs[a], float(dist)))

    def query(self, K: SimplicialComplex, p: Point, q: Point) -> float:
        """Dijkstra from p to q through the static graph of K."""
        n = len(self.points)
        src, dst = n, n + 1
        from_src: list[tuple[int, float]] = []
        to_dst: dict[int, float] = {}
        for i, node in enumerate(self.points):
            if (c := shared_carrier(K, p, node)) is not None:
                from_src.append((i, _l2_in_simplex(p, node, c)))
            if (c := shared_carrier(K, q, node)) is not None:
                to_dst[i] = _l2_in_simplex(q, node, c)
        if (c := shared_carrier(K, p, q)) is not None:
            from_src.append((dst, _l2_in_simplex(p, q, c)))

        dist = [INF] * (n + 2)
        dist[src] = 0.0
        heap = [(0.0, src)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u] + 1e-15:
                continue
            if u == dst:
                return d
            if u == src:
                edges = from_src
            else:
                edges = self.adj[u] + ([(dst, to_dst[u])] if u in to_dst else [])
            for v, w in edges:
                nd = d + w
                if nd < dist[v] - 1e-15:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        return dist[dst]


def _graph(K: SimplicialComplex, refinement: int) -> _MetricGraph:
    if refinement not in K._metric_graphs:
        K._metric_graphs[refinement] = _MetricGraph(K, refinement)
    return K._metric_graphs[refinement]


def distance(K: SimplicialComplex, p: Point, q: Point, refinement: int = 2) -> float:
    """Path-metric distance: exact when the points share a carrier simplex,
    otherwise a converging upper bound; +inf across connected components."""
    p = canonical(K, p)
    q = canonical(K, q)
    c = shared_carrier(K, p, q)
    if c is not None:
        return _l2_in_simplex(p, q, c)
    comp = _components_by_vertex(K)
    if comp[p.carrier.vertices[0]] != comp[q.carrier.vertices[0]]:
        return INF
    return _graph(K, refinement).query(K, p, q)


def _components_by_vertex(K: SimplicialComplex) -> dict[str, int]:
    if K._component_of is None:
        K._component_of = {v: i for i, comp in enumerate(K.components()) for v in comp}
    return K._component_of


# -- point-to-simplex distance (exact, via face enumeration) -------------------

def min_distance_to_simplex(c: np.ndarray, V: np.ndarray) -> float:
    """Exact min over the simplex conv(rows of V) of the l2 distance to c.

    Enumerates faces; on each face solves the equality-constrained least
    squares projection and keeps feasible candidates.  V is (k, d).
    """
    k = V.shape[0]
    best = INF
    for mask in range(1, 1 << k):
        idx = [i for i in range(k) if mask >> i & 1]
        W = V[idx]
        m = len(idx)
        G = 2.0 * W @ W.T
        A = np.zeros((m + 1, m + 1))
        A[:m, :m] = G
        A[:m, m] = 1.0
        A[m, :m] = 1.0
        rhs = np.concatenate([2.0 * W @ c, [1.0]])
        try:
            sol = np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError:
            sol, *_ = np.linalg.lstsq(A, rhs, rcond=None)
        lam = sol[:m]
        if np.any(lam < -1e-10):
            continue
        best = min(best, float(np.linalg.norm(c - lam @ W)))
    return best


# -- diam / rad / mesh / comesh -------------------------------------------------

@dataclass(frozen=True)
class MetricReport:
    diam: float
    rad: float


def _control_image(control, p: Point) -> Point:
    if control is None:
        return p
    return control(p)


def simplex_metrics(K: SimplicialComplex, s: Simplex, control=None, target: SimplicialComplex | None = None) -> MetricReport:
    """Diameter and radius of a simplex measured through a control map.

    ``control`` is None (identity) or a simplicial map applied pointwise; for
    simplicial control maps the image of the simplex spans a single target
    simplex, where sup/inf of the convex distance function are exact over
    vertex pairs / facet projections.
    """
    if s not in K.simplices:
        raise NotFoundError(f"simplex {s} not in complex")
    M = target if target is not None else K
    images = [_control_image(control, vertex_point(K, v)) for v in s.vertices]
    union = set()
    for im in images:
        union |= set(im.carrier.vertices)
    carrier = M.simplex(union)
    if carrier not in M.simplices:
        raise NotFoundError(f"control image of {s} spans no simplex")
    verts = carrier.vertices
    pts = np.array([_coords_over(im, verts) for im in images])

    diam = 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            diam = max(diam, float(np.linalg.norm(pts[i] - pts[j])))

    if s.dim == 0:
        rad = INF
    else:
        center = pts.mean(axis=0)  # image of the barycenter under the affine map
        rad = INF
        for facet_idx in itertools.combinations(range(len(pts)), len(pts) - 1):
            rad = min(rad, min_distance_to_simplex(center, pts[list(facet_idx)]))
    return MetricReport(diam=diam, rad=rad)


def mesh_comesh(K: SimplicialComplex, control=None, target: SimplicialComplex | None = None) -> tuple[float, float]:
    """(mesh, comesh): sup of diameters and inf of positive-dimensional radii."""
    mesh = 0.0
    comesh = INF
    for s in K.sorted_simplices():
        rep = simplex_metrics(K, s, control=control, target=target)
        mesh = max(mesh, rep.diam)
        if s.dim > 0:
            comesh = min(comesh, rep.rad)
    return mesh, comesh
