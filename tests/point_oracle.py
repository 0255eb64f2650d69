"""The point kernel that the interned carrier table replaced, kept as an
oracle for differential tests: `SimplicialComplex.simplex` and
`contains_labels` (as functions of K), `make_point`, `canonical`,
`metrics.shared_carrier`, `metrics._l2_in_simplex` and the Steiner-graph
`metrics._MetricGraph.query`.  Bodies are unchanged;
calls between them go to the oracle versions, and every point is built
through the validating `Point` constructor.  The query's calls of the
method `K.contains_labels`, which left `src/`, call it in `helpers`."""

from __future__ import annotations

import heapq
from typing import Iterable, Mapping

import numpy as np

from plcontrol.complexes import (
    TOL,
    MalformedInputError,
    NotFoundError,
    Point,
    Simplex,
    SimplicialComplex,
)
from plcontrol.metrics import INF, _coords_over
import helpers


def simplex(self: SimplicialComplex, labels: Iterable[str]) -> Simplex:
    """Canonical simplex on the given labels (sorted by vertex order)."""
    labels = tuple(labels)
    for v in labels:
        if v not in self._index:
            raise NotFoundError(f"vertex {v!r} not in complex")
    return Simplex(tuple(sorted(labels, key=self._index.__getitem__)))


def contains_labels(self: SimplicialComplex, labels: Iterable[str]) -> bool:
    labels = tuple(labels)
    if any(v not in self._index for v in labels):
        return False
    return simplex(self, labels) in self._simplices


def make_point(K: SimplicialComplex, weights: Mapping[str, float], tol: float = TOL) -> Point:
    """Canonical point from a vertex-weight mapping (zeros dropped, renormalized)."""
    items = [(v, w) for v, w in weights.items() if w > tol]
    if not items:
        raise MalformedInputError("point with empty support")
    items.sort(key=lambda kv: K.vertex_index(kv[0]))
    total = sum(w for _, w in items)
    if abs(total - 1.0) > 1e-7:
        raise MalformedInputError(f"weights sum to {total}, not 1")
    carrier = simplex(K, [v for v, _ in items])
    if carrier not in K.simplices:
        raise NotFoundError(f"support {carrier} spans no simplex of the complex")
    return Point(carrier, tuple(w / total for _, w in items))


def canonical(K: SimplicialComplex, p: Point, tol: float = TOL) -> Point:
    """Drop (near-)zero coordinates so the carrier is minimal."""
    if all(c > tol for c in p.coords):
        if p.carrier not in K.simplices:
            raise NotFoundError(f"carrier {p.carrier} not in complex")
        total = sum(p.coords)
        if abs(total - 1.0) > 1e-12:
            return Point(p.carrier, tuple(c / total for c in p.coords))
        return p
    return make_point(K, p.as_dict(), tol=tol)


def shared_carrier(K: SimplicialComplex, p: Point, q: Point) -> Simplex | None:
    union = set(p.carrier.vertices) | set(q.carrier.vertices)
    if not contains_labels(K, union):
        return None
    return simplex(K, union)


def _l2_in_simplex(p: Point, q: Point, carrier: Simplex) -> float:
    verts = carrier.vertices
    return float(np.linalg.norm(_coords_over(p, verts) - _coords_over(q, verts)))


def query(self, K: SimplicialComplex, p: Point, q: Point) -> float:
    """`metrics._MetricGraph.query` (self is the graph): Dijkstra from p to q
    through the static graph of K."""
    extra = [p, q]
    links: list[list[tuple[int, float]]] = [[], []]
    for e, x in enumerate(extra):
        for i, node in enumerate(self.points):
            union = set(x.carrier.vertices) | set(node.carrier.vertices)
            if helpers.contains_labels(K, union):
                c = K.simplex(union)
                links[e].append((i, _l2_in_simplex(x, node, c)))
    direct = None
    union = set(p.carrier.vertices) | set(q.carrier.vertices)
    if helpers.contains_labels(K, union):
        direct = _l2_in_simplex(p, q, K.simplex(union))

    n = len(self.points)
    dist = [INF] * (n + 2)
    src, dst = n, n + 1
    dist[src] = 0.0
    heap = [(0.0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u] + 1e-15:
            continue
        if u == dst:
            return d
        if u == src:
            edges = [(i, w) for i, w in links[0]]
            if direct is not None:
                edges.append((dst, direct))
        else:
            edges = list(self.adj[u])
            for i, w in links[1]:
                if i == u:
                    edges.append((dst, w))
        for v, w in edges:
            nd = d + w
            if nd < dist[v] - 1e-15:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist[dst]
