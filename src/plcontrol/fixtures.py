"""Shared fixtures: the small disc/circle/sphere complexes, the collapse and
bad test maps, and the two-triangle projection example with its explicit
section choices.

The projection fixture also carries a geometric product structure: its fibers
are monotone segments in the third coordinate, so constant-height sections
trivialize every fiber.  The explicit section values from the worked example
are stated in those height coordinates.

Each fixture map and complex is built once per process (``functools.cache``),
so what its complexes keep lives for the life of the process too: the flag
cells, the cellulations, the metric graphs and each inverted point's
fitting list (``K._fits``).  Work counted on a fixture therefore depends on
what ran before it, so a test that counts work runs on fresh copies of the
fixture's complexes.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .complexes import (
    MalformedInputError,
    Point,
    Simplex,
    SimplicialComplex,
    barycenter,
    closure_complex,
    combine_points,
)
from .homotopies import build_family
from .maps import SimplicialMap, evaluate_map, fiber_join, fiber_over_barycenter


@functools.cache
def d1() -> SimplicialComplex:
    return closure_complex([("a", "b")])


@functools.cache
def d2() -> SimplicialComplex:
    return closure_complex([("a", "b", "c")])


@functools.cache
def bd2() -> SimplicialComplex:
    return closure_complex([("a", "b"), ("b", "c"), ("c", "a")])


@functools.cache
def cone_bd2() -> SimplicialComplex:
    return closure_complex([("a", "b", "x"), ("b", "c", "x"), ("c", "a", "x")])


@functools.cache
def sphere2() -> SimplicialComplex:
    return closure_complex([("a", "b", "c"), ("a", "b", "d"), ("a", "c", "d"), ("b", "c", "d")])


@functools.cache
def map_collapse() -> SimplicialMap:
    return SimplicialMap(d2(), d1(), {"a": "a", "b": "b", "c": "b"})


@functools.cache
def map_bad() -> SimplicialMap:
    return SimplicialMap(bd2(), d1(), {"a": "a", "b": "b", "c": "a"})


@functools.cache
def inclusion_d1_d2() -> SimplicialMap:
    return SimplicialMap(d1(), d2(), {"a": "a", "b": "b"})


D2_POSITIONS = {"a": (0.0, 0.0), "b": (1.0, 0.0), "c": (0.5, math.sqrt(3.0) / 2.0)}


# -- the projection example ------------------------------------------------------

PROJ_COORDS = {
    "0": (0.0, 0.0, 0.0),
    "e1": (1.0, 0.0, 0.0),
    "e2": (0.0, 1.0, 0.0),
    "e3": (0.0, 0.0, 1.0),
    "e1+e2": (1.0, 1.0, 0.0),
    "e2+e3": (0.0, 1.0, 1.0),
    "e1+e2+e3": (1.0, 1.0, 1.0),
}

PROJ_Y_POSITIONS = {"0": (0.0, 0.0), "e1": (1.0, 0.0), "e2": (0.0, 1.0), "e1+e2": (1.0, 1.0)}


@functools.cache
def proj_X() -> SimplicialComplex:
    return closure_complex(
        [
            ("0", "e1", "e1+e2"),
            ("e3", "e2+e3", "e1+e2+e3"),
            ("0", "e3", "e1+e2+e3"),
            ("0", "e1+e2", "e1+e2+e3"),
        ]
    )


@functools.cache
def proj_Y() -> SimplicialComplex:
    return closure_complex([("0", "e1", "e1+e2"), ("0", "e2", "e1+e2")])


@functools.cache
def proj_map() -> SimplicialMap:
    drop_z = {v: (x, y, 0.0) for v, (x, y, z) in PROJ_COORDS.items()}
    inverse = {coord: v for v, coord in PROJ_COORDS.items() if coord[2] == 0.0}
    return SimplicialMap(proj_X(), proj_Y(), {v: inverse[drop_z[v]] for v in proj_X().vertex_order})


def proj_height(p: Point) -> float:
    return sum(c * PROJ_COORDS[v][2] for v, c in zip(p.carrier.vertices, p.coords))


class HeightTrivialization:
    """Product structure by constant-height sections for maps whose fibers
    are strictly height-monotone paths (as in the projection example)."""

    def __init__(self, f: SimplicialMap, height):
        self.f = f
        self.height = height
        self._paths: dict = {}

    def _fiber_path(self, sigma: Simplex, y: Point) -> list[tuple[float, Point]]:
        key = (sigma, y.carrier.vertices, y.coords)
        if key in self._paths:
            return self._paths[key]
        fiber = fiber_over_barycenter(self.f, sigma)
        pts = [fiber_join(self.f, p, y) for p in fiber.embedding.values()]
        path = sorted(((self.height(p), p) for p in pts), key=lambda hp: hp[0])
        for (h1, _), (h2, _) in zip(path, path[1:]):
            if not h2 - h1 > 1e-12:
                raise MalformedInputError(f"height trivialization needs strictly monotone fibers; the fiber over {y} is not")
        self._paths[key] = path
        return path

    def _walk(self, path: list[tuple[float, Point]], h: float) -> Point:
        if len(path) == 1:
            return path[0][1]
        h = min(max(h, path[0][0]), path[-1][0])
        for (h1, p1), (h2, p2) in zip(path, path[1:]):
            if h <= h2:
                lam = (h - h1) / (h2 - h1)
                return combine_points(self.f.source, [(1.0 - lam, p1), (lam, p2)])
        return path[-1][1]

    def split(self, x: Point) -> tuple[Point, Point]:
        y = evaluate_map(self.f, x)
        hat = self._fiber_path(y.carrier, barycenter(self.f.target, y.carrier))
        return self._walk(hat, self.height(x)), y

    def join(self, z: Point, y: Point) -> Point:
        # constant-height section through z, clamped into the fiber over y
        return self._walk(self._fiber_path(y.carrier, y), self.height(z))

    def project(self, z: Point, tau: Simplex) -> Point:
        return self.join(z, barycenter(self.f.target, tau))


@functools.cache
def proj_trivialization() -> HeightTrivialization:
    return HeightTrivialization(proj_map(), proj_height)


def proj_fiber_point(sigma: Simplex, h: float) -> Point:
    """The fiber point over the barycenter of sigma at the given height."""
    triv = proj_trivialization()
    path = triv._fiber_path(sigma, barycenter(proj_Y(), sigma))
    return triv._walk(path, h)


def proj_base_choices() -> dict[Simplex, Point]:
    """Section values 0 / 1/2 / 1 by position relative to the shared edge
    (forced values elsewhere arise by themselves; only the segment fibers
    need a choice, all set to height 1/2)."""
    Y = proj_Y()
    shared = [Y.simplex(["0"]), Y.simplex(["e1+e2"]), Y.simplex(["0", "e1+e2"])]
    return {sigma: proj_fiber_point(sigma, 0.5) for sigma in shared}


def proj_chain_overrides():
    """The explicit extension formulas of the worked example, as height values
    over the chain coordinates (t0 on the shortest chain element)."""
    Y = proj_Y()
    rho = Y.simplex(["0", "e1+e2"])
    s1 = Y.simplex(["0", "e1", "e1+e2"])
    s2 = Y.simplex(["0", "e2", "e1+e2"])
    overrides = {}

    def put(chain, height_fn):
        overrides[tuple(chain)] = lambda t, c=chain[0], fn=height_fn: proj_fiber_point(
            c, fn(np.asarray(t, dtype=float))
        )

    put((rho, s1), lambda t: 0.5 * t[0])
    put((rho, s2), lambda t: 0.5 * t[0] + t[1])
    for vlabel in ("0", "e1+e2"):
        v = Y.simplex([vlabel])
        put((v, rho, s1), lambda t: 0.5 * t[0] + 0.5 * t[1])
        put((v, rho, s2), lambda t: 0.5 * t[0] + 0.5 * t[1] + t[2])
        # closures of the explicit choices on the remaining shared-region chains
        put((v, rho), lambda t: 0.5)
        put((v, s1), lambda t: 0.5 * t[0])
        put((v, s2), lambda t: 0.5 * t[0] + t[1])
    return overrides


def proj_explicit_family():
    """The controlled family with the worked example's explicit choices."""
    return build_family(
        proj_map(),
        base_choices=proj_base_choices(),
        chain_overrides=proj_chain_overrides(),
        trivialization=proj_trivialization(),
    )
