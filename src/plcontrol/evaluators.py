"""Composable point-to-point map and homotopy representations.

Maps built by the controlled constructions are not kept simplicial (cone
extensions would force unbounded subdivision); they are point evaluators, and
all control claims are certified by sampled sups: a table of per-point sups
over a time grid, filled once per distinct point and folded in sample order
(`homotopies.sampled_sup`, and the array rows of g, h1 and h2).

A homotopy is its tracks: ``track_factory(z)`` does the per-point setup
(a cellulation inversion, a fiber location, a chain of collapse squashes)
once and returns t -> H(z, t), so sampling many times per point stays cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .complexes import Point, SimplicialComplex


@dataclass
class PLEvaluator:
    """A total, deterministic point map between complexes."""

    domain: SimplicialComplex
    codomain: SimplicialComplex
    fn: Callable[[Point], Point]

    def __call__(self, p: Point) -> Point:
        return self.fn(p)


@dataclass
class Homotopy:
    """A map Z x I -> W, given by its tracks: ``track_factory(z)`` returns
    the callable t -> H(z, t)."""

    domain: SimplicialComplex
    codomain: SimplicialComplex
    track_factory: Callable[[Point], Callable[[float], Point]]

    def __call__(self, p: Point, t: float) -> Point:
        return self.track_factory(p)(t)

    def track(self, p: Point) -> Callable[[float], Point]:
        return self.track_factory(p)


def concatenate(first: Homotopy, second: Homotopy) -> Homotopy:
    """Run ``first`` on [0, 1/2] and ``second`` on [1/2, 1]."""

    def track_factory(p: Point):
        tr1 = first.track(p)
        tr2 = None

        def tr(t: float) -> Point:
            nonlocal tr2
            if t <= 0.5:
                return tr1(2.0 * t)
            if tr2 is None:
                tr2 = second.track(p)
            return tr2(2.0 * t - 1.0)

        return tr

    return Homotopy(
        domain=first.domain,
        codomain=second.codomain,
        track_factory=track_factory,
    )
