"""Composable point-to-point map and homotopy representations.

Maps built by the controlled constructions are not kept simplicial (cone
extensions would force unbounded subdivision); they are point evaluators, and
all control claims are certified by sampled sups (`homotopies.sampled_sup`).
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
    name: str = "map"

    def __call__(self, p: Point) -> Point:
        return self.fn(p)


@dataclass
class Homotopy:
    """A map Z x I -> W, with optional per-point track caching.

    ``track_factory(z)`` returns a callable t -> point; constructions that
    need an expensive per-point setup (e.g. a cellulation inversion) override
    it so that sampling many time steps per point stays cheap.
    """

    domain: SimplicialComplex
    codomain: SimplicialComplex
    fn: Callable[[Point, float], Point]
    name: str = "homotopy"
    track_factory: Callable[[Point], Callable[[float], Point]] | None = None

    def __call__(self, p: Point, t: float) -> Point:
        return self.fn(p, t)

    def track(self, p: Point) -> Callable[[float], Point]:
        if self.track_factory is not None:
            return self.track_factory(p)
        return lambda t: self.fn(p, t)

    def at(self, t: float, name: str | None = None) -> PLEvaluator:
        """Time slice as a plain evaluator."""
        return PLEvaluator(
            domain=self.domain,
            codomain=self.codomain,
            fn=lambda p: self.fn(p, t),
            name=name or f"{self.name}@t={t}",
        )


def concatenate(first: Homotopy, second: Homotopy, name: str = "concatenation") -> Homotopy:
    """Run ``first`` on [0, 1/2] and ``second`` on [1/2, 1]."""

    def fn(p: Point, t: float) -> Point:
        if t <= 0.5:
            return first.fn(p, 2.0 * t)
        return second.fn(p, 2.0 * t - 1.0)

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
        fn=fn,
        name=name,
        track_factory=track_factory,
    )
