"""The open cone metric, the coning map, the control schedule along the cone
height, assembly of the bounded equivalence on the product with a line, and
slice extraction back to controlled data.

The height-t slice of the open cone carries t times the base metric (nothing
for t <= 0), so a family of inverses with control 1/t at height t assembles
into a bounded equivalence with bound sup_t t * alpha(t) = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .complexes import Point, SimplicialComplex
from .evaluators import Homotopy, PLEvaluator
from .homotopies import ControlledFamily, control_tracks, sample_points, sampled_sup
from .maps import SimplicialMap
from .metrics import distance


@dataclass(frozen=True)
class ConePoint:
    """A point of O(M+): base point and height; all heights <= 0 are one ray,
    kept with a None base as the canonical representative."""

    base: Point | None
    height: float

    def __post_init__(self):
        if self.height > 0 and self.base is None:
            raise ValueError("positive-height cone point needs a base point")


def coning_map(p: Point | None, t: float) -> ConePoint:
    if t <= 0.0:
        return ConePoint(base=None, height=t)
    return ConePoint(base=p, height=t)


def cone_distance(dM: Callable[[Point, Point], float], a: ConePoint, b: ConePoint) -> float:
    """max(min(t, s), 0) * d(m, m') + |t - s| for the shortest piecewise
    geodesic through slices and rays."""
    scale = max(min(a.height, b.height), 0.0)
    gap = abs(a.height - b.height)
    if scale == 0.0:
        return gap
    if a.base is None or b.base is None:
        raise ValueError("positive-height cone point without a base")
    return scale * dM(a.base, b.base) + gap


def complex_metric(K: SimplicialComplex, refinement: int = 2) -> Callable[[Point, Point], float]:
    return lambda p, q: distance(K, p, q, refinement=refinement)


def alpha_schedule(comesh: float, t: float) -> float:
    """Control available at cone height t: the full comesh below the knee at
    1/comesh, then 1/t."""
    if comesh <= 0.0:
        raise ValueError("comesh must be positive")
    if t <= 1.0 / comesh:
        return comesh
    return 1.0 / t


# -- assembly -------------------------------------------------------------------

def _slice_controls(
    family: ControlledFamily,
    eps: float,
    samples: int,
    seed: int,
    time_steps: int,
) -> dict[str, float]:
    """Measured controls of g, h1, h2 at one parameter value, shared between
    the assembly bound and slice extraction so the bound dominates by
    construction."""
    f = family.f
    g, h1, h2 = family.at(eps)
    pts_y = sample_points(f.target, samples, seed=seed, subdivision_rounds=1)
    pts_x = sample_points(f.source, samples, seed=seed + 1, subdivision_rounds=1)
    times = np.linspace(0.0, 1.0, time_steps)
    controls = {}
    for name, u, p, q, pts, ts in (
        ("g", g, None, f, pts_y, (0.0,)),
        ("h1", h1, f, f, pts_x, times),
        ("h2", h2, None, None, pts_y, times),
    ):
        M, tracks = control_tracks(u, p, q)
        controls[name] = sampled_sup(M, pts, ts, tracks)[0]
    return controls


@dataclass
class BoundedEquivalenceData:
    """g, h1, h2 on the product with the height line, with the measured bound."""

    f: SimplicialMap
    family: ControlledFamily
    bound: float
    t_grid: tuple[float, ...]
    window: tuple[float, float]
    samples: int
    seed: int
    time_steps: int
    per_eps: dict[float, dict[str, float]] = field(default_factory=dict)

    def alpha(self, t: float) -> float:
        return alpha_schedule(self.family.effective_comesh, t)

    def _eps_at(self, t: float) -> float:
        # The schedule attains comesh, but the cellulation is only defined
        # strictly below it (and degenerates numerically at the boundary when
        # an edge realizes the comesh), so evaluation backs off by 0.1%; the
        # assembled bound only improves from the backoff.
        return min(self.alpha(t), self.family.effective_comesh * (1.0 - 1e-3))

    def g(self, y: Point, t: float) -> tuple[Point, float]:
        gmap, _, _ = self.family.at(self._eps_at(t))
        return gmap(y), t

    def h1(self, x: Point, t: float, s: float) -> tuple[Point, float]:
        _, h1map, _ = self.family.at(self._eps_at(t))
        return h1map(x, s), t

    def h2(self, y: Point, t: float, s: float) -> tuple[Point, float]:
        _, _, h2map = self.family.at(self._eps_at(t))
        return h2map(y, s), t


def assemble_bounded_equivalence(
    f: SimplicialMap,
    family: ControlledFamily,
    *,
    t_grid: tuple[float, ...] | None = None,
    window: tuple[float, float] | None = None,
    samples: int = 60,
    seed: int = 0,
    time_steps: int = 17,
) -> BoundedEquivalenceData:
    """Slice-wise assembly along the control schedule; the measured bound is
    sup over grid heights of height times the slice control (heights <= 0
    contribute nothing since all maps preserve the height coordinate)."""
    cm = family.effective_comesh
    if window is None:
        window = (-5.0, 10.0 / cm)
    if t_grid is None:
        knee = 1.0 / cm
        highs = list(np.geomspace(knee, window[1], 8))
        t_grid = tuple(
            sorted(
                {window[0], -1.0, 0.0, 0.5 * knee, knee}
                | {2.0 / cm, 4.0 / cm, 8.0 / cm}
                | set(highs)
            )
        )
    data = BoundedEquivalenceData(
        f=f,
        family=family,
        bound=0.0,
        t_grid=tuple(t_grid),
        window=window,
        samples=samples,
        seed=seed,
        time_steps=time_steps,
    )
    bound = 0.0
    for t in t_grid:
        if t <= 0.0:
            continue
        eps = data._eps_at(t)
        key = round(eps, 15)
        if key not in data.per_eps:
            data.per_eps[key] = _slice_controls(family, eps, samples, seed, time_steps)
        m = max(data.per_eps[key].values())
        bound = max(bound, t * m)
    data.bound = bound
    return data


@dataclass(frozen=True)
class SliceEquivalence:
    height: float
    epsilon: float
    g: PLEvaluator
    h1: Homotopy
    h2: Homotopy
    controls: dict[str, float]
    control_estimate: float


def slice_equivalence(data: BoundedEquivalenceData, t: float) -> SliceEquivalence:
    """Project the assembled equivalence to one positive height; controls are
    measured in the unscaled target and compared against bound/height."""
    if t <= 0.0:
        raise ValueError(f"slice height must be positive, got {t}")
    eps = data._eps_at(t)
    key = round(eps, 15)
    if key not in data.per_eps:
        data.per_eps[key] = _slice_controls(
            data.family, eps, data.samples, data.seed, data.time_steps
        )
    g, h1, h2 = data.family.at(eps)
    return SliceEquivalence(
        height=t,
        epsilon=eps,
        g=g,
        h1=h1,
        h2=h2,
        controls=dict(data.per_eps[key]),
        control_estimate=data.bound / t,
    )
