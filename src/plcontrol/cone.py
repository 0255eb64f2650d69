"""The open cone metric, the coning map, the control schedule along the cone
height, assembly of the bounded equivalence on the product with a line, and
slice extraction back to controlled data.

The height-t slice of the open cone carries t times the base metric (nothing
for t <= 0), so a family of inverses with control 1/t at height t assembles
into a bounded equivalence with bound sup_t t * alpha(t) = 1.

The controls behind the measured bound are ``homotopies.family_controls`` at
the eps of each height of a fixed grid of positive heights around the
schedule's knee 1/comesh, read by ``BoundedEquivalenceData.controls_at`` on
sample sets drawn once per data object.  The grid holds the heights
``SLICE_MULTIPLES`` times the knee, where ``verify.run_verify`` takes its
slices, and the schedule gives them exactly the control table's comesh/2,
comesh/4 and comesh/8.  The family's one per-point memo, keyed by the exact
eps like every cache of the package, serves them: points the control table
already measured at an eps are not measured again, and
``slice_equivalence`` reads the same numbers, so the bound dominates every
slice by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .complexes import MalformedInputError, Point, SimplicialComplex, _check_nonnegative
from .evaluators import Homotopy, PLEvaluator
from .homotopies import ControlledFamily, family_controls, sample_points
from .maps import SimplicialMap
from .metrics import distance

# Time samples per homotopy track in every control the assembly measures; the
# control table of ``verify.run_verify`` samples the same grid.
TIME_STEPS = 17

# The slice heights, as multiples of the knee 1/comesh, that the assembly grid
# holds and ``verify.run_verify`` checks.
SLICE_MULTIPLES = (2, 4, 8)


@dataclass(frozen=True)
class ConePoint:
    """A point of O(M+): base point and height; all heights <= 0 are one ray,
    kept with a None base as the canonical representative."""

    base: Point | None
    height: float

    def __post_init__(self):
        if not self.height <= 0 and self.base is None:  # NaN needs a base too
            raise ValueError("positive-height cone point needs a base point")


def coning_map(p: Point | None, t: float) -> ConePoint:
    if not math.isfinite(t):
        raise MalformedInputError(f"cone height must be finite, got {t}")
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
    return scale * dM(a.base, b.base) + gap


def complex_metric(K: SimplicialComplex, refinement: int = 2) -> Callable[[Point, Point], float]:
    """d_K with the Steiner graph of the given refinement (>= 0; a negative
    one would build the graph with no lattice points)."""
    _check_nonnegative(refinement=refinement)
    return lambda p, q: distance(K, p, q, refinement=refinement)


def alpha_schedule(comesh: float, t: float) -> float:
    """Control available at cone height t: the full comesh below the knee at
    1/comesh, then 1/t, computed as comesh over t's ratio to the knee.  At
    a power-of-two multiple k of the knee (t = k / comesh) that ratio is
    exactly k, so the control is exactly comesh / k: at the slice heights,
    the control table's own eps.  A height that is not finite has no
    control: NaN would read as an eps, +inf as eps 0 and -inf as a height
    below the knee."""
    if not (comesh > 0.0 and math.isfinite(comesh)):
        raise MalformedInputError(f"comesh must be positive and finite, got {comesh}")
    if not math.isfinite(t):
        raise MalformedInputError(f"cone height must be finite, got {t}")
    knee = 1.0 / comesh
    if t <= knee:
        return comesh
    return comesh / (t / knee)


# -- assembly -------------------------------------------------------------------

@dataclass
class BoundedEquivalenceData:
    """g, h1, h2 on the product with the height line, with the measured bound.

    ``controls_at`` draws its sample sets once per data object and reads
    per-point sups from the family's memo (one entry per point, row and
    exact eps), so a repeated eps costs only lookups and the assembly bound
    and every slice read the same numbers."""

    f: SimplicialMap
    family: ControlledFamily
    bound: float
    t_grid: tuple[float, ...]
    samples: int
    seed: int
    time_steps: int
    _samples: tuple[list[Point], list[Point]] | None = field(default=None, init=False, repr=False)

    def controls_at(self, eps: float) -> dict[str, float]:
        """Measured controls of g, h1, h2 at eps on Y (``samples`` points,
        ``seed``) and X (``samples`` points, ``seed + 1``)."""
        if self._samples is None:
            f = self.family.f
            self._samples = (
                sample_points(f.target, self.samples, seed=self.seed),
                sample_points(f.source, self.samples, seed=self.seed + 1),
            )
        times = np.linspace(0.0, 1.0, self.time_steps)
        reports = family_controls(self.family, eps, *self._samples, times)
        return {name: r.measured_control for name, r in reports.items()}

    def _eps_at(self, t: float) -> float:
        # The schedule attains comesh, but the cellulation is only defined
        # strictly below it (and degenerates numerically at the boundary when
        # an edge realizes the comesh), so evaluation backs off by 0.1%; the
        # assembled bound only improves from the backoff.
        cm = self.family.effective_comesh
        return min(alpha_schedule(cm, t), cm * (1.0 - 1e-3))

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
    samples: int = 60,
    seed: int = 0,
    time_steps: int = TIME_STEPS,
) -> BoundedEquivalenceData:
    """Slice-wise assembly along the control schedule; the measured bound is
    sup over grid heights of height times the slice control.  The grid is
    half the knee 1/comesh, the knee, ``SLICE_MULTIPLES`` times it, and 8
    geometric steps from the knee to 10 times it; heights <= 0 contribute
    nothing, since all maps preserve the height coordinate, so none is
    sampled."""
    _check_nonnegative(time_steps=time_steps)
    cm = family.effective_comesh
    knee = 1.0 / cm
    slices = {k / cm for k in SLICE_MULTIPLES}
    t_grid = tuple(sorted({0.5 * knee, knee} | slices | set(np.geomspace(knee, 10.0 / cm, 8))))
    data = BoundedEquivalenceData(
        f=f,
        family=family,
        bound=0.0,
        t_grid=t_grid,
        samples=samples,
        seed=seed,
        time_steps=time_steps,
    )
    bound = 0.0
    for t in t_grid:
        bound = max(bound, t * max(data.controls_at(data._eps_at(t)).values()))
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
    if not (t > 0.0 and math.isfinite(t)):
        raise ValueError(f"slice height must be positive and finite, got {t}")
    eps = data._eps_at(t)
    g, h1, h2 = data.family.at(eps)
    return SliceEquivalence(
        height=t,
        epsilon=eps,
        g=g,
        h1=h1,
        h2=h2,
        controls=dict(data.controls_at(eps)),
        control_estimate=data.bound / t,
    )
