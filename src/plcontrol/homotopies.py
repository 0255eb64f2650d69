"""The inductive gamma map on the flag cellulation of the target, the
one-parameter family of homotopy inverses it induces, control measurement,
approximate homotopy lifting and the fiber-contraction direction.

gamma assigns to every chain sigma_0 < ... < sigma_m a map from the chain's
barycenter simplex into the fiber over sigma_0-hat; flag-length-zero chains
get base points, longer chains get the cone extension of their boundary
assembly through the collapse-derived contraction of the fiber.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .cellulation import build_cellulation, comesh_of, straightline_homotopy
from .complexes import (
    MalformedInputError,
    Point,
    Simplex,
    SimplicialComplex,
    barycenter,
    canonical,
    make_point,
    subdivision_points,
)
from .contract import Verdict, contraction_from_collapse
from .evaluators import Homotopy, PLEvaluator
from .maps import (
    FiberComplex,
    JoinTrivialization,
    SimplicialMap,
    build_star_retraction,
    evaluate_map,
    fiber_over_barycenter,
)
from .metrics import distance, min_distance_to_simplex


class CannotConstructError(RuntimeError):
    """The controlled family needs every fiber contractible."""

    def __init__(self, sigma: Simplex, verdict: Verdict):
        self.sigma = sigma
        self.verdict = verdict
        super().__init__(
            f"fiber over the barycenter of {sigma} is {verdict.kind} ({verdict.reason}); "
            f"gamma cannot be constructed"
        )


class LiftMismatchError(ValueError):
    """The initial map does not sit over the homotopy's time-zero slice."""


@dataclass(frozen=True)
class ControlReport:
    """A measured control, the number of (point, time) pairs behind it and
    the first pair that attains it (time 0.0 for a map)."""

    epsilon_target: float | None
    measured_control: float
    samples: int
    witness: tuple[Point, float] | None

    def __str__(self) -> str:
        eps = "-" if self.epsilon_target is None else f"{self.epsilon_target:.9f}"
        return (
            f"control {self.measured_control:.9f} (target eps {eps}, "
            f"{self.samples} samples)"
        )


# -- the flag map gamma ----------------------------------------------------------

@dataclass
class FlagMap:
    """gamma: chi(Y) -> X, stored per chain, plus the product structure used
    to spread chain values over whole flag cells."""

    f: SimplicialMap
    trivialization: object
    fibers: dict[Simplex, FiberComplex]
    basepoints: dict[Simplex, Point]
    contractions: dict[Simplex, Homotopy]
    chain_overrides: dict[tuple[Simplex, ...], Callable[[np.ndarray], Point]] = field(
        default_factory=dict
    )

    def contract_in_fiber(self, sigma: Simplex, w: Point, time: float) -> Point:
        """Evaluate the fiber contraction at an arbitrary fiber point."""
        if time <= 0.0:
            return w
        fiber = self.fibers[sigma]
        labels, mu = fiber.locate(w)
        tri = fiber.triangulation
        p = make_point(tri, dict(zip(labels, mu)))
        q = self.contractions[sigma](p, time)
        return fiber.embed(q.carrier.vertices, q.coords)

    def gamma_chain(self, chain: tuple[Simplex, ...], t: np.ndarray) -> Point:
        """Value of gamma on the chain's barycenter simplex: a point of the
        fiber over the barycenter of chain[0]."""
        t = np.asarray(t, dtype=float)
        override = self.chain_overrides.get(chain)
        if override is not None:
            return override(t)
        if len(chain) == 1:
            return self.basepoints[chain[0]]
        n1 = len(chain)
        tmin = float(t.min())
        lam = 1.0 - n1 * tmin
        if lam <= 1e-12:
            return self.contract_in_fiber(chain[0], self.basepoints[chain[0]], 1.0)
        u = (t - tmin) / lam
        u = np.clip(u, 0.0, None)
        u /= u.sum()
        j0 = int(np.argmin(u))
        if j0 == 0:
            w = self.trivialization.project(self.gamma_chain(chain[1:], u[1:]), chain[0])
        else:
            sub = chain[:j0] + chain[j0 + 1 :]
            w = self.gamma_chain(sub, np.delete(u, j0))
        return self.contract_in_fiber(chain[0], w, 1.0 - lam)

    def eval_cell(self, chain: tuple[Simplex, ...], base: Simplex, s: np.ndarray, t: np.ndarray) -> Point:
        """Full gamma on the flag cell: spread the chain value over the base
        point with weights s through the product structure."""
        y = make_point(self.f.target, dict(zip(base.vertices, np.asarray(s, dtype=float))))
        z0 = self.gamma_chain(chain, t)
        return self.trivialization.join(z0, y)


def build_gamma_map(
    f: SimplicialMap,
    base_choices: dict[Simplex, Point] | None = None,
    chain_overrides: dict[tuple[Simplex, ...], Callable[[np.ndarray], Point]] | None = None,
    trivialization=None,
) -> FlagMap:
    """Construct gamma by induction on flag length; every fiber must be
    contractible, otherwise the failing simplex is reported."""
    fibers: dict[Simplex, FiberComplex] = {}
    basepoints: dict[Simplex, Point] = {}
    contractions: dict[Simplex, Homotopy] = {}
    for sigma in f.target.sorted_simplices():
        fiber = fiber_over_barycenter(f, sigma)
        fibers[sigma] = fiber
        verdict = fiber.verdict
        if not verdict.is_contractible:
            raise CannotConstructError(sigma, verdict)
        contractions[sigma] = contraction_from_collapse(fiber.triangulation, verdict.sequence)
        basepoints[sigma] = fiber.embedding[verdict.sequence.basepoint]
    # base points: collapse basepoints by default, overridable per simplex
    if base_choices:
        for sigma, pt in base_choices.items():
            img = evaluate_map(f, pt)
            bc = barycenter(f.target, sigma)
            if img.carrier != bc.carrier or any(
                abs(a - b) > 1e-9 for a, b in zip(img.coords, bc.coords)
            ):
                raise MalformedInputError(
                    f"base choice for {sigma} does not lie in the fiber over its barycenter"
                )
            basepoints[sigma] = pt
    return FlagMap(
        f=f,
        trivialization=trivialization if trivialization is not None else JoinTrivialization(f),
        fibers=fibers,
        basepoints=basepoints,
        contractions=contractions,
        chain_overrides=dict(chain_overrides) if chain_overrides else {},
    )


# -- the controlled family -------------------------------------------------------

def build_h2(f: SimplicialMap, eps: float) -> Homotopy:
    return straightline_homotopy(f.target, eps)


def build_inverse(f: SimplicialMap, eps: float, gamma: FlagMap) -> PLEvaluator:
    """g_eps = gamma after inverting the eps-subdivision cellulation of Y."""
    cel = build_cellulation(f.target, eps)

    def fn(y: Point) -> Point:
        cell, (s, t) = cel.invert(y)
        return gamma.eval_cell(cell.flag.chain, cell.flag.base, s, t)

    return PLEvaluator(
        domain=f.target,
        codomain=f.source,
        fn=fn,
        name=f"g_eps eps={eps}",
    )


def build_h1(f: SimplicialMap, eps: float, gamma: FlagMap) -> Homotopy:
    """h1 = (fiber-direction correction) after (id x h2 through the product
    structure); the first half carries the control, the second has none.

    One track splits x and inverts f(x) once: h1' (the first half), the end
    of h1' and g_eps(f(x)) (the second half's ends) all read that cell."""
    Y = f.target
    cel = build_cellulation(Y, eps)
    triv = gamma.trivialization

    def track_factory(x: Point):
        z, y = triv.split(x)
        cell, (s, t) = cel.invert(y)

        def hprime(u: float) -> Point:
            return triv.join(z, canonical(Y, cell.evaluate(eps * (1.0 - u), s, t)))

        second = None

        def at(time: float) -> Point:
            nonlocal second
            if time <= 0.5:
                return hprime(2.0 * time)
            if second is None:
                a = hprime(1.0)
                b = gamma.eval_cell(cell.flag.chain, cell.flag.base, s, t)
                second = (evaluate_map(f, a), triv.split(a)[0], triv.split(b)[0])
            ybar, w_a, w_b = second
            u = 2.0 * time - 1.0
            w, r = (w_a, 2.0 * u) if u <= 0.5 else (w_b, 2.0 - 2.0 * u)
            return triv.join(gamma.contract_in_fiber(ybar.carrier, w, r), ybar)

        return at

    return Homotopy(
        domain=f.source,
        codomain=f.source,
        fn=lambda x, t: track_factory(x)(t),
        name=f"h1 eps={eps}",
        track_factory=track_factory,
    )


@dataclass
class ControlledFamily:
    """The one-parameter family {g_eps, h1_eps, h2_eps} for a fixed gamma."""

    f: SimplicialMap
    gamma: FlagMap
    _cache: dict = field(default_factory=dict)

    @property
    def comesh(self) -> float:
        return comesh_of(self.f.target)

    @property
    def effective_comesh(self) -> float:
        """The comesh, with the 0-dimensional-target case (no positive
        radius anywhere, comesh infinite) capped at 1 so schedules stay finite."""
        cm = self.comesh
        return cm if math.isfinite(cm) else 1.0

    def at(self, eps: float) -> tuple[PLEvaluator, Homotopy, Homotopy]:
        if not (0.0 < eps < self.comesh):
            raise ValueError(f"eps={eps} outside (0, comesh={self.comesh})")
        key = round(eps, 15)
        if key not in self._cache:
            self._cache[key] = (
                build_inverse(self.f, eps, self.gamma),
                build_h1(self.f, eps, self.gamma),
                build_h2(self.f, eps),
            )
        return self._cache[key]


def build_family(f: SimplicialMap, **gamma_kwargs) -> ControlledFamily:
    return ControlledFamily(f=f, gamma=build_gamma_map(f, **gamma_kwargs))


@dataclass
class TrivialFamily:
    """The zero-control family of an identity map: inverse the identity,
    homotopies constant.  Interchangeable with a constructed family wherever
    only (f, comesh, at) are consumed."""

    K: SimplicialComplex

    @property
    def f(self) -> SimplicialMap:
        from .maps import identity_map

        return identity_map(self.K)

    @property
    def comesh(self) -> float:
        return comesh_of(self.K)

    @property
    def effective_comesh(self) -> float:
        cm = self.comesh
        return cm if math.isfinite(cm) else 1.0

    def at(self, eps: float):
        ident = PLEvaluator(domain=self.K, codomain=self.K, fn=lambda p: p, name="id")
        const = Homotopy(domain=self.K, codomain=self.K, fn=lambda p, t: p, name="constant")
        return ident, const, const


def epsilon_schedule(K: SimplicialComplex, steps: int = 5) -> list[float]:
    """The geometric test grid comesh/2, comesh/4, ... (a unit base when the
    complex has no positive-dimensional simplices)."""
    cm = comesh_of(K)
    if not math.isfinite(cm):
        cm = 1.0
    return [cm / 2**i for i in range(1, steps + 1)]


# -- control measurement -----------------------------------------------------------

def _control_fn(control, K: SimplicialComplex):
    if control is None:
        return (lambda p: p), K
    if isinstance(control, SimplicialMap):
        return (lambda p: evaluate_map(control, p)), control.target
    raise MalformedInputError("control map must be None (identity) or a SimplicialMap")


def sample_points(K: SimplicialComplex, samples: int, seed: int = 0, subdivision_rounds: int = 1) -> list[Point]:
    """Vertices of the r-fold subdivision plus uniformly drawn points of
    maximal simplices."""
    pts = subdivision_points(K, subdivision_rounds)
    rng = np.random.default_rng(seed)
    maxs = K.maximal_simplices()
    for _ in range(samples):
        s = maxs[int(rng.integers(len(maxs)))]
        w = rng.dirichlet(np.ones(len(s.vertices)))
        pts.append(canonical(K, Point(s, tuple(w))))
    return pts


def sampled_sup(
    M: SimplicialComplex,
    points,
    times,
    tracks: Callable[[object], tuple[Callable[[float], Point], Callable[[float], Point]]],
    *,
    refinement: int = 2,
) -> tuple[float, tuple[object, float] | None, int]:
    """(sup, witness, pairs): the sup of d_M(a(t), b(t)) over each sample z,
    with (a, b) = tracks(z), and each t in ``times``; the first (z, t) in
    sample order that attains it (None when nothing is sampled); and the
    number of pairs evaluated.  ``tracks`` runs once per sample, so per-point
    setup such as a cellulation inversion belongs there."""
    worst, witness, count = 0.0, None, 0
    for z in points:
        a, b = tracks(z)
        for t in times:
            t = float(t)
            d = distance(M, a(t), b(t), refinement=refinement)
            count += 1
            if witness is None or d > worst:
                worst, witness = d, (z, t)
    return worst, witness, count


def control_tracks(u, p: SimplicialMap | None, q: SimplicialMap | None):
    """The metric complex M and z -> (the constant p(z), t -> q(u(z, t))),
    whose sampled sup is the control of u measured through p and q (None is
    the identity; a map counts as a homotopy constant in t)."""
    pfn, M1 = _control_fn(p, u.domain)
    qfn, M2 = _control_fn(q, u.codomain)
    if M1 is not M2:
        raise MalformedInputError("control maps must land in one metric complex")
    track = u.track if isinstance(u, Homotopy) else (lambda z: lambda t: u(z))

    def tracks(z: Point):
        anchor = pfn(z)
        tr = track(z)
        return (lambda t: anchor), (lambda t: qfn(tr(t)))

    return M1, tracks


def measure_control(
    u,
    p: SimplicialMap | None = None,
    q: SimplicialMap | None = None,
    *,
    samples: int = 300,
    seed: int = 0,
    subdivision_rounds: int = 1,
    time_steps: int = 33,
    refinement: int = 2,
    epsilon_target: float | None = None,
) -> ControlReport:
    """Sup over the sample set of d_M(p(z), q(u(z))), homotopies sampled at
    ``time_steps`` times per spatial sample (tracks reuse per-point setup),
    with the witness (z, t) that attains it."""
    M, tracks = control_tracks(u, p, q)
    pts = sample_points(u.domain, samples, seed=seed, subdivision_rounds=subdivision_rounds)
    times = np.linspace(0.0, 1.0, time_steps) if isinstance(u, Homotopy) else (0.0,)
    sup, witness, count = sampled_sup(M, pts, times, tracks, refinement=refinement)
    return ControlReport(
        epsilon_target=epsilon_target,
        measured_control=sup,
        samples=count,
        witness=witness,
    )


# -- approximate homotopy lifting ----------------------------------------------------

def approximate_lift(
    f: SimplicialMap,
    family: ControlledFamily,
    H: Homotopy,
    h: PLEvaluator,
    eps: float,
    *,
    samples: int = 60,
    seed: int = 0,
) -> Homotopy:
    """A lift of H through f up to eps: start at h, run the controlled track
    of h down to g_delta(H(.,0)) inside a short initial interval, then follow
    g_delta composed with H (delta = eps/2).  The initial interval is sized
    from the sampled time modulus of H so both phases stay within eps."""
    delta = eps / 2.0
    pts = sample_points(H.domain, min(samples, 40), seed=seed, subdivision_rounds=0)
    d0, witness, _ = sampled_sup(
        f.target, pts[:25], (0.0,), lambda z: (lambda t: evaluate_map(f, h(z)), lambda t: H(z, t))
    )
    if d0 > 1e-7:
        raise LiftMismatchError(f"f(h(z)) differs from H(z, 0) by {d0:.3e} at z = {witness[0]}")
    # sampled time-Lipschitz bound of H
    lip = 1e-9
    times = np.linspace(0.0, 1.0, 17)
    for z in pts:
        tr = H.track(z)
        vals = [tr(float(t)) for t in times]
        for a, b, dt in zip(vals, vals[1:], np.diff(times)):
            lip = max(lip, distance(f.target, a, b) / float(dt))
    r = 0.5 * (eps - delta) / lip
    eta = min(0.5, r / (1.0 + r))
    g, h1, _ = family.at(delta)

    def track_factory(z: Point):
        x0 = h(z)
        tr_h1 = h1.track(x0)
        tr_H = H.track(z)

        def at(t: float) -> Point:
            if t <= eta:
                return tr_h1(t / eta if eta > 0 else 1.0)
            return g(tr_H((t - eta) / (1.0 - eta)))

        return at

    return Homotopy(
        domain=H.domain,
        codomain=f.source,
        fn=lambda z, t: track_factory(z)(t),
        name=f"approximate lift eps={eps}",
        track_factory=track_factory,
    )


def lift_discrepancy(
    f: SimplicialMap,
    H: Homotopy,
    lifted: Homotopy,
    *,
    samples: int = 60,
    seed: int = 0,
    time_steps: int = 33,
) -> float:
    """sup over samples of d_Y(H(z,t), f(lifted(z,t)))."""
    pts = sample_points(H.domain, samples, seed=seed, subdivision_rounds=0)

    def tracks(z: Point):
        trH, trL = H.track(z), lifted.track(z)
        return trH, (lambda t: evaluate_map(f, trL(t)))

    return sampled_sup(f.target, pts, np.linspace(0.0, 1.0, time_steps), tracks)[0]


# -- fiber contraction from the controlled family ------------------------------------

def star_clearance(K: SimplicialComplex, y: Point) -> float:
    """Distance from y to the part of the complex outside the open star of
    its carrier (exact: minimized over the rim faces of incident simplices)."""
    y = canonical(K, y)
    sigma = y.carrier
    best = math.inf
    for tau in K.sorted_simplices():
        if not sigma <= tau:
            continue
        verts = tau.vertices
        yv = np.zeros(len(verts))
        for v, c in zip(y.carrier.vertices, y.coords):
            yv[verts.index(v)] = c
        eye = np.eye(len(verts))
        for rho in tau.facets():
            if sigma <= rho:
                continue
            rows = [verts.index(v) for v in rho.vertices]
            best = min(best, min_distance_to_simplex(yv, eye[rows]))
    return best


def derive_contraction(f: SimplicialMap, y: Point, family: ControlledFamily) -> Homotopy:
    """Contraction of f^{-1}(y): run h1 at a control small enough that all
    f-tracks stay inside the star of y's carrier, retract the star preimage
    onto the open-cell preimage, and project the product to the y slice."""
    Y = f.target
    y = canonical(Y, y)
    sigma = y.carrier
    clearance = star_clearance(Y, y)
    eps_used = min(0.9 * clearance, 0.9 * family.comesh)
    if not (eps_used > 0.0 and math.isfinite(eps_used)):
        raise ValueError(f"no valid control radius at {y} (clearance {clearance})")
    g, h1, _ = family.at(eps_used)
    retraction = build_star_retraction(f, sigma)
    triv = family.gamma.trivialization

    def project_to_slice(x: Point) -> Point:
        w, _ = triv.split(x)
        return triv.join(w, y)

    def track_factory(x: Point):
        tr = h1.track(x)

        def at(t: float) -> Point:
            return project_to_slice(retraction.fn(tr(t), 1.0))

        return at

    return Homotopy(
        domain=f.source,
        codomain=f.source,
        fn=lambda x, t: track_factory(x)(t),
        name=f"contraction of the fiber over {y}",
        track_factory=track_factory,
    )
