"""The end-to-end verification pipeline: fiber verdicts, product
certificates, the controlled family with its control table, bounded assembly
and slice round trips, folded into one deterministic report.

When some fiber is refuted the pipeline switches to the contrapositive: it
records that the family construction refuses, names the failing simplices and
reports the star-radius obstruction, as evidence rather than proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cellulation import _check_eps, comesh_of
from .complexes import MalformedInputError, Simplex, _check_nonnegative
from .cone import SLICE_MULTIPLES, TIME_STEPS, assemble_bounded_equivalence, slice_equivalence
from .contract import Verdict
from .homotopies import (
    CannotConstructError,
    _family_controls,
    _fold,
    build_family,
    epsilon_schedule,
    sample_points,
    sampled_sup,
)
from .maps import (
    SimplicialMap,
    fiber_over_barycenter,
    surjectivity_check,
    validate_map,
    verify_product_decomposition,
)
from .metrics import simplex_metrics

THEOREM_CONSISTENT = "TheoremConsistent"
COUNTEREXAMPLE = "CounterexampleToImplementation"
UNKNOWN = "Unknown"


@dataclass
class ControlRow:
    eps: float
    g: float
    h1: float
    h2: float
    tolerance: float

    @property
    def ok(self) -> bool:
        bound = self.eps * (1.0 + self.tolerance)
        return self.g <= bound and self.h1 <= bound and self.h2 <= bound


@dataclass
class SliceRow:
    height: float
    control: float
    estimate: float

    @property
    def ok(self) -> bool:
        return self.control <= self.estimate * (1.0 + 1e-3)


@dataclass
class VerificationReport:
    map_label: str
    fiber_verdicts: dict[Simplex, Verdict] = field(default_factory=dict)
    missed_stars: list[Simplex] = field(default_factory=list)
    certificate_samples: dict[Simplex, int] = field(default_factory=dict)
    control_rows: list[ControlRow] = field(default_factory=list)
    identity_sups: dict[str, float] = field(default_factory=dict)
    bound: float | None = None
    slice_rows: list[SliceRow] = field(default_factory=list)
    obstructions: dict[Simplex, float] = field(default_factory=dict)
    messages: list[str] = field(default_factory=list)
    overall: str = UNKNOWN

    @property
    def exit_code(self) -> int:
        if self.overall == THEOREM_CONSISTENT:
            return 0
        if self.overall == UNKNOWN:
            return 2
        return 1

    def render(self) -> str:
        lines = [f"verification report for {self.map_label}", "=" * 48]
        if self.missed_stars:
            lines.append(
                "missed open stars: " + ", ".join(str(s) for s in self.missed_stars)
            )
        lines.append("fiber verdicts over barycenters:")
        for s, v in self.fiber_verdicts.items():
            lines.append(f"  {str(s):<24} {v.kind:<18} {v.reason}")
        for s, r in self.obstructions.items():
            lines.append(
                f"  obstruction at {s}: any approximation needs control >= {r:.9f} (star radius)"
            )
        if self.certificate_samples:
            lines.append("product decomposition certificates:")
            for s, n in self.certificate_samples.items():
                lines.append(f"  {str(s):<24} cell bijection ok, {n} sampled fibers isomorphic")
        if self.identity_sups:
            lines.append("exact identities (sampled sups):")
            for k, v in self.identity_sups.items():
                lines.append(f"  {k:<40} {v:.3e}")
        if self.control_rows:
            lines.append("control table (eps target vs measured):")
            lines.append(f"  {'eps':>12} {'g':>12} {'h1':>12} {'h2':>12}  ok")
            for r in self.control_rows:
                lines.append(
                    f"  {r.eps:>12.9f} {r.g:>12.9f} {r.h1:>12.9f} {r.h2:>12.9f}  "
                    + ("yes" if r.ok else "NO")
                )
        if self.bound is not None:
            lines.append(f"bounded assembly: measured bound B = {self.bound:.9f}")
        if self.slice_rows:
            lines.append("slice round trip (height, measured, B/height):")
            for r in self.slice_rows:
                lines.append(
                    f"  t={r.height:>12.6f}  control={r.control:.9f}  "
                    f"bound={r.estimate:.9f}  " + ("yes" if r.ok else "NO")
                )
        for m in self.messages:
            lines.append(m)
        lines.append(f"overall: {self.overall}")
        return "\n".join(lines) + "\n"


def run_verify(
    f: SimplicialMap,
    schedule: list[float] | None = None,
    samples: int = 120,
    seed: int = 0,
    tol: float = 1e-4,
    map_label: str = "map",
    certificate_samples: int = 100,
) -> VerificationReport:
    if not (math.isfinite(tol) and tol >= 0.0):
        raise MalformedInputError(f"tolerance must be finite and >= 0, got {tol}")
    _check_nonnegative(samples=samples, seed=seed, certificate_samples=certificate_samples)
    report = VerificationReport(map_label=map_label)
    bad = validate_map(f)
    if bad:
        report.messages.append(
            "vertex map is not simplicial on: " + ", ".join(str(s) for s in bad)
        )
        report.overall = COUNTEREXAMPLE
        return report

    report.missed_stars = surjectivity_check(f)
    for sigma in f.target.sorted_simplices():
        report.fiber_verdicts[sigma] = fiber_over_barycenter(f, sigma).verdict

    refuted = [s for s, v in report.fiber_verdicts.items() if v.kind == "not_contractible"]
    unknown = [s for s, v in report.fiber_verdicts.items() if v.kind == "unknown"]

    if refuted:
        # contrapositive route: the construction must refuse, and the star
        # radius quantifies the control any approximation must exceed
        for s in refuted:
            rad = simplex_metrics(f.target, s).rad
            if not math.isfinite(rad):
                rad = comesh_of(f.target)
            report.obstructions[s] = rad
        # build_family refuses at the first fiber, in this order, that is not
        # contractible: a refuted one or an unknown one before it
        sigma, verdict = next((s, v) for s, v in report.fiber_verdicts.items() if not v.is_contractible)
        report.messages.append(
            f"controlled-family construction refuses: {CannotConstructError(sigma, verdict)} "
            f"(expected: contrapositive of the equivalence)"
        )
        report.overall = COUNTEREXAMPLE
        return report
    if unknown:
        report.messages.append(
            "fibers with unknown contractibility: "
            + ", ".join(str(s) for s in unknown)
            + "; no claim is made either way"
        )
        report.overall = UNKNOWN
        return report

    Y, kept = f.target, set(f.target._cellulations)
    schedule = epsilon_schedule(Y) if schedule is None else list(schedule)
    if not schedule:
        raise MalformedInputError("empty eps schedule: the control table needs at least one eps")
    for eps in schedule:
        _check_eps(Y, eps)

    for sigma in Y.sorted_simplices():
        cert = verify_product_decomposition(f, sigma, samples=certificate_samples, seed=seed)
        report.certificate_samples[sigma] = cert.samples_checked

    family = build_family(f)
    # the identities and a schedule eps of comesh/2 share one family.at
    half = family.effective_comesh / 2.0
    at_half = family.at(half)
    report.identity_sups = _identity_checks(f, at_half, samples=samples, seed=seed)

    all_ok = all(v <= 1e-9 for v in report.identity_sups.values())
    pts_y = sample_points(Y, samples, seed=seed)
    pts_x = sample_points(f.source, max(20, samples // 3), seed=seed)
    times = np.linspace(0.0, 1.0, TIME_STEPS)
    for eps in schedule:
        c = _family_controls(family, eps, at_half if eps == half else family.at(eps), pts_y, pts_x, times)
        row = ControlRow(
            eps=eps,
            g=c["g"].measured_control,
            h1=c["h1"].measured_control,
            h2=c["h2"].measured_control,
            tolerance=tol,
        )
        report.control_rows.append(row)
        all_ok = all_ok and row.ok

    data = assemble_bounded_equivalence(
        f, family, samples=max(20, samples // 3), seed=seed
    )
    report.bound = data.bound
    all_ok = all_ok and data.bound <= 1.0 + 1e-3
    cm = family.effective_comesh
    for t in (k / cm for k in SLICE_MULTIPLES):
        sl = slice_equivalence(data, t)
        row = SliceRow(height=t, control=max(sl.controls.values()), estimate=data.bound / t)
        report.slice_rows.append(row)
        all_ok = all_ok and row.ok

    report.overall = THEOREM_CONSISTENT if all_ok else COUNTEREXAMPLE
    # the cellulations this run built name Y, which names them: they go with
    # the run, so Y is freed by reference counting once its caller drops it
    for eps in Y._cellulations.keys() - kept:
        del Y._cellulations[eps]
    return report


def _identity_checks(f: SimplicialMap, closures, samples: int, seed: int) -> dict[str, float]:
    """Sampled sups of the identities the construction satisfies exactly,
    on the closures (g, h1, h2) of one ``family.at(eps)``.  The first is
    the per-point table of ``g.identity_sups``, read off g's table, and
    the two h1 identities are the two per-point tables of
    ``h1.identity_sups``, read off h1's own group pass (one per maximal
    simplex of Y over f(x)'s carrier), each folded by ``_fold``; the last
    is a ``sampled_sup``, with one ``distance`` per pair.

    The control table's h1 column is h2's row over f(x) at min(2t, 1)
    (``homotopies._h1_column``), so these two lines are what can see h1
    leave h2's path: f(h1'(x, t)) is measured against h2's own location
    of f(x), and f(h1''(x, t)) against f(h1(x, 1/2)), the row where the
    first half ends."""
    Y, X = f.target, f.source
    g, h1, _ = closures

    def start(x):
        return h1.track(x), (lambda t: x)

    pts_y = sample_points(Y, min(samples, 60), seed=seed)
    pts_x = sample_points(X, min(samples, 60), seed=seed + 1)
    times = tuple(np.linspace(0.0, 1.0, 9).tolist())
    first, second = h1.identity_sups(pts_x, times)
    return {
        "f(g_eps(y)) = h2(y,1)": _fold(pts_y, g.identity_sups(pts_y))[0],
        "f(h1'(x,t)) = h2(f(x),t)": _fold(pts_x, first)[0],
        "f(h1''(x,t)) constant in t": _fold(pts_x, second)[0],
        "h1(x,0) = x": sampled_sup(X, pts_x, (0.0,), start)[0],
    }
