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

from .cellulation import comesh_of
from .complexes import Simplex
from .cone import assemble_bounded_equivalence, slice_equivalence
from .contract import Verdict
from .homotopies import (
    CannotConstructError,
    ControlledFamily,
    build_family,
    epsilon_schedule,
    measure_control,
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
    time_steps: int = 17,
) -> VerificationReport:
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
        try:
            build_family(f)
            report.messages.append(
                "UNEXPECTED: family construction succeeded despite refuted fibers"
            )
            report.overall = COUNTEREXAMPLE
        except CannotConstructError as e:
            report.messages.append(
                f"controlled-family construction refuses: {e} "
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

    for sigma in f.target.sorted_simplices():
        cert = verify_product_decomposition(f, sigma, samples=certificate_samples, seed=seed)
        report.certificate_samples[sigma] = cert.samples_checked

    family = build_family(f)
    Y = f.target
    if schedule is None:
        schedule = epsilon_schedule(Y)
    report.identity_sups = _identity_checks(f, family, samples=samples, seed=seed)

    all_ok = all(v <= 1e-9 for v in report.identity_sups.values())
    for eps in schedule:
        g, h1, h2 = family.at(eps)
        rg = measure_control(g, None, f, samples=samples, seed=seed, epsilon_target=eps)
        rh1 = measure_control(
            h1, f, f, samples=max(20, samples // 3), seed=seed, time_steps=time_steps, epsilon_target=eps
        )
        rh2 = measure_control(
            h2, None, None, samples=samples, seed=seed, time_steps=time_steps, epsilon_target=eps
        )
        row = ControlRow(
            eps=eps,
            g=rg.measured_control,
            h1=rh1.measured_control,
            h2=rh2.measured_control,
            tolerance=tol,
        )
        report.control_rows.append(row)
        all_ok = all_ok and row.ok

    data = assemble_bounded_equivalence(
        f, family, samples=max(20, samples // 3), seed=seed, time_steps=time_steps
    )
    report.bound = data.bound
    all_ok = all_ok and data.bound <= 1.0 + 1e-3
    cm = family.effective_comesh
    for t in (2.0 / cm, 4.0 / cm, 8.0 / cm):
        sl = slice_equivalence(data, t)
        row = SliceRow(height=t, control=max(sl.controls.values()), estimate=data.bound / t)
        report.slice_rows.append(row)
        all_ok = all_ok and row.ok

    report.overall = THEOREM_CONSISTENT if all_ok else COUNTEREXAMPLE
    return report


def _identity_checks(
    f: SimplicialMap, family: ControlledFamily, samples: int, seed: int
) -> dict[str, float]:
    """Sampled sups of the identities the construction satisfies exactly.
    Each sampled x's h1 track is built once and read by the three x-identities."""
    Y, X = f.target, f.source
    eps = family.effective_comesh / 2.0
    g, h1, h2 = family.at(eps)

    def projection(y):
        return (lambda t: f(g(y))), h2.track(y)

    def first_half(xt):
        x, tr = xt
        return (lambda t: f(tr(t / 2.0))), h2.track(f(x))

    def second_half(xt):
        _, tr = xt
        anchor = f(tr(0.5))
        return (lambda t: f(tr(0.5 + t / 2.0))), (lambda t: anchor)

    def start(xt):
        x, tr = xt
        return tr, (lambda t: x)

    pts_y = sample_points(Y, min(samples, 60), seed=seed)
    x_tracks = [(x, h1.track(x)) for x in sample_points(X, min(samples, 60), seed=seed + 1)]
    times = np.linspace(0.0, 1.0, 9)
    return {
        "f(g_eps(y)) = h2(y,1)": sampled_sup(Y, pts_y, (1.0,), projection)[0],
        "f(h1'(x,t)) = h2(f(x),t)": sampled_sup(Y, x_tracks, times, first_half)[0],
        "f(h1''(x,t)) constant in t": sampled_sup(Y, x_tracks, times, second_half)[0],
        "h1(x,0) = x": sampled_sup(X, x_tracks, (0.0,), start)[0],
    }
