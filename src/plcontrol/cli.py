"""Command-line harness.

Subcommands: check-fibers, cellulate, inverse, measure-control, verify,
cone-distance, lift.  Exit codes of `verify`: 0 consistent, 1 hard failure,
2 unknown fiber verdicts present.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .cellulation import EpsilonRangeError, build_cellulation
from .complexes import MalformedInputError, _check_nonnegative, barycenter
from .cone import complex_metric, cone_distance, coning_map
from .evaluators import PLEvaluator
from .homotopies import (
    CannotConstructError,
    approximate_lift,
    build_family,
    family_controls,
    lift_discrepancy,
    measure_control,
    sample_points,
)
from .ioutil import FileFormatError, load_complex, load_map, load_track, parse_point
from .maps import fiber_over_barycenter
from .svgout import census_report, emit_svg
from .verify import run_verify


def _cmd_check_fibers(args) -> int:
    f = load_map(args.map)
    worst = 0
    for sigma in f.target.sorted_simplices():
        v = fiber_over_barycenter(f, sigma).verdict
        print(f"{str(sigma):<28} {v.kind:<18} {v.reason}")
        worst = max(worst, {"contractible": 0, "unknown": 2, "not_contractible": 1}[v.kind])
    return worst


def _cmd_cellulate(args) -> int:
    K = load_complex(args.complex)
    cel = build_cellulation(K, args.epsilon)
    print(census_report(cel), end="")
    if args.svg:
        emit_svg(cel, args.svg)
        print(f"wrote {args.svg}")
    return 0


def _cmd_inverse(args) -> int:
    f = load_map(args.map)
    g, _, _ = build_family(f).at(args.epsilon)
    y = parse_point(f.target, args.point) if args.point else None
    # measured before anything is printed, so that a bad --samples prints nothing
    rep = measure_control(g, None, f, samples=args.samples, epsilon_target=args.epsilon)
    if y is not None:
        print(f"g_eps({args.point}) = {dict(g(y).as_dict())}")
    else:
        print(f"g_eps on the barycenters of the target (eps={args.epsilon}):")
        for sigma in f.target.sorted_simplices():
            x = g(barycenter(f.target, sigma))
            coords = ", ".join(f"{v}:{c:.6f}" for v, c in x.as_dict().items())
            print(f"  {str(sigma):<24} -> {coords}")
    print(rep)
    return 0


_CONTROL_LABELS = {"g": "g_eps (Y,id)->(X,f)", "h1": "h1_eps through f", "h2": "h2_eps in Y"}


def _cmd_measure_control(args) -> int:
    f = load_map(args.map)
    reports = family_controls(
        build_family(f),
        args.epsilon,
        sample_points(f.target, args.samples, seed=args.seed),
        sample_points(f.source, args.samples, seed=args.seed),
        np.linspace(0.0, 1.0, 33),
    )
    ok = True
    for name, rep in reports.items():
        print(f"{_CONTROL_LABELS[name]:<24} {rep}")
        ok = ok and rep.measured_control <= args.epsilon * (1.0 + 1e-4)
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    f = load_map(args.map)
    schedule = None
    if args.schedule:
        try:
            schedule = [float(tok) for tok in args.schedule.split(",") if tok]
        except ValueError:
            raise MalformedInputError(f"--schedule takes comma-separated numbers, got {args.schedule!r}") from None
    report = run_verify(
        f,
        schedule=schedule,
        samples=args.samples,
        seed=args.seed,
        tol=args.tol,
        map_label=str(args.map),
    )
    print(report.render(), end="")
    return report.exit_code


def _cmd_cone_distance(args) -> int:
    K = load_complex(args.complex)
    a = coning_map(parse_point(K, args.point_a) if args.ta > 0 else None, args.ta)
    b = coning_map(parse_point(K, args.point_b) if args.tb > 0 else None, args.tb)
    d = cone_distance(complex_metric(K, refinement=args.refinement), a, b)
    print(f"{d:.9f}")
    return 0


def _cmd_lift(args) -> int:
    _check_nonnegative(steps=args.steps)
    f = load_map(args.map)
    H, start = load_track(args.homotopy, f.target)
    family = build_family(f)
    z0 = sample_points(H.domain, 0)[0]
    if start is not None:
        x0 = parse_point(f.source, start)
    else:
        g0, _, _ = family.at(args.epsilon / 2.0)
        x0 = g0(H(z0, 0.0))
    h = PLEvaluator(domain=H.domain, codomain=f.source, fn=lambda _: x0)
    lifted = approximate_lift(f, family, H, h, args.epsilon)
    disc = lift_discrepancy(f, H, lifted, samples=10)
    print(f"approximate lift with eps={args.epsilon}: max discrepancy {disc:.9f}")
    tr = lifted.track(z0)
    for t in np.linspace(0.0, 1.0, args.steps):
        p = tr(float(t))
        coords = ", ".join(f"{v}:{c:.6f}" for v, c in p.as_dict().items())
        print(f"  t={t:.4f}  {coords}")
    return 0 if disc < args.epsilon else 1


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads every float literal as a value:
    argparse takes ``-1`` for a negative number but ``-inf``, ``-nan`` and
    ``-1e-3`` for options."""

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="plcontrol", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-fibers", help="contractibility verdicts of all barycenter fibers")
    p.add_argument("map")
    p.set_defaults(fn=_cmd_check_fibers)

    p = sub.add_parser("cellulate", help="build the eps-subdivision cellulation")
    p.add_argument("complex")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--svg", default=None)
    p.set_defaults(fn=_cmd_cellulate)

    p = sub.add_parser("inverse", help="construct and probe the controlled inverse g_eps")
    p.add_argument("map")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--point", default=None, help='point JSON {"simplex": [...], "coords": [...]}')
    p.add_argument("--samples", type=int, default=200)
    p.set_defaults(fn=_cmd_inverse)

    p = sub.add_parser("measure-control", help="measured control of g, h1, h2 at one eps")
    p.add_argument("map")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--samples", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_measure_control)

    p = sub.add_parser("verify", help="full verification pipeline: fibers, certificates, controls, assembly")
    p.add_argument("map")
    p.add_argument("--schedule", default=None, help="comma-separated eps values")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--samples", type=int, default=120)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("cone-distance", help="open-cone distance between two cone points")
    p.add_argument("complex")
    p.add_argument("point_a", help='point JSON (ignored when the height is nonpositive)')
    p.add_argument("ta", type=float)
    p.add_argument("point_b")
    p.add_argument("tb", type=float)
    p.add_argument("--refinement", type=int, default=2)
    p.set_defaults(fn=_cmd_cone_distance)

    p = sub.add_parser("lift", help="approximately lift a homotopy track through the map")
    p.add_argument("map")
    p.add_argument("homotopy", help="track file with times and points")
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--steps", type=int, default=9)
    p.set_defaults(fn=_cmd_lift)
    return ap


# built once: a parser is a web of reference cycles that only `gc` frees
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.fn(args)
    except (FileFormatError, MalformedInputError, EpsilonRangeError, CannotConstructError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
