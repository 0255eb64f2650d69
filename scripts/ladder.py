#!/usr/bin/env python3
"""Run the default `run_verify` on the ladder and print, per rung, the
source and target simplex counts, the CPU and reference seconds of the
verify, the verdict, the bound B and the sha256 of the rendered report,
then the CPU and reference seconds of each stage of the verify (`STAGES`)
and the verify's work counts (`COUNTS`, whose comments say what each one
counts).  `work_counts` is the one work counter of the repository: the
tier-1 tests read the same table to bound the work of a verify.

    python3 scripts/ladder.py [RUNG ...]

A rung is an integer k or `d` followed by a dimension.  Prism(k) is
`perfbench/inputs.prism_map(k)`, the projection Sd^k(D2) x [0,1] -> Sd^k(D2);
D_d is `simplex_prism(d)`, the projection Δ^d x [0,1] -> Δ^d.  The default
rungs are k = 0, 1, 2 (`python3 scripts/ladder.py 3 d3 d4` times Prism(3),
D_3 and D_4).  The report is rendered with the default map label, so a hash
equal to an earlier one means the report text is byte-identical.  A stage's
seconds are those of the calls `run_verify` makes to its functions, which
are wrapped in the namespace of `plcontrol.verify` while the rung runs; what
no stage holds (the family's construction, the sample draws) is in the total
only.  The counts are read by `work_counts`, which wraps each counted
function while the rung runs.

Reference seconds are wall seconds at a fixed machine speed, read off the
`SpeedClock` of `perfbench/speed.py`, which probes the speed every 20 ms of
CPU time; they move less than CPU seconds when other load on the machine
changes its speed.  The CPU seconds include the probes, about 2.5 %.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import inspect
import string
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from plcontrol import SimplicialMap, cellulation, closure_complex, complexes, contract, homotopies, maps, metrics, verify  # noqa: E402

RUNGS = (0, 1, 2)

# stage -> the functions of plcontrol.verify whose calls it times
STAGES = {
    "fibers": ("fiber_over_barycenter",),
    "certificates": ("verify_product_decomposition",),
    "identities": ("_identity_checks",),
    "control table": ("_family_controls",),
    "assembly": ("assemble_bounded_equivalence", "slice_equivalence"),
}

# work count -> the (owner, attribute) whose calls it counts, and the weight
# of a call, weight(depth, *args), depth the number of counted calls of the
# attribute that enclose it (None: each call counts 1).  A module-level
# function is counted in every plcontrol namespace that binds it, a method on
# its class, and a generator function counts 1 per item it yields.
COUNTS = {
    # cell inversions
    "inversions": (cellulation.Cellulation, "invert", None),
    # fiber splits, two per h1 second-half start-up among them
    "fiber_split": (maps, "fiber_split", None),
    # the groups of points the two h1 identities read in one pass each, one
    # per maximal simplex of the target in a pass; the h1 row is h2's read
    # over f(x) and makes none
    "h1 group passes": (homotopies._H1, "_passes", None),
    # calls of the join→image row kernel, one per h1 group pass and one per
    # maximal simplex of the target in each fill of a g table
    "row kernel calls": (maps, "_joined_image_rows", None),
    # the rows those calls hold
    "row kernel rows": (maps, "_joined_image_rows", lambda depth, f, sigma, ws, L: len(ws)),
    # the pairs the sampled-control kernel measures with `distance`: the
    # identities f(g_eps(y)) = h2(y,1) and h1(x,0) = x, and every row of the
    # g and h2 rows, the h1 row and the two h1 identities that the arrays do
    # not reproduce
    "control distances": (metrics, "distance", None),
    # row norms of the control tables and of the g table: per width of the
    # rows the arrays reproduce, one per h2 row (the h1 row's included) and
    # one per group pass of each h1 identity, and one per carrier of the
    # points of each g table fill
    "row norms": (metrics, "_norms", None),
    # g evaluations, one per distinct point a g table holds: the
    # `gamma_chain` calls that no other call of it encloses
    "g evaluations": (homotopies.FlagMap, "gamma_chain", lambda depth, *args: depth == 0),
    # flag cells built, once per cell of the target that an inversion names
    # for the first time
    "flag cells built": (cellulation, "_flag_cell", None),
    # fitting lists built, once per distinct point inverted, whatever the
    # number of eps it is inverted at
    "fitting lists built": (cellulation, "_fits", None),
    # image stacks built, once per cell and time grid of one `family.at(eps)`
    "image stacks built": (homotopies._EpsView, "_stack", None),
    # the staircase simplices `fiber_over_barycenter` hands `closure_complex`,
    # summed over the fibers
    "fiber generators": (maps, "closure_complex", lambda depth, generators: len(generators)),
    # the cells the inversions check
    "cells tried": (cellulation.Cellulation, "_try_cell", None),
    # cellulations built, one per complex and exact eps
    "cellulations built": (cellulation.Cellulation, "__init__", None),
    # builds of a cell's vertex images
    "vertex image builds": (cellulation.FlagCell, "vertex_images", None),
    # points located in a fiber
    "fiber locations": (maps.FiberComplex, "locate", None),
    # fiber-contraction tracks that gamma keeps, one per (sigma, w)
    "fiber tracks": (homotopies.FlagMap, "_new_track", None),
    # simplex images under the map
    "image_simplex": (maps.SimplicialMap, "image_simplex", None),
    # sample point draws
    "sample draws": (homotopies, "sample_points", None),
    # points built from vertex weights
    "make_point": (complexes, "make_point", None),
    # Smith-normal-form homology runs, one per fiber core a collapse leaves
    "homology runs": (contract, "homology", None),
}


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


inputs = _load("inputs")
speed = _load("speed")


def simplex_prism(d: int) -> SimplicialMap:
    """D_d, the projection Δ^d x [0,1] -> Δ^d of the staircase product, on
    the vertices a, b, c, ... of Δ^d; D_2 is Prism(0)."""
    Y = closure_complex([tuple(string.ascii_lowercase[: d + 1])])
    X = inputs.staircase_product(Y)
    return SimplicialMap(X, Y, {v: v.rsplit("@", 1)[0] for v in X.vertex_order})


def _rung_map(k) -> tuple[str, SimplicialMap]:
    if isinstance(k, str):
        return f"D_{k[1:]}", simplex_prism(int(k[1:]))
    return f"Prism({k})", inputs.prism_map(k)


def _parse_rung(text: str):
    if text.startswith("d") and text[1:].isdigit():
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"a rung is an integer or d<dimension>, got {text!r}") from None


@contextlib.contextmanager
def _stage_clock(clock):
    """While open, each function of `STAGES` adds the CPU seconds of its
    calls to its stage in the first yielded dict, and the reference seconds
    of `clock` to the second."""
    cpu, ref = dict.fromkeys(STAGES, 0.0), dict.fromkeys(STAGES, 0.0)
    saved = {name: getattr(verify, name) for names in STAGES.values() for name in names}

    def clocked(stage, fn):
        def wrapper(*args, **kwargs):
            start, ref_start = time.process_time(), clock.now()
            try:
                return fn(*args, **kwargs)
            finally:
                cpu[stage] += time.process_time() - start
                ref[stage] += clock.now() - ref_start

        return wrapper

    for stage, names in STAGES.items():
        for name in names:
            setattr(verify, name, clocked(stage, saved[name]))
    try:
        yield cpu, ref
    finally:
        for name, fn in saved.items():
            setattr(verify, name, fn)


@contextlib.contextmanager
def work_counts():
    """While open, the yielded dict counts the calls of each function of
    `COUNTS`, by their weights, or the items a generator function yields."""
    counts = dict.fromkeys(COUNTS, 0)
    targets: dict[tuple, list] = {}
    for name, (owner, attr, weight) in COUNTS.items():
        targets.setdefault((owner, attr), []).append((name, weight))
    modules = [m for n, m in sys.modules.items() if n == "plcontrol" or n.startswith("plcontrol.")]
    saved = []

    def counted(fn, counters):
        depth = 0
        if inspect.isgeneratorfunction(fn):
            def items(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    for name, _ in counters:
                        counts[name] += 1
                    yield item

            return items

        def wrapper(*args, **kwargs):
            nonlocal depth
            for name, weight in counters:
                counts[name] += 1 if weight is None else weight(depth, *args)
            depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth -= 1

        return wrapper

    for (owner, attr), counters in targets.items():
        fn = getattr(owner, attr)
        wrapper = counted(fn, counters)
        bindings = [(owner, attr)] if isinstance(owner, type) else [
            (module, name) for module in modules for name, value in vars(module).items() if value is fn
        ]
        for namespace, name in bindings:
            saved.append((namespace, name, fn))
            setattr(namespace, name, wrapper)
    try:
        yield counts
    finally:
        for namespace, name, fn in reversed(saved):
            setattr(namespace, name, fn)


def rung(k) -> dict:
    """The default verify of the rung k (Prism(k), or D_d for k = "d<d>"):
    sizes, CPU and reference seconds, verdict, B, the sha256 of the render
    and the CPU and reference seconds of each stage."""
    name, f = _rung_map(k)
    clock = speed.SpeedClock()
    clock.start()
    try:
        with _stage_clock(clock) as (stages, ref_stages), work_counts() as counts:
            start, ref_start = time.process_time(), clock.now()
            report = verify.run_verify(f)
            cpu_s, ref_s = time.process_time() - start, clock.now() - ref_start
    finally:
        clock.stop()
    return {
        "k": k,
        "name": name,
        "source": len(f.source.simplices),
        "target": len(f.target.simplices),
        "cpu_s": cpu_s,
        "ref_s": ref_s,
        "overall": report.overall,
        "bound": report.bound,
        "sha256": hashlib.sha256(report.render().encode()).hexdigest(),
        "stages": stages,
        "ref_stages": ref_stages,
        "counts": counts,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description="Time the default verify on the ladder.")
    parser.add_argument(
        "rungs", nargs="*", type=_parse_rung, default=RUNGS, metavar="RUNG",
        help="rung numbers k, or d<dimension> (default 0 1 2)",
    )
    for k in parser.parse_args().rungs:
        r = rung(k)
        bound = "-" if r["bound"] is None else f"{r['bound']:.9f}"
        print(
            f"{r['name']} {r['source']}/{r['target']} simplices  {r['cpu_s']:.2f} CPU s  {r['ref_s']:.2f} ref s  "
            f"{r['overall']}  B = {bound}  sha256 {r['sha256']}"
        )
        print(
            "  stages, CPU s / ref s: "
            + "  ".join(f"{stage} {s:.2f}/{r['ref_stages'][stage]:.2f}" for stage, s in r["stages"].items())
        )
        print("  work: " + "  ".join(f"{name} {n}" for name, n in r["counts"].items()), flush=True)


if __name__ == "__main__":
    main()
