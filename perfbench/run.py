"""plcontrol benchmark: one closed-loop client, one process, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Set-up generates the workload's inputs and
writes them as JSON, in a fresh interpreter.  Then the workload's operations
run in batch order, one after another, for about S seconds; each loads its
input and runs `verify`, `check-fibers` or `cone-distance` on it as the CLI
would, and its output is checked against reference.json.

With --trace 0 the last line reports the end-to-end metrics, in reference
seconds (speed.py): wall_s is the time of one batch, from the median time of
each operation, and setup_s the median of SETUPS set-ups spread over the
window.  With --trace 1 half the window runs untraced, then one batch runs
with the layer wrappers of tracing.py installed, and the last line reports
the per-layer metrics of that batch, in raw seconds.  The lines before the
last give each operation's times, the raw wall time, fail_ratio and every
failed operation's reason.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("verify_fixtures", "fibers_slab")
SETUPS = 7


def _fail(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def setup(workload: str, seed: int, out_dir: Path) -> float:
    """One set-up in a fresh interpreter, in reference seconds."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_once.py"), workload, str(seed), str(out_dir)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        _fail(f"set-up failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "plcontrol" / "__init__.py").is_file():
        _fail(f"no plcontrol sources under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

    work = BENCH / "work" / f"{args.workload}-{args.seed}"
    setups = [setup(args.workload, args.seed, work)]  # writes the inputs

    import plcontrol

    if Path(plcontrol.__file__).resolve().parent != (ROOT / "src" / "plcontrol").resolve():
        _fail(f"imported plcontrol from {plcontrol.__file__}, not from this checkout")
    from inputs import input_paths
    from workload import Loop, load_reference

    maps = input_paths(args.workload, work)
    reference = load_reference(BENCH / "reference.json", args.workload)
    loop = Loop(args.workload, args.seed, maps, reference)

    if args.trace:
        import tracing

        loop.run_for(args.seconds / 2)
        untraced = loop.wall_s
        tracer = tracing.Tracer()
        traced = Loop(args.workload, args.seed, maps, reference)
        patch = tracing.install(tracer, [sys.modules["workload"]])
        try:
            traced.run_batch()
        finally:
            patch.undo()
        metrics = tracing.layer_metrics(tracer)
        metrics["trace.overhead_ratio"] = traced.wall_s / untraced
        metrics["proc.cpu_s"] = loop.cpu_s
        tracer.write(
            BENCH / "work" / f"trace-{args.workload}-{args.seed}.json.gz",
            {"workload": args.workload, "seed": args.seed, "metrics": metrics},
        )
        loop.attempted += traced.attempted
        loop.failures += traced.failures
        units = {k: tracing.unit_of(k) for k in metrics}
    else:
        spare = BENCH / "work" / f"{args.workload}-{args.seed}-setup"

        def between(elapsed: float) -> None:
            # the remaining set-ups, spread evenly over the window
            if len(setups) < SETUPS and elapsed >= len(setups) * args.seconds / SETUPS:
                setups.append(setup(args.workload, args.seed, spare))

        clock = speed.SpeedClock()
        loop.clock = clock.now
        clock.start()
        try:
            loop.run_for(args.seconds, between)
        finally:
            clock.stop()
        while len(setups) < SETUPS:
            setups.append(setup(args.workload, args.seed, spare))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"setup_s": statistics.median(setups), "wall_s": loop.wall_s, "peak_rss_mb": peak_rss_mb}
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
        print(f"set-ups: {[round(t, 3) for t in setups]} reference s")

    failed = len(loop.failures)
    for stem, times in loop.op_s.items():
        print(f"{stem}: {len(times)} runs, median {statistics.median(times):.3f} s, "
              f"all {[round(t, 3) for t in times]}, raw {[round(t, 3) for t in loop.op_raw_s[stem]]}")
    print(f"raw wall_s {loop.raw_wall_s:.3f} s")
    print(f"fail_ratio {loop.fail_ratio:.6f} ratio ({failed} of {loop.attempted} operations)")
    for stem, why in loop.failures:
        print(f"FAILED {stem}: {why}")
    result = {
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
