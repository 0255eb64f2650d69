#!/usr/bin/env python3
"""Alternating before/after pairs of the benchmark, and their summary.

    python3 scripts/ab_pairs.py PARENT CHANGE --workload W --seed S --pairs N --seconds T

PARENT and CHANGE are two checkouts of the repository.  Each pair runs
`perfbench/run.py --trace 0` once in each of them, one after the other,
and the side that runs first alternates from pair to pair.  The summary
gives, per end-to-end metric, each side's median and quartiles and the
number of pairs in which the change is better, then one no-regression
verdict per metric against the `bound` that BENCHMARK.json gives it (see
`verdicts`).  Both are printed only when every run is `correct`: timings of
a run with a failed operation measure other work.  Nothing under
`perfbench/` is written to but its `work/` directory, which the runs
themselves use.

Bytecode left in a checkout speeds up the imports that `setup_s` times, so
the script refuses to start when either checkout holds
`src/plcontrol/__pycache__`, and runs each benchmark with
`PYTHONDONTWRITEBYTECODE=1`, so that no run writes any.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in the checkout; its JSON result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: run in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def end_to_end(checkout: Path) -> list[dict]:
    """The end-to-end metrics of the checkout's BENCHMARK.json, each with its
    name, direction ("better") and bound."""
    return json.loads((checkout / "BENCHMARK.json").read_text())["end_to_end"]


def directions(checkout: Path) -> dict[str, str]:
    """metric -> "lower" or "higher", from the checkout's BENCHMARK.json."""
    return {m["name"]: m["better"] for m in end_to_end(checkout)}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent: list[dict], change: list[dict], better: dict[str, str]) -> list[str]:
    """The summary lines of paired result lines (pair i is parent[i],
    change[i]); raises ValueError when some run is not correct."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs on each side")
    bad = [f"{side} run {i}" for side, runs in (("parent", parent), ("change", change))
           for i, r in enumerate(runs) if not r["correct"]]
    if bad:
        raise ValueError("not correct: " + ", ".join(bad))
    out = []
    for name, direction in better.items():
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        sign = 1.0 if direction == "lower" else -1.0
        won = sum(sign * (b - a) < 0.0 for a, b in zip(p, c))
        (p1, pm, p3), (c1, cm, c3) = _quartiles(p), _quartiles(c)
        delta = (cm - pm) / pm * 100.0 if pm else float("nan")
        out.append(
            f"{name}: parent median {pm:.4f} (q1 {p1:.4f}, q3 {p3:.4f}), "
            f"change median {cm:.4f} (q1 {c1:.4f}, q3 {c3:.4f}), "
            f"{delta:+.1f} %, change better in {won}/{len(p)} pairs ({direction} is better)"
        )
    return out


def verdicts(parent: list[dict], change: list[dict], metrics: list[dict]) -> list[str]:
    """One verdict per metric of correct, paired result lines; ``bound`` is
    the largest relative worsening of the median that the metric allows.

    - "unresolved" when the parent's runs spread wider than the bound,
      (q3 - q1) / median > bound, unless every change run beats every
      parent run: pairs that noisy cannot show a worsening within it;
    - else "worse beyond bound" when the change's median is worse than the
      parent's by more than the bound;
    - else "within bound".
    """
    out = []
    for m in metrics:
        name, bound = m["name"], m["bound"]
        sign = 1.0 if m["better"] == "lower" else -1.0
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        p1, pm, p3 = _quartiles(p)
        worse = (sign * statistics.median(c) - sign * pm) / pm
        spread = (p3 - p1) / pm
        if spread > bound and max(sign * v for v in c) >= min(sign * v for v in p):
            verdict = "unresolved"
        elif worse > bound:
            verdict = "worse beyond bound"
        else:
            verdict = "within bound"
        out.append(f"{name}: {verdict} (median {worse:+.2%} worse, parent spread {spread:.2%}, bound {bound:.2%})")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=50.0)
    args = ap.parse_args(argv)
    cached = [str(c) for c in (args.parent, args.change) if (c / "src" / "plcontrol" / "__pycache__").exists()]
    if cached:
        print(f"error: remove src/plcontrol/__pycache__ from {', '.join(cached)}: it speeds up timed imports", file=sys.stderr)
        return 1
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(getattr(args, side), args.workload, args.seed, args.seconds)
            runs[side].append(result)
            print(f"pair {i} {side}: {json.dumps(result)}", flush=True)
    try:
        lines = summarize(runs["parent"], runs["change"], directions(args.change))
        lines += verdicts(runs["parent"], runs["change"], end_to_end(args.change))
    except ValueError as err:
        print(f"error: {err}; no summary", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
