#!/usr/bin/env python3
"""Run the default `run_verify` on the Prism ladder and print, per rung, the
source and target simplex counts, the CPU seconds of the verify, the
verdict, the bound B and the sha256 of the rendered report.

    python3 scripts/ladder.py [K ...]

Prism(k) is `perfbench/inputs.prism_map(k)`, the projection
Sd^k(D2) x [0,1] -> Sd^k(D2); the rungs are the given k, by default
k = 0, 1, 2 (`python3 scripts/ladder.py 3` times Prism(3) alone).  The
report is rendered with the default map label, so a hash equal to an
earlier one means the report text is byte-identical.
"""

import argparse
import hashlib
import importlib.util
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from plcontrol.verify import run_verify  # noqa: E402

RUNGS = (0, 1, 2)


def _load_inputs():
    spec = importlib.util.spec_from_file_location("perfbench_inputs", ROOT / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


inputs = _load_inputs()


def rung(k: int) -> dict:
    """The default verify of Prism(k): sizes, CPU seconds, verdict, B and
    the sha256 of the render."""
    f = inputs.prism_map(k)
    start = time.process_time()
    report = run_verify(f)
    cpu_s = time.process_time() - start
    return {
        "k": k,
        "source": len(f.source.simplices),
        "target": len(f.target.simplices),
        "cpu_s": cpu_s,
        "overall": report.overall,
        "bound": report.bound,
        "sha256": hashlib.sha256(report.render().encode()).hexdigest(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description="Time the default verify on the Prism ladder.")
    parser.add_argument("rungs", nargs="*", type=int, default=RUNGS, metavar="K", help="rung numbers (default 0 1 2)")
    for k in parser.parse_args().rungs:
        r = rung(k)
        bound = "-" if r["bound"] is None else f"{r['bound']:.9f}"
        print(
            f"Prism({r['k']}) {r['source']}/{r['target']} simplices  {r['cpu_s']:.2f} CPU s  "
            f"{r['overall']}  B = {bound}  sha256 {r['sha256']}",
            flush=True,
        )


if __name__ == "__main__":
    main()
