#!/usr/bin/env python3
"""Run the default `run_verify` on the Prism ladder and print, per rung, the
source and target simplex counts, the CPU seconds of the verify, the
verdict, the bound B and the sha256 of the rendered report, then the CPU
seconds of each stage of the verify (`STAGES`).

    python3 scripts/ladder.py [K ...]

Prism(k) is `perfbench/inputs.prism_map(k)`, the projection
Sd^k(D2) x [0,1] -> Sd^k(D2); the rungs are the given k, by default
k = 0, 1, 2 (`python3 scripts/ladder.py 3` times Prism(3) alone).  The
report is rendered with the default map label, so a hash equal to an
earlier one means the report text is byte-identical.  A stage's seconds are
those of the calls `run_verify` makes to its functions, which are wrapped in
the namespace of `plcontrol.verify` while the rung runs; what no stage
holds (the family's construction, the sample draws) is in the total only.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from plcontrol import verify  # noqa: E402

RUNGS = (0, 1, 2)

# stage -> the functions of plcontrol.verify whose calls it times
STAGES = {
    "fibers": ("fiber_over_barycenter",),
    "certificates": ("verify_product_decomposition",),
    "identities": ("_identity_checks",),
    "control table": ("_family_controls",),
    "assembly": ("assemble_bounded_equivalence", "slice_equivalence"),
}


def _load_inputs():
    spec = importlib.util.spec_from_file_location("perfbench_inputs", ROOT / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


inputs = _load_inputs()


@contextlib.contextmanager
def _stage_clock():
    """While open, each function of `STAGES` adds the CPU seconds of its
    calls to its stage in the yielded dict."""
    cpu = dict.fromkeys(STAGES, 0.0)
    saved = {name: getattr(verify, name) for names in STAGES.values() for name in names}

    def clocked(stage, fn):
        def wrapper(*args, **kwargs):
            start = time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                cpu[stage] += time.process_time() - start

        return wrapper

    for stage, names in STAGES.items():
        for name in names:
            setattr(verify, name, clocked(stage, saved[name]))
    try:
        yield cpu
    finally:
        for name, fn in saved.items():
            setattr(verify, name, fn)


def rung(k: int) -> dict:
    """The default verify of Prism(k): sizes, CPU seconds, verdict, B, the
    sha256 of the render and the CPU seconds of each stage."""
    f = inputs.prism_map(k)
    with _stage_clock() as stages:
        start = time.process_time()
        report = verify.run_verify(f)
        cpu_s = time.process_time() - start
    return {
        "k": k,
        "source": len(f.source.simplices),
        "target": len(f.target.simplices),
        "cpu_s": cpu_s,
        "overall": report.overall,
        "bound": report.bound,
        "sha256": hashlib.sha256(report.render().encode()).hexdigest(),
        "stages": stages,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description="Time the default verify on the Prism ladder.")
    parser.add_argument("rungs", nargs="*", type=int, default=RUNGS, metavar="K", help="rung numbers (default 0 1 2)")
    for k in parser.parse_args().rungs:
        r = rung(k)
        bound = "-" if r["bound"] is None else f"{r['bound']:.9f}"
        print(
            f"Prism({r['k']}) {r['source']}/{r['target']} simplices  {r['cpu_s']:.2f} CPU s  "
            f"{r['overall']}  B = {bound}  sha256 {r['sha256']}"
        )
        print("  stages, CPU s: " + "  ".join(f"{name} {s:.2f}" for name, s in r["stages"].items()), flush=True)


if __name__ == "__main__":
    main()
