"""Record reference.json: the outputs of every operation for seed 0 (the
CLI default), with the plcontrol sources of this checkout.  The recorded
texts define correct output for the benchmark, so record them once, from
the commit that introduced the benchmark, and not again.

    python3 perfbench/record_reference.py
"""

import json
import sys
from dataclasses import asdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from inputs import BATCHES, write_inputs  # noqa: E402
from workload import OPERATIONS  # noqa: E402

if __name__ == "__main__":
    reference = {}
    for workload, batch in BATCHES.items():
        paths = write_inputs(workload, 0, BENCH / "work" / f"{workload}-0")
        reference[workload] = {path.stem: asdict(OPERATIONS[kind](path, 0)) for path, (_, kind) in zip(paths, batch)}
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
