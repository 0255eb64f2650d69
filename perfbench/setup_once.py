"""One set-up of a workload, in a fresh interpreter: import plcontrol,
generate the workload's inputs and write them as JSON.  Prints the seconds
this took, measured from before the first plcontrol import, in reference
seconds (speed.py) at the speed probed just before and just after it.

    python3 perfbench/setup_once.py WORKLOAD SEED OUT_DIR
"""

import sys
import time
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "src"), str(Path(__file__).resolve().parent)]

import speed  # noqa: E402

_BEFORE = speed.speed_factor()
_T0 = time.perf_counter()

from inputs import write_inputs  # noqa: E402

if __name__ == "__main__":
    write_inputs(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
    raw = time.perf_counter() - _T0
    print(f"{raw * (_BEFORE + speed.speed_factor()) / 2:.6f}")
