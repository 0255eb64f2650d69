"""Operations, their output check and the timed loop.

One operation is what one CLI invocation does: `load_map` on a freshly
written JSON map, then `run_verify` with the CLI defaults; or the
`check-fibers` or `cone-distance` subcommand itself.  Nothing is shared
between operations, so every cache starts cold, as it does for a CLI user.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import signal
import statistics
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from inputs import BATCHES, CONE_ARGS
from plcontrol import cli, load_map, run_verify

# an operation running longer than this is stopped and counted as failed
OP_LIMIT_S = 90.0


class OpTimeout(Exception):
    pass


@dataclass
class Outcome:
    """What a CLI user sees: the printed text and the exit code, plus the
    verdict kind per target simplex (keyed by its sorted vertex labels)."""

    text: str
    exit_code: int
    kinds: dict[str, str]


def _simplex_key(labels) -> str:
    return ",".join(sorted(labels))


def verify_op(path: Path, seed: int) -> Outcome:
    report = run_verify(load_map(path), seed=seed, map_label=path.name)
    kinds = {_simplex_key(s.vertices): v.kind for s, v in report.fiber_verdicts.items()}
    return Outcome(report.render(), report.exit_code, kinds)


def _cli(argv: list[str]) -> tuple[str, int]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return out.getvalue(), code


def fibers_op(path: Path, seed: int) -> Outcome:
    text, code = _cli(["check-fibers", str(path)])
    kinds = {}
    for line in text.splitlines():
        sigma, kind = line.split(maxsplit=2)[:2]
        kinds[_simplex_key(sigma.strip("{}").split(","))] = kind
    return Outcome(text, code, kinds)


def cone_distance_op(path: Path, seed: int) -> Outcome:
    text, code = _cli(["cone-distance", str(path), *CONE_ARGS])
    return Outcome(text, code, {})


OPERATIONS = {"verify": verify_op, "check_fibers": fibers_op, "cone_distance": cone_distance_op}

# operations whose input, and so whose text, is the same for every seed
SEED_FREE = {"cone_distance"}


def mismatch(outcome: Outcome, ref: dict, text_recorded: bool) -> str | None:
    """Why the outcome differs from the recorded one, or None.  Exit code and
    verdict kinds must match for every seed; the full text only where it was
    recorded: for seed 0, the CLI default, and for seed-free operations."""
    if outcome.exit_code != ref["exit_code"]:
        return f"exit code {outcome.exit_code}, expected {ref['exit_code']}"
    if outcome.kinds != ref["kinds"]:
        return f"verdict kinds {outcome.kinds}, expected {ref['kinds']}"
    if text_recorded and outcome.text != ref["text"]:
        return "output text differs from the recorded text"
    return None


def load_reference(path: Path, workload: str) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))[workload]


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _alarm(signum, frame):
    raise OpTimeout()


@dataclass
class Loop:
    """Runs the workload's operations in batch order (each input once per
    batch), recording every operation's time on `clock` and in raw wall
    seconds, and the failure reason of every failed operation."""

    workload: str
    seed: int
    maps: list[Path]
    reference: dict
    clock: Callable[[], float] = time.perf_counter
    op_s: dict[str, list[float]] = field(default_factory=dict)
    op_raw_s: dict[str, list[float]] = field(default_factory=dict)
    op_cpu_s: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failures: list[tuple[str, str]] = field(default_factory=list)

    def run_op(self, path: Path) -> None:
        kind = dict(BATCHES[self.workload])[path.stem]
        self.attempted += 1
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
        t0, r0, c0 = self.clock(), time.perf_counter(), _cpu_s()
        try:
            outcome = OPERATIONS[kind](path, self.seed)
        except OpTimeout:
            self.failures.append((path.stem, f"exceeded the {OP_LIMIT_S:g} s limit"))
            return
        except Exception as e:  # the operation failed; record it and go on
            self.failures.append((path.stem, f"raised {type(e).__name__}: {e}"))
            return
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self.op_s.setdefault(path.stem, []).append(self.clock() - t0)
            self.op_raw_s.setdefault(path.stem, []).append(time.perf_counter() - r0)
            self.op_cpu_s.setdefault(path.stem, []).append(_cpu_s() - c0)
        why = mismatch(outcome, self.reference[path.stem], self.seed == 0 or kind in SEED_FREE)
        if why is not None:
            self.failures.append((path.stem, why))

    def run_batch(self) -> None:
        for path in self.maps:
            self.run_op(path)

    def run_for(self, seconds: float, between: Callable[[float], None] = lambda elapsed: None) -> None:
        """One whole batch, then operations in batch order for as long as
        the next one, at its median raw time so far, still fits in the
        window of `seconds` raw wall seconds.  `between(elapsed)` is called
        before each operation."""
        t0 = time.perf_counter()
        for n, path in enumerate(itertools.cycle(self.maps)):
            elapsed = time.perf_counter() - t0
            if n >= len(self.maps) and elapsed + statistics.median(self.op_raw_s[path.stem]) > seconds:
                break
            between(elapsed)
            self.run_op(path)

    @property
    def wall_s(self) -> float:
        """Time of one batch on `clock`: the sum of each operation's median."""
        return sum(statistics.median(self.op_s[p.stem]) for p in self.maps)

    @property
    def raw_wall_s(self) -> float:
        """The same in raw wall seconds."""
        return sum(statistics.median(self.op_raw_s[p.stem]) for p in self.maps)

    @property
    def cpu_s(self) -> float:
        """CPU time of one batch, this process and its children, likewise."""
        return sum(statistics.median(self.op_cpu_s[p.stem]) for p in self.maps)

    @property
    def fail_ratio(self) -> float:
        return len(self.failures) / self.attempted
