"""Wall time at a fixed machine speed ("reference seconds").

Other tenants share the physical cores of the machine this benchmark was
built on.  Their load changes the speed of Python code by up to 2x, in phases
of seconds to minutes, so the raw wall times of identical runs spread by
20-50 % (NOTES.md, Noise).  `SpeedClock` takes that speed out.  Every
PROBE_EVERY_S seconds of process CPU time a SIGPROF handler times `probe`, a
fixed piece of dict, tuple, string and sorting work that lives here, so no
change to plcontrol can change it.  Each stretch of wall time between two
probes counts as its length times REF_PROBE_S over the probe time measured at
its start; the probes' own time is left out.  An operation that does less work
takes fewer reference seconds, just as it takes fewer wall seconds; a phase
in which the machine runs everything 1.5x slower does not change them.
"""

from __future__ import annotations

import signal
import statistics
import time

# process CPU seconds between two probes
PROBE_EVERY_S = 0.02
# the probe's time at the reference speed: about its median on a 2-vCPU
# Intel Xeon at 2.0 GHz with Python 3.11, so that reference seconds are close
# to that machine's wall seconds
REF_PROBE_S = 0.0005


def probe() -> tuple:
    d = {}
    for i in range(600):
        d[(i * 7919) % 211] = (i * 0.5, "v%d" % (i & 7))
    seen = set()
    for k, (x, v) in sorted(d.items()):
        seen.add(v)
        seen.discard(k)
    return tuple(sorted(seen))


def probe_s() -> float:
    t0 = time.perf_counter()
    probe()
    return time.perf_counter() - t0


class SpeedClock:
    """`now()` is the reference seconds since `start()`, not counting the
    probes.  Between `start()` and `stop()` the clock owns SIGPROF."""

    def __init__(self):
        # (reference seconds up to the last probe, its end, its probe time),
        # replaced as one tuple so that `now` never reads half an update
        self._state = (0.0, 0.0, REF_PROBE_S)
        self._previous = None

    def tick(self, *_) -> None:
        t0 = time.perf_counter()
        p = probe_s()
        ref, last, p_last = self._state
        self._state = (ref + (t0 - last) * REF_PROBE_S / p_last, t0 + p, p)

    def start(self) -> None:
        self._state = (0.0, time.perf_counter(), probe_s())
        self._previous = signal.signal(signal.SIGPROF, self.tick)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def now(self) -> float:
        ref, last, p = self._state
        return ref + (time.perf_counter() - last) * REF_PROBE_S / p


def speed_factor() -> float:
    """REF_PROBE_S over the median of nine probe times taken now: raw
    seconds times this factor are reference seconds."""
    return REF_PROBE_S / statistics.median(probe_s() for _ in range(9))
