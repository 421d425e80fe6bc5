"""The machine's speed, sampled while the benchmark runs.

On a shared virtual machine the same code runs 20 to 40 % faster or
slower from one second to the next, in CPU time as in wall time (the
host's load, not preemption), so raw medians of runs a minute apart
differ by more than any useful bound.  A background thread therefore
times a short fixed pure-Python loop (float arithmetic and a small dict;
no relkin code) every few milliseconds.  An interval's time is reported
at reference speed: its wall time x ``REF_S`` / the mean loop time
sampled inside it.  ``REF_S`` is a round figure close to the loop's
median on the baseline machine, so reported times stay close to its wall
times.

The mean, not the median: an op's wall time includes the short
preemptions at the rate the loop sees them.  The loop allocates nothing
the garbage collector tracks, so the collections that the measured
code's allocations trigger never run inside it; a loop of numpy calls on
small Python objects tracked the machine less well for that reason.  It holds the GIL for a
fraction of a millisecond, well inside the interpreter's switch
interval, so it is not interrupted by the thread it measures; that
thread waits for it, which adds about one per cent to every timed
interval, the same on every commit.
"""
from __future__ import annotations

import bisect
import statistics
import threading
from time import perf_counter

LOOPS = 1500
EVERY_S = 0.02
REF_S = 0.25e-3
MIN_SAMPLES = 5


def loop_time() -> float:
    """One run of the reference loop, in seconds."""
    start = perf_counter()
    x, seen = 0.0, {}
    for i in range(LOOPS):
        x = x * 0.999 + i * 1e-6
        seen[i & 15] = x
    return perf_counter() - start


class Speedometer:
    """Samples ``loop_time`` from a daemon thread between ``start`` and ``stop``."""

    def __init__(self):
        self.ends: list[float] = []
        self.loops: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while not self._stop.wait(EVERY_S):
            took = loop_time()
            self.ends.append(perf_counter())
            self.loops.append(took)

    def start(self) -> "Speedometer":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, t0: float, t1: float) -> float:
        """REF_S / mean loop time of the samples taken in [t0, t1].

        The window widens on both sides until it holds MIN_SAMPLES; with
        no samples at all (the thread was never started) the scale is 1.
        """
        n = len(self.loops)  # appended after ends, so ends[:n] are set
        if n == 0:
            return 1.0
        lo = bisect.bisect_left(self.ends, t0, 0, n)
        hi = bisect.bisect_right(self.ends, t1, 0, n)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < n):
            lo, hi = max(lo - 1, 0), min(hi + 1, n)
        return REF_S / statistics.fmean(self.loops[lo:hi])
