"""Times scaled to a reference speed of the machine.

On a shared VM the same pure-Python work takes anywhere from about 0.75 to
1.25 times its usual time, in phases that last seconds; CPU time follows
wall time, so it is a slower core, not descheduling.  A run is too short to
average those phases out, and they moved the medians of runs of the same
code by more than any bound the benchmark could hold.

So the benchmark also times a fixed piece of pure-Python work that calls
no lamp code, every ``REF_EVERY_S`` seconds between operations, around
each subprocess and inside the set-up one, and scales every time it
reports to the reference speed: ``measured * REF_NOMINAL_S / reference``,
where ``reference`` is the mean of the median reference times just before,
during and just after the measured interval (within ``WINDOW_S``).  A
change to lamp moves a scaled time as it moves the raw one; a change of the
machine's speed moves the reference as well and cancels out.  The raw
values of the end-to-end metrics are printed next to the scaled ones.
"""

from __future__ import annotations

import gc
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

# median time of reference_work on a 2-vCPU x86 VM at its usual speed
REF_NOMINAL_S = 0.0009
REF_TREES = 20
REF_EVERY_S = 0.1
WINDOW_S = 0.25


def _tree(i: int, depth: int) -> tuple:
    return (i, _tree(2 * i, depth - 1), _tree(2 * i + 1, depth - 1)) if depth else (i,)


def reference_work() -> int:
    """About 1 ms of the work lamp's term code does: recursive calls that
    build tuple trees, hashing them and dict traffic.  The collector is off
    while it runs, so its time does not depend on the size of the heap."""
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        table: dict = {}
        for k in range(REF_TREES):
            t = _tree(k, 7)
            table[t] = len(table)
            table.get((k,), 0)
        return len(table)
    finally:
        if gc_was_on:
            gc.enable()


class Speed:
    """Reference samples of one run, and the scaling they give."""

    def __init__(self) -> None:
        self.at: list[float] = []  # middle of each sample, ascending
        self.took: list[float] = []  # its seconds
        self.last = float("-inf")

    def sample(self) -> None:
        reference_work()  # warm-up: the measured code leaves the caches cold
        t0 = perf_counter()
        reference_work()
        t1 = perf_counter()
        self.at.append((t0 + t1) / 2)
        self.took.append(t1 - t0)
        self.last = t1

    def add(self, at: list[float], took: list[float]) -> None:
        """Samples another process took since this one's last sample;
        perf_counter is the system's monotonic clock, shared by both."""
        self.at += at
        self.took += took

    def tick(self) -> None:
        """Sample if the last sample is REF_EVERY_S old."""
        if perf_counter() - self.last >= REF_EVERY_S:
            self.sample()

    def factor(self, t0: float, t1: float) -> float:
        """How much slower than nominal the machine ran during [t0, t1]:
        the mean of the median samples just before, during and just after
        it, so that both ends of a long operation weigh the same."""
        i = bisect_left(self.at, t0 - WINDOW_S)
        j = bisect_left(self.at, t0)
        k = bisect_right(self.at, t1)
        m = bisect_right(self.at, t1 + WINDOW_S)
        parts = [statistics.median(self.took[lo:hi])
                 for lo, hi in ((i, j), (j, k), (k, m)) if lo < hi]
        if not parts:  # no sample near: take the closest one
            n = min(max(j, 1), len(self.at)) - 1
            if n + 1 < len(self.at) and abs(self.at[n + 1] - t0) < abs(self.at[n] - t0):
                n += 1
            parts = [self.took[n]]
        return statistics.fmean(parts) / REF_NOMINAL_S

    def scale(self, ms: float, t0: float, t1: float) -> float:
        return ms / self.factor(t0, t1)

    def summary(self) -> str:
        return (f"reference_ms_p50={statistics.median(self.took) * 1000:.4f} "
                f"nominal_ms={REF_NOMINAL_S * 1000:.4f} samples={len(self.took)}")
