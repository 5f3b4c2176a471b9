"""In-memory spans around the benchmark's own calls into lamp.

A span records a name (``<module>.<function>``), its start and end, the
span open when it began (its parent) and the program it served.  Spans stay
in memory until ``write`` dumps them at the end of a run.  Self time is a
span's duration minus the time its children cover; one thread makes every
call, so children never overlap and that cover is the sum of their lengths.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        # (name, start, end, parent index or -1, program id)
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self.pid = -1
        self._open: list[int] = []

    def call(self, name: str, fn, *args):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append((name, 0.0, 0.0, parent, self.pid))
        self._open.append(idx)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[idx] = (name, start, end, parent, self.pid)

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def busy(self) -> tuple[dict[str, float], Counter]:
        """Self seconds and call count per span name."""
        secs: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for span, own in zip(self.spans, self.self_times()):
            secs[span[0]] += own
            calls[span[0]] += 1
        return secs, calls

    def per_program(self, names: tuple[str, ...]) -> dict[int, float]:
        """Self seconds spent in any of names, per program id."""
        out: dict[int, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            if span[0] in names:
                out[span[4]] += own
        return out

    def max_duration(self, name: str) -> float:
        return max((end - start for n, start, end, _, _ in self.spans
                    if n == name), default=0.0)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\tprogram\n")
            for i, (name, start, end, parent, pid) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{pid}\n")


def untraced(name: str, fn, *args):
    """Stand-in for Tracer.call when tracing is off."""
    return fn(*args)


def loglog_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    var = sum((x - mx) ** 2 for x, _ in pts)
    if var == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in pts) / var
