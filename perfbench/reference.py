"""A fixed Python workload that measures the machine's current speed.

On a shared machine the same code can run twice as slowly for minutes at
a time.  The benchmark times this kernel between the stages of its
operations and divides each stage's seconds by the kernel's time around
it, so that drift cancels while a change to hcpack still shows.  The kernel
mirrors the package's hot path (frozen dataclass points, orientation
signs, per-edge crossing counts in a dict) but never calls hcpack, so no
change to the package moves it.
"""

from __future__ import annotations

import bisect
import random
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class _Point:
    x: int
    y: int


def _orient(p: _Point, q: _Point, r: _Point) -> int:
    d = (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)
    return (d > 0) - (d < 0)


def _crosses(a: _Point, b: _Point, c: _Point, d: _Point) -> bool:
    if a == c or a == d or b == c or b == d:
        return False
    return _orient(c, d, a) * _orient(c, d, b) < 0 and _orient(a, b, c) * _orient(a, b, d) < 0


GAP_S = 0.2  # least time between two samples taken by `Speedometer.tick`

_rng = random.Random(20161128)
_POINTS = [_Point(_rng.randint(-10**6, 10**6), _rng.randint(-10**6, 10**6)) for _ in range(48)]
_EDGES = [(i, (7 * i + 3) % 48) for i in range(48) if (7 * i + 3) % 48 != i]


def _kernel() -> dict:
    pts, edges = _POINTS, _EDGES
    counts: dict = {}
    for i, (a, b) in enumerate(edges):
        for c, d in edges[i + 1 :]:
            if _crosses(pts[a], pts[b], pts[c], pts[d]):
                counts[(a, b)] = counts.get((a, b), 0) + 1
                counts[(c, d)] = counts.get((c, d), 0) + 1
    return counts


def reference_s() -> float:
    """Seconds one run of the kernel takes right now."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


class Speedometer:
    """Kernel times taken at stage boundaries, at most one per GAP_S."""

    def __init__(self):
        self.ends: list = []  # perf_counter() when each sample ended
        self.values: list = []  # kernel seconds of each sample
        self.spent = 0.0  # seconds spent sampling, to leave out of timings

    def sample(self) -> None:
        """Median of three kernel runs, so one preempted run does not count."""
        start = time.perf_counter()
        self.values.append(sorted(reference_s() for _ in range(3))[1])
        self.ends.append(time.perf_counter())
        self.spent += self.ends[-1] - start

    def tick(self) -> None:
        if not self.ends or time.perf_counter() - self.ends[-1] >= GAP_S:
            self.sample()

    def around(self, start: float, end: float) -> float:
        """Mean kernel time of the last sample before `start` and the first
        after `end`."""
        before = bisect.bisect_right(self.ends, start) - 1
        after = bisect.bisect_left(self.ends, end)
        picks = [self.values[i] for i in (before, after) if 0 <= i < len(self.values)]
        return sum(picks) / len(picks)

    def mean_over(self, start: float, end: float) -> float:
        """Mean kernel time of the samples taken from the last one before
        `start` to the first one after `end`."""
        first = max(bisect.bisect_right(self.ends, start) - 1, 0)
        last = bisect.bisect_left(self.ends, end)
        picks = self.values[first : last + 1]
        return sum(picks) / len(picks)
