"""The machine's speed, measured with a fixed pure-Python loop.

The shared VM this benchmark was tuned on changes speed by up to 2x over
spells of a few seconds, in wall time and in CPU time alike.  Timing the
same reference loop next to every job and scaling the job's wall time by
REFERENCE_S / (loop time) gives its time at one fixed reference speed,
which removes most of that swing.  The loop's own time is never part of a
job.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.001  # the loop's time at the reference speed


def reference_loop():
    """Fixed work of the kind the package does: Fraction arithmetic, tuple
    hashing and dict stores."""
    total, seen = Fraction(0), {}
    for i in range(1, 400):
        total += Fraction(1, i % 13 + 1)
        seen[(i % 50, i)] = total
    return len(seen)


class Gauge:
    """Loop timings over time: one at most every EVERY seconds."""

    EVERY = 0.05
    WINDOW = 0.25

    def __init__(self):
        self.times: list[float] = []
        self.loops: list[float] = []

    def tick(self, force=False):
        if force or not self.times or perf_counter() - self.times[-1] >= self.EVERY:
            start = perf_counter()
            reference_loop()
            self.times.append(perf_counter())
            self.loops.append(self.times[-1] - start)

    def factor(self, start, end):
        """REFERENCE_S over the median loop time within WINDOW seconds of
        the interval [start, end]; multiply a wall time by it."""
        lo = bisect_left(self.times, start - self.WINDOW)
        hi = bisect_right(self.times, end + self.WINDOW)
        return REFERENCE_S / statistics.median(self.loops[lo:hi])

    def median_factor(self):
        return REFERENCE_S / statistics.median(self.loops)
