"""How fast this host runs pure Python right now, for speed-normalized times.

On a shared VM the speed of pure-Python code drifts by up to 1.7x, in
episodes lasting seconds, as other tenants load the same physical cores.  An
18-second run catches only a few such episodes, so raw wall times of the same
code differ by 20-40% from run to run.  To take that drift out, the timed
loop samples a fixed reference kernel (no palwidth code) every INTERVAL_S,
and each op's wall time is divided by the host's slowdown around it: the
median of the nearest kernel samples over NOMINAL_S.

A change to palwidth changes op wall times but not the kernel, so it shows in
the normalized times in full.  Normalized times read as wall times at the
nominal speed; raw wall times are reported beside them.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

INTERVAL_S = 0.25
REPEATS = 3           # a sample is the fastest of REPEATS kernel runs
NEIGHBOURS = 2        # samples taken on each side of a timed span
# The kernel's time at nominal speed: the faster of the two states of a
# 2-vCPU, 2.1 GHz shared VM running Python 3.11.
NOMINAL_S = 1.0e-3


def kernel() -> int:
    """Dict, tuple and int work of the kind palwidth's evaluators do."""
    counts: dict[tuple[int, int], int] = {}
    for i in range(3000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + i
    return len(sorted(counts.items()))


class HostSpeed:
    """Kernel samples over time, and the slowdown they imply for a span."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.seconds: list[float] = []

    def sample(self) -> None:
        """Time the kernel, with the garbage collector held off so that
        objects left by palwidth cannot slow the sample down."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            best = float("inf")
            for _ in range(REPEATS):
                start = time.perf_counter()
                kernel()
                best = min(best, time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        self.times.append(time.perf_counter())
        self.seconds.append(best)

    def due(self) -> bool:
        return not self.times or time.perf_counter() - self.times[-1] >= INTERVAL_S

    def slowdown(self, start: float, end: float) -> float:
        """The host's slowdown over [start, end] relative to nominal speed:
        the median of the NEIGHBOURS samples before `start`, those within,
        and the NEIGHBOURS after `end`, over NOMINAL_S."""
        lo = max(0, bisect.bisect_left(self.times, start) - NEIGHBOURS)
        hi = bisect.bisect_right(self.times, end) + NEIGHBOURS
        return statistics.median(self.seconds[lo:hi]) / NOMINAL_S

    def median_slowdown(self) -> float:
        return statistics.median(self.seconds) / NOMINAL_S
