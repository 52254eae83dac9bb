"""Scaling measured times to a reference machine speed.

The benchmark runs on shared hosts whose speed shifts by up to 1.7x for
seconds to minutes at a time, which no run length averages away. So a run
interleaves a fixed calibration kernel with its operations, one kernel after
each ``CAL_EVERY_S`` of operation time, and scales every time it measures by
``CAL_REF_S / c``. Here ``c`` is the mean duration of the ``2 * WINDOW + 1``
kernels nearest in time to the measurement. A scaled time is the time the
same work would take on a machine where the kernel takes ``CAL_REF_S``.

The kernel is the benchmark's own code and runs nothing of ``slopebound``, so
a change to the program cannot move it. It does the kind of work the program
does: ``Fraction`` matrix arithmetic, big-integer products and dict updates
on tuple keys, about 5 ms. The host slows such work mostly by taking the CPU
away for a few milliseconds at a time, which a kernel either misses or takes
in full; the mean over the window counts those losses as the workload feels
them, where the median would drop them.
"""

from __future__ import annotations

import statistics
from array import array
from bisect import bisect_left
from fractions import Fraction
from time import perf_counter

# Mean kernel time on the reference machine (shared 2-vCPU Intel Xeon VM, Python 3.11.7).
CAL_REF_S = 0.0055
# operation time between two kernels
CAL_EVERY_S = 0.1
# kernels on each side of a measurement that set its scale
WINDOW = 10


def kernel() -> None:
    """Fixed work: Faddeev-LeVerrier on a 5x5 Fraction matrix, big-int products, dict updates."""
    n = 5
    a = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 3) for j in range(n)] for i in range(n)]
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        am = [[sum(a[i][l] * m[l][j] for l in range(n)) for j in range(n)] for i in range(n)]
        c = -sum(am[i][i] for i in range(n)) / k
        m = [[am[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
    x = 3**900
    modulus = 7**600
    for i in range(30):
        x = (x * (x >> 1000) + i) % modulus
    counts: dict = {}
    for i in range(1500):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + i


class SpeedLog:
    """Start time and duration of every kernel run, and the scale they give."""

    def __init__(self) -> None:
        self.starts = array("d")
        self.durations = array("d")
        self._averaged: list[float] | None = None

    def calibrate(self, times: int = 1) -> None:
        for _ in range(times):
            start = perf_counter()
            kernel()
            self.durations.append(perf_counter() - start)
            self.starts.append(start)
        self._averaged = None

    def recent_scale(self) -> float:
        """Scale from the last WINDOW + 1 kernels, for deciding when a run has done enough work."""
        return CAL_REF_S / statistics.fmean(self.durations[-(WINDOW + 1):])

    def scale_at(self, when: float) -> float:
        """CAL_REF_S over the mean duration of the kernels nearest to `when`."""
        if self._averaged is None:
            d = self.durations
            self._averaged = [statistics.fmean(d[max(0, i - WINDOW): i + WINDOW + 1]) for i in range(len(d))]
        i = min(bisect_left(self.starts, when), len(self.starts) - 1)
        if i > 0 and when - self.starts[i - 1] < self.starts[i] - when:
            i -= 1
        return CAL_REF_S / self._averaged[i]

    def summary(self) -> dict:
        d = sorted(self.durations)
        return {"kernels": len(d), "ref_s": CAL_REF_S, "mean_s": statistics.fmean(d),
                "median_s": statistics.median(d), "p10_s": d[len(d) // 10], "p90_s": d[(9 * len(d)) // 10]}
