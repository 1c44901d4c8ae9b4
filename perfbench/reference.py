"""A fixed reference kernel that measures the speed of the machine itself.

The benchmark runs on a few cores of a shared host whose speed drifts by
20-40% over minutes, as other tenants load the memory system and caches.
A run that falls in a slow spell reads slow from start to end, so no
statistic inside the run can remove it.  The measuring child therefore times
this kernel between ops (never inside one) and the run reports its times
scaled by the kernel's nominal time over its measured median: the program's
time on a machine as fast as the one the nominal times were taken on.

Each workload names the kernel that stresses what it stresses:
- ``python``: exact ``Fraction`` arithmetic, dict updates, a JSON round trip
  and a string sort, like the certify path's exact schedule and artifacts and
  the estimators' many small calls;
- ``numpy``: float32 array passes over freshly allocated 16 MB arrays, like
  the disc oracle's kernels and their page faults.

On five seeds per workload in a noisy hour, this cut the spread (quartile
distance over median) of the pass time from 22% to 6% on certify, from 19%
to 4% on oracle and from 24% to 8-14% on estimate.  Neither kernel calls into
squeeze, so a change to the program moves them only through process-wide
state (garbage-collector thresholds, numpy threads): compare the speed
factor each run prints when a change touches such state.
"""

from __future__ import annotations

import json
import statistics
import time
from fractions import Fraction

import numpy

# Scale of the norm_ times: each kernel's time in the fastest tenth of 130
# samples taken on a 2-vCPU shared VM (Intel Xeon, Python 3.11.7, numpy
# 2.4.6, one BLAS thread).  Changing a value rescales every norm_ metric.
NOMINAL_S = {"python": 0.110, "numpy": 0.055}
# A gap between ops of n sampling intervals takes n samples, at most this
# many, so a workload of few long ops gets about as many samples as the rest.
MAX_SAMPLES_PER_GAP = 4


def python_kernel() -> int:
    acc = Fraction(0)
    table: dict[int, int] = {}
    for i in range(1, 6000):
        acc += Fraction(i % 97, i)
        table[i % 1009] = (table.get(i % 1009, 0) + i) % 7919
        if i % 1000 == 0:
            acc = acc.limit_denominator(10**12)
    doc = json.loads(json.dumps({str(k): [v, str(acc)] for k, v in table.items()}))
    return len(sorted(str(k * 7919 % 10007) for k in range(10000))) + len(doc)


def numpy_kernel() -> float:
    x = numpy.linspace(-3.0, 3.0, 1 << 22, dtype=numpy.float32)
    total = 0.0
    for _ in range(3):
        y = numpy.abs(x * numpy.float32(1.0001) + numpy.float32(0.5))
        total += float(numpy.sqrt(y).sum())
    return total


KERNELS = {"python": python_kernel, "numpy": numpy_kernel}


class Reference:
    """Timed samples of one kernel, taken between ops about every ``every_s``
    seconds of the run."""

    def __init__(self, kernel: str, every_s: float):
        self.kernel = kernel
        self.every_s = every_s
        self.samples: list[float] = []
        self._last: float | None = None

    def sample_if_due(self) -> None:
        gap = self.every_s if self._last is None else time.perf_counter() - self._last
        if gap < self.every_s:
            return
        for _ in range(min(MAX_SAMPLES_PER_GAP, int(gap / self.every_s))):
            t0 = time.perf_counter()
            KERNELS[self.kernel]()
            self.samples.append(time.perf_counter() - t0)
        self._last = time.perf_counter()


def speed_factor(kernel: str, samples: list[float]) -> float:
    """Median measured over nominal time of the kernel (above 1: a slow machine)."""
    return statistics.median(samples) / NOMINAL_S[kernel]
