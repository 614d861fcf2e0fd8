"""Time intervals in reference seconds: wall time corrected for the machine's speed.

The machines this benchmark runs on are shared, and the speed of one core
drifts by up to 2x over tens of seconds as other tenants load the host.  A
fixed pure-Python calibration job, shaped like the engine's hot loops (tuple
copies, tuple-keyed dict lookups, blake2b digests of short keys), runs just
before and just after every timed interval.  The interval in reference
seconds is its wall time scaled by ``KERNEL_REF_S`` over the mean of those
two calibration times: the time it would have taken on a core that runs the
job in ``KERNEL_REF_S``.  A long interval takes the median of several job
runs on each side, because one job time is itself noisy by 10-20%.  The job
is the benchmark's own code, so no change to the package can move it.
"""

from __future__ import annotations

import hashlib
import statistics
from time import perf_counter

#: Calibration job seconds on a fast core of the reference machine (2-vCPU
#: Intel Xeon at 2.1 GHz, Python 3.11.7): the 10th percentile of 2153 runs
#: spread over 60 s, so reference seconds read close to wall seconds there.
KERNEL_REF_S = 0.0056


def calibration_job() -> int:
    acc = 0
    counts: dict[tuple[int, int], int] = {}
    for i in range(12000):
        key = (i & 255, i >> 8)
        counts[key] = counts.get(key, 0) + 1
        acc += hash(key) & 7
    frame = tuple(range(512))
    for _ in range(36):
        copy = list(frame)
        copy[acc & 511] = 0
        frame = tuple(copy)
        acc += sum(1 for x in frame if x & 3 == 0)
    for i in range(1350):
        acc += hashlib.blake2b(b"%d\x1fband\x1f%d" % (i, acc & 1023), digest_size=8).digest()[0]
    return acc


def kernel_seconds(samples: int = 1) -> float:
    """Median seconds of ``samples`` back-to-back runs of the calibration job."""
    times = []
    for _ in range(samples):
        t0 = perf_counter()
        calibration_job()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Stopwatch:
    """``with Stopwatch() as sw:`` times the block; afterwards ``sw.wall`` is
    its wall time, ``sw.factor`` the speed correction and ``sw.seconds`` the
    wall time in reference seconds.  The calibration runs outside the block's
    own timing, ``samples`` times on each side."""

    def __init__(self, samples: int = 1):
        self.samples = samples

    def __enter__(self) -> "Stopwatch":
        self._k0 = kernel_seconds(self.samples)
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.wall = perf_counter() - self._t0
        self.factor = 2 * KERNEL_REF_S / (self._k0 + kernel_seconds(self.samples))
        self.seconds = self.wall * self.factor
