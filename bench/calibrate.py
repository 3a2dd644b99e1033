"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared virtual machine the same single-threaded code runs up to twice as
fast at one moment as at another, and CPU time drifts with wall time, so raw
timings of one commit spread by more than a regression bound from run to run.
Workers therefore time this kernel between ops and scale each op's wall time
by ``REF_KERNEL_S`` over the kernel's time around it: the benchmark's times
are seconds at the speed where the kernel takes ``REF_KERNEL_S``.  ``scale()``
does the same for a whole process from the mean of all its samples.  The
kernel calls no infidelay code, so no change to the library moves it.

Its mix follows the workloads: interpreted float arithmetic and dict stores,
numpy calls on tiny arrays (call overhead), and in-place numpy passes over
arrays the size of a deep-tail coefficient vector (memory bandwidth).
"""

from __future__ import annotations

import math
import time

import numpy as np

REF_KERNEL_S = 0.002  # about the kernel's time on the 2-vCPU machine of the seed numbers
_N = 70_000  # doubles, the length of the deep-tail delay sums


class Calibration:
    def __init__(self):
        self.samples: list = []
        self._a = np.zeros(_N)

    def _kernel(self) -> float:
        s, d = 0.0, {}
        for i in range(1500):
            s += math.sqrt(i * 0.5)
            d[i & 63] = s
        for _ in range(150):
            s += float(np.array((s, 1.0, 2.0)).sum())
        a = self._a
        for _ in range(8):
            np.add(a, 1.0, out=a)
            np.multiply(a, 0.5, out=a)
            s += float(a.sum())
        return s

    def run(self, reps: int) -> list:
        """Time the kernel reps times; return the new samples."""
        new = []
        for _ in range(reps):
            t0 = time.perf_counter()
            self._kernel()
            new.append(time.perf_counter() - t0)
        self.samples += new
        return new

    def mean_s(self) -> float:
        """Mean kernel time, without the fastest and slowest 5% of samples."""
        s = sorted(self.samples)
        cut = len(s) // 20
        return sum(s[cut : len(s) - cut]) / (len(s) - 2 * cut)

    def scale(self) -> float:
        return REF_KERNEL_S / self.mean_s()
