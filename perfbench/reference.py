"""Fixed reference computations that gauge the machine's current speed.

On a small shared host the same code runs at speeds that drift by tens of
per cent over seconds to minutes (neighbours' load, shared cores, clock
changes), and process CPU time drifts with wall time, so neither is a
steady measure of the program.  The benchmark therefore times reference
kernels, which do not touch carsdj, next to every op, and divides each
measured time by the machine's slowness at that moment (kernel time over
its time on the reference machine): the result is the time the op would
take on the reference machine.  A change to carsdj does not change the
kernels, so it shows in full in the scaled times.

Contention does not slow all code alike.  Interpreted Python with
element-wise numpy on small arrays (the per-instance path of landscape
and the CLI) and a LAPACK eigensolve of a matrix of a few hundred rows
(the DVR, most of param-scan) drift differently: on a 2-CPU shared
virtual machine, scaling the param-scan op by the interpreter kernel
left it drifting more than unscaled, and scaling a landscape cell by the
eigensolve kernel left it drifting about three times as much as scaling
it by the interpreter kernel.  So there are two kernels, and each
workload weighs them by its share of time in the DVR.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np
import scipy.linalg

# Kernel times on the reference machine: they set the unit of every
# reference time the benchmark reports, not the measurement.
INTERPRETER_S = 1.25e-3
EIGENSOLVE_S = 1.6e-3


class Gauge:
    """Samples the machine's slowness, 1.0 at the reference speed.

    ``eigensolve_share`` is the weight of the eigensolve kernel, the rest
    goes to the interpreter kernel; a kernel of weight 0 is not run.
    """

    def __init__(self, eigensolve_share: float, repeats: int = 3) -> None:
        rng = np.random.default_rng(20011004)
        small = rng.standard_normal((32, 32))
        self._small = small + small.T
        large = rng.standard_normal((128, 128))
        self._large = large + large.T
        self._points = rng.standard_normal(2048)
        self.eigensolve_share = eigensolve_share
        self.repeats = repeats
        self.samples: list[float] = []

    def _interpreter(self) -> float:
        total = 0
        for i in range(1200):
            total += (i * 7) % 13
        x = self._points
        for _ in range(20):
            total += float(np.sum(np.exp(-x * x) * np.cos(3.0 * x)))
        for _ in range(3):
            total += float(np.linalg.eigvalsh(self._small)[0])
        return total

    def _eigensolve(self) -> float:
        values = scipy.linalg.eigh(self._large, subset_by_index=[0, 20], eigvals_only=True)
        return float(values[0])

    def _time(self, kernel) -> float:
        times = []
        for _ in range(self.repeats):
            start = perf_counter()
            kernel()
            times.append(perf_counter() - start)
        return statistics.median(times)

    def sample(self) -> float:
        """The machine's slowness now: weighted kernel time over reference time."""
        share = self.eigensolve_share
        slowness = 0.0
        if share < 1.0:
            slowness += (1.0 - share) * self._time(self._interpreter) / INTERPRETER_S
        if share > 0.0:
            slowness += share * self._time(self._eigensolve) / EIGENSOLVE_S
        self.samples.append(slowness)
        return slowness


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two slowness samples, in reference time."""
    return seconds * 2.0 / (before + after)
