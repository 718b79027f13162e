"""The machine-speed reference that the benchmark's timings are scaled by.

A shared virtual CPU can run the same code at half speed for a minute and at
full speed the next, so raw wall times of identical runs spread by more than
any useful regression bound.  The benchmark therefore times a fixed
calibration kernel between trials and scales every trial by the kernel's
speed around it: a trial that took ``d`` seconds while the kernel took ``c``
is reported as ``d * NOMINAL_S / c`` seconds, its wall time on a machine
where the kernel takes ``NOMINAL_S``.

The kernel calls nothing from robustmean, so a faster library lowers the
scaled times as much as the raw ones.  It mixes what the trials spend their
time on: interpreter overhead around many small numpy calls, and a few
larger matrix products.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel time on the 2-vCPU x86_64 VM the benchmark was written on, in its
# fast phases (Python 3.11, numpy 2.4, one BLAS thread).
NOMINAL_S = 0.040
ROUNDS = 360

_rng = np.random.default_rng(20190702)
_MATRIX = _rng.standard_normal((20, 20))
_MATRIX = _MATRIX @ _MATRIX.T
_SAMPLES = _rng.standard_normal((400, 20))
_PROBES = _rng.standard_normal((256, 3))


def kernel_seconds() -> float:
    """Wall time of one run of the fixed calibration kernel."""
    clock = time.perf_counter
    start = clock()
    v = np.ones(20)
    for _ in range(ROUNDS):
        for _ in range(8):
            w = _MATRIX @ v
            v = w / np.linalg.norm(w)
        centred = _SAMPLES - _SAMPLES.mean(axis=0)
        scores = (centred @ v) ** 2
        np.sort(scores)
        d2 = _PROBES @ _PROBES[:32].T
        d2.min(axis=1)
    return clock() - start


class Speedometer:
    """Scales timed spans by the kernel times measured around them.

    Call ``measure`` once before the first span; ``add`` then records each
    span and runs the kernel again after every ``interval`` seconds of spans,
    and ``finish`` runs it after the last one.  Each span is scaled by the
    mean of the two kernel times that bracket it.
    """

    def __init__(self, interval: float):
        self.interval = interval
        self.kernel = []  # seconds of each kernel run
        self._spans = []  # (raw seconds, index of the kernel run before it)
        self._since = 0.0

    def measure(self) -> None:
        self.kernel.append(kernel_seconds())
        self._since = 0.0

    def add(self, seconds: float) -> None:
        self._spans.append((seconds, len(self.kernel) - 1))
        self._since += seconds
        if self._since >= self.interval:
            self.measure()

    def finish(self) -> None:
        if self._spans and self._spans[-1][1] == len(self.kernel) - 1:
            self.measure()

    def scaled(self) -> list:
        """Each span's seconds at the nominal speed, in the order added."""
        kernel = self.kernel
        return [seconds * 2.0 * NOMINAL_S / (kernel[k] + kernel[k + 1])
                for seconds, k in self._spans]
