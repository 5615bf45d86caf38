"""The machine's speed during a run.

The benchmark runs on shared machines whose speed drifts, by up to 1.8x,
over seconds to minutes, as other tenants load the host.  So a fixed
reference kernel, which uses nothing of strata-opt, is timed throughout a
run, between ops, about once per KERNEL_EVERY_S of elapsed time.  Every
time the benchmark reports is scaled towards the reference speed by
``factor(k)``, where k is the kernel's mean time over the run (around the
set-up sample, for set-up times).  The raw times stay in the details line
of every result.

The program's times move less than the kernel's with the load: across
runs, the elasticity of a workload's median op time to the kernel's time
was 0.2 to 1.4 (median about 0.6) on a 2-vCPU shared host.  So the scaling
is partial, with the exponent SPEED_EXPONENT.  In three sets of ten seeds
per workload, it kept the worst quartile spread of the time metrics at
0.18, against 0.38 with no scaling and 0.24 with full scaling.

The kernel mixes what strata-opt spends its time on: small dense linear
algebra through numpy (Cholesky factors, solves, products of 32x32
matrices, below OpenBLAS's threading threshold) and interpreted Python
over dicts keyed by exponent tuples.  The machine's slow and fast states
alternate within milliseconds, so single kernel times are bimodal; only
their mean over many samples tracks the speed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The kernel's time at the reference speed (2 vCPU, OpenBLAS 0.3.31,
# Python 3.11, an unloaded host).  A constant: never re-measured.
REFERENCE_KERNEL_MS = 1.5
SPEED_EXPONENT = 0.75
# During a run the kernel is timed between ops until there is one sample
# per KERNEL_EVERY_S of elapsed time, at most MAX_BURST at once.
KERNEL_EVERY_S = 0.05
MAX_BURST = 40

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((32, 32))
_S = _A @ _A.T + 32.0 * np.eye(32)


def kernel_ms() -> float:
    """Time the reference kernel once; returns milliseconds."""
    t0 = time.perf_counter()
    for _ in range(25):
        np.linalg.cholesky(_S)
        np.linalg.solve(_S, _A[:, 0])
        _A @ _S
    terms: dict = {}
    for i in range(3000):
        key = (i % 7, i % 11, i % 13)
        terms[key] = terms.get(key, 0.0) + 0.5 * i
    return (time.perf_counter() - t0) * 1e3


def factor(kernel_ms: float) -> float:
    """What a time measured while the kernel took kernel_ms is multiplied by."""
    return (REFERENCE_KERNEL_MS / kernel_ms) ** SPEED_EXPONENT


def mean_kernel_ms(repeats: int) -> float:
    return statistics.fmean(kernel_ms() for _ in range(repeats))


class SpeedLog:
    """Kernel times through a run."""

    def __init__(self):
        self.start = time.perf_counter()
        self.ms: list[float] = []

    def catch_up(self):
        """Time the kernel until the samples keep pace with the clock."""
        due = int((time.perf_counter() - self.start) / KERNEL_EVERY_S) + 1
        for _ in range(min(MAX_BURST, due - len(self.ms))):
            self.ms.append(kernel_ms())
