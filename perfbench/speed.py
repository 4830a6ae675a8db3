"""Host speed references for the benchmark's timings.

On a shared virtual machine the speed the host gives one process drifts by
tens of percent over seconds to minutes, and process CPU time drifts with it.
The benchmark therefore times a fixed reference kernel right before and
right after every timed interval and reports the interval scaled to the
reference speed:

    scaled seconds = wall seconds * ref_s / mean(median kernel seconds before,
                                                 median kernel seconds after)

Kinds of work slow down by different amounts when the host drifts, so there
is one kernel per kind the package spends its time on.  Measured on the
reference host over 100 s of alternating calls, the 6-second window medians
of a baseline sweep point (SVD-bound) varied with a coefficient of variation
of 20 %, and their ratio to the "svd" kernel by 3.5 %; those of a dual point
evaluation (interpreter-bound) varied by 16 %, and their ratio to the
"python" kernel by 3.7 %.  A scaled time is the wall time the interval takes
while the host runs at full speed; the wall times are kept in every run
record.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_MATRIX = np.exp(1j * np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, (36, 36)))


def _svd() -> None:
    for _ in range(4):
        np.linalg.svd(_MATRIX, compute_uv=False)


def _python() -> None:
    total = 0
    for i in range(10_000):
        total += i * i


# kind -> (kernel, its median seconds on the reference host at full speed:
# a 2-vCPU 2.1 GHz x86-64 virtual machine, one BLAS thread)
KERNELS = {
    "svd": (_svd, 0.00058),
    "python": (_python, 0.00058),
}


class Reference:
    """Times one kind of kernel and scales intervals by it."""

    def __init__(self, kind: str):
        self.kernel, self.ref_s = KERNELS[kind]

    def sample(self, budget_s: float) -> float:
        """Median seconds of kernel calls made for about `budget_s`, at least one."""
        out = []
        start = time.perf_counter()
        while not out or time.perf_counter() - start < budget_s:
            t0 = time.perf_counter()
            self.kernel()
            out.append(time.perf_counter() - t0)
        return statistics.median(out)

    def scale(self, seconds: float, before: float, after: float) -> float:
        """`seconds` of wall time scaled by the kernel medians around it."""
        return seconds * self.ref_s / (0.5 * (before + after))
