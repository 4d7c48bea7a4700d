"""Machine-speed calibration: fixed kernels timed around every operation.

The benchmark runs on shared virtual CPUs whose speed swings by about 1.5x
over periods of a fraction of a second to a minute, as other tenants load
the cores they share; the two vCPUs swing apart.  Averaging over a longer
run does not remove such swings: over five 20-second runs of one corpus the
interquartile range of plain wall times reached 0.4 of their median.  So
every timed operation is bracketed by a kernel that shares no code with
ppocp, timed on the same CPU just before and just after it, and the
operation's time is reported at reference speed:

    t_reference = t_measured * REFERENCE_S[kind] / mean(kernel before, kernel after)

The kernel must slow down as the operation does.  Interpreted Python and
small NumPy calls, which dominate the CLI, both consensus workloads and
every set-up, suffer most from a busy sibling core; the matrix-vector
products of the tall workload are bound by memory and suffer less.  Hence
two kernels, one of each kind.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Kernel times on an Intel Xeon vCPU at 2.1 GHz while its sibling core is
# idle, so that reference-speed times read as an unloaded machine measures.
REFERENCE_S = {"interp": 0.72e-3, "memory": 1.65e-3}


def _interp_kernel():
    rng = np.random.default_rng(0)
    M = rng.random((8, 6))
    v = rng.random(6)
    S = rng.random((6, 6)) + 6.0 * np.eye(6)

    def kernel():
        s = 0
        for i in range(6000):
            s += i * i
        d = {}
        for i in range(1500):
            d[i & 63] = d.get(i & 63, 0.0) + i * 0.5
        for _ in range(20):
            y = M @ v
            int(np.argmin(y))
            float(np.linalg.norm(y))
            np.linalg.solve(S, v)

    return kernel


def _memory_kernel():
    # 8 MB, the Gram matrix of a 1000-vertex instance.  It adds 8 MB to the
    # peak memory of the workload that uses this kernel.
    matrix = np.random.default_rng(0).random((1000, 1000))
    vector = np.ones(1000)

    def kernel():
        for _ in range(5):
            matrix @ vector

    return kernel


class Calibration:
    """Times one kind of kernel on the calling CPU."""

    def __init__(self, kind: str):
        self.reference_s = REFERENCE_S[kind]
        self._kernel = {"interp": _interp_kernel, "memory": _memory_kernel}[kind]()

    def seconds(self) -> float:
        t = perf_counter()
        self._kernel()
        return perf_counter() - t

    def scale(self, before: float, after: float) -> float:
        """Reference seconds per measured second, from the bracketing kernel times."""
        return 2.0 * self.reference_s / (before + after)
