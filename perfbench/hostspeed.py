"""Reference kernels that measure how fast the host runs at the moment.

The speed of a shared 2-vCPU VM swings by up to 2x over seconds to
minutes.  Process CPU time swings with it and steal time stays near zero, so
the cause is load on the physical host, not time slicing, and a longer run
does not average it away.  A run therefore times a fixed kernel that does
not touch ddforge between its scans, and reports each scan time scaled to
the kernel's nominal time:

    reported_ms = wall_ms * NOMINAL_MS[kernel] / kernel_ms

where kernel_ms is the mean of the kernel samples taken just before and just
after the scan.

Each workload uses the kernel whose speed tracks its own (workloads.py,
SPEED_KERNEL): interpreter-bound Python, mpmath matrix products for
order-extended, or dense complex BLAS for order-d64, whose scans slow down
far less than Python code on a loaded host.
"""

from __future__ import annotations

import gc
import time

import mpmath
import numpy as np

# Kernel times on a 2-vCPU 2.0 GHz Xeon VM at a typical moment; they only set
# the scale, so that reported times read close to wall times there.
NOMINAL_MS = {"python": 3.0, "mpmath": 3.2, "blas": 14.0}
# Between scans the kernel runs again once this much time has passed.
INTERVAL_S = 0.1

# A private context: a global precision left set by other code cannot change
# the mpmath kernel's work.
_MP = mpmath.MPContext()
_MP.dps = 40
_M = _MP.matrix([[_MP.mpc(i + 1, j - 2) / 7 for j in range(6)] for i in range(6)])

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((128, 128)) + 1j * _rng.standard_normal((128, 128))
_H = _A + _A.conj().T


def _python() -> None:
    acc = 0.0
    table = {}
    for i in range(20000):
        acc += (i * 0.5) % 7.0
        table[i & 255] = acc


def _mpmath() -> None:
    b = _M
    for _ in range(3):
        b = _M * b


def _blas() -> None:
    b = _A
    for _ in range(20):
        b = _A @ b
        b /= np.abs(b).max()
    np.linalg.eigh(_H)


KERNELS = {"python": _python, "mpmath": _mpmath, "blas": _blas}


def kernel_ms(kind: str) -> float:
    """Fastest of two runs of the kernel, with the garbage collector off."""
    fn = KERNELS[kind]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(2):
            t0 = time.perf_counter()
            fn()
            times.append((time.perf_counter() - t0) * 1e3)
        return min(times)
    finally:
        if was_enabled:
            gc.enable()


class HostSpeed:
    """Scale factors for scan times, from kernel samples taken between scans."""

    def __init__(self, kind: str):
        self.kind = kind
        self.samples: list[float] = []
        self._last = -float("inf")

    def sample(self) -> float:
        """The latest kernel time in ms, sampled again if it is stale."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.samples.append(kernel_ms(self.kind))
            self._last = time.perf_counter()
        return self.samples[-1]

    def scale(self, before: float, after: float) -> float:
        """Factor for a scan with kernel samples `before` and `after` it."""
        return NOMINAL_MS[self.kind] * 2.0 / (before + after)
