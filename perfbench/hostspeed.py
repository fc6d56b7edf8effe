"""Host-speed reference for the benchmark's end-to-end timings.

The small shared VMs this benchmark runs on change speed by up to 2x, in
states that last from seconds to minutes, so raw timings of one program
spread across runs by more than any useful bound. A fixed kernel, written
here and calling nothing in onlinectrl, is timed between every timed block
of a run. An end-to-end metric is then the run's summed block time over
the summed time of the kernel calls around those blocks, times
KERNEL_REF_S: the time the blocks take on a host where the kernel takes
KERNEL_REF_S. A change to the program moves the blocks and not the kernel.

The kernel mixes what an episode step does: a Python integer loop, tiny
matrix products and a loop of small numpy calls (einsum, a Philox draw,
a 4x4 SVD, a norm).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

KERNEL_REF_S = 0.05

_rng = np.random.default_rng(0)
_D = _rng.random((4, 4))
_A = 0.2 * _rng.standard_normal((4, 4))
_M = 0.01 * _rng.standard_normal((31, 4, 4))
_W = _rng.standard_normal((31, 4))


def kernel() -> float:
    acc = 0
    for j in range(100_000):
        acc += j * j
    for _ in range(4000):
        acc += float(np.dot(_D, _D).sum())
    x, m = np.zeros(4), _M.copy()
    for s in range(400):
        u = np.einsum("hij,hj->i", m, _W)
        g = np.random.Generator(np.random.Philox(key=s)).standard_normal(4)
        x = _A @ x + 0.1 * u + g
        top = np.linalg.svd(m[s % 31], compute_uv=False)[0]
        m = m - 1e-3 * np.einsum("i,hj->hij", x, _W) / (1.0 + top)
        acc += float(np.linalg.norm(x))
    return acc


def kernel_s() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class HostClock:
    """Times the kernel between blocks and keeps, per metric, each block's
    raw value with the mean of the kernel times just before and after it.

    A block is everything since the previous probe, so record each timed
    block right after it ends.
    """

    def __init__(self, probe=kernel_s):
        self._probe = probe
        probe()                    # warm-up
        self._last = probe()
        self.blocks = {}           # metric -> [(raw value, kernel s)]

    def add(self, name: str, raw: float) -> None:
        now = self._probe()
        self.blocks.setdefault(name, []).append((raw, (self._last + now) / 2))
        self._last = now

    def scaled(self, name: str) -> float:
        """KERNEL_REF_S * sum of raw values / sum of their kernel times."""
        raw, ker = zip(*self.blocks[name])
        return KERNEL_REF_S * sum(raw) / sum(ker)

    def kernel_median(self) -> float:
        return statistics.median(k for b in self.blocks.values() for _, k in b)
