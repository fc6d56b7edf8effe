"""Counter-based random number generation.

Every stochastic object in the package (noise processes, random cost
schedules) draws from a Philox generator keyed by (seed, stream, step).
A draw for step t never depends on draws for other steps, so episodes
replay bit-identically and steps can be generated out of order or in
parallel.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

_MASK64 = (1 << 64) - 1

# Stream ids keep independent consumers of the same seed apart.
STREAM_NOISE = 1
STREAM_COST = 2

# Philox4x64-10 round multipliers and key (Weyl) increments
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32 = np.uint64(0xFFFFFFFF)


def _counter(stream: int, step: int) -> np.ndarray:
    return np.array([0, 0, stream & _MASK64, step & _MASK64], dtype=np.uint64)


def keyed_rng(seed: int, stream: int, step: int = 0) -> np.random.Generator:
    """Generator for (seed, stream, step), independent across all three."""
    key = np.array([seed & _MASK64, (seed >> 64) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=_counter(stream, step)))


def keyed_steps(seed: int, stream: int,
                steps: Iterable[int]) -> Iterator[np.random.Generator]:
    """keyed_rng(seed, stream, t) for each t in steps, with identical draws.

    One generator is yielded over and over: its Philox counter and buffer
    are reset to the fresh (seed, stream, t) state before each yield, which
    is several times cheaper than building a generator per step. The state
    is held as plain ints, which the Philox state setter reads two to three
    times faster than uint64 arrays. Draw from each item before advancing
    to the next.
    """
    rng = keyed_rng(seed, stream)
    fresh = rng.bit_generator.state
    fresh["state"] = {name: words.tolist() for name, words in fresh["state"].items()}
    fresh["buffer"] = fresh["buffer"].tolist()
    counter = fresh["state"]["counter"]  # [0, 0, stream, step]: only the step changes
    for t in steps:
        counter[3] = t & _MASK64
        rng.bit_generator.state = fresh
        yield rng


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products m * x, the high one from 32-bit halves."""
    m_hi, m_lo = np.uint64(m >> 32), np.uint64(m & 0xFFFFFFFF)
    x_hi, x_lo = x >> np.uint64(32), x & _LOW32
    lo_lo, lo_hi, hi_lo = m_lo * x_lo, m_lo * x_hi, m_hi * x_lo
    carry = ((lo_lo >> np.uint64(32)) + (lo_hi & _LOW32) + (hi_lo & _LOW32)) >> np.uint64(32)
    hi = m_hi * x_hi + (lo_hi >> np.uint64(32)) + (hi_lo >> np.uint64(32)) + carry
    return hi, np.uint64(m) * x


def keyed_blocks(seed: int, stream: int, steps: np.ndarray, blocks: int = 1) -> np.ndarray:
    """Row i is keyed_rng(seed, stream, steps[i]).bit_generator.random_raw(4 * blocks).

    numpy's Philox bumps its counter before each block, so block k of a
    step is Philox4x64-10 of counter (k + 1, 0, stream, t) under the key
    (seed mod 2^64, (seed >> 64) mod 2^64): integer arithmetic computed
    here for every block of every step at once, bit for bit.
    """
    t = np.asarray(steps, dtype=np.uint64)[:, None]
    block_ids = np.arange(1, blocks + 1, dtype=np.uint64)
    shape = (t.shape[0], blocks)
    x = [np.broadcast_to(block_ids, shape), np.zeros(shape, np.uint64),
         np.full(shape, stream & _MASK64, np.uint64), np.broadcast_to(t, shape)]
    k0, k1 = seed & _MASK64, (seed >> 64) & _MASK64
    with np.errstate(over="ignore"):
        for _ in range(10):
            hi0, lo0 = _mulhilo(_PHILOX_M[0], x[0])
            hi1, lo1 = _mulhilo(_PHILOX_M[1], x[2])
            x = [hi1 ^ x[1] ^ np.uint64(k0), lo1, hi0 ^ x[3] ^ np.uint64(k1), lo0]
            k0, k1 = (k0 + _PHILOX_W[0]) & _MASK64, (k1 + _PHILOX_W[1]) & _MASK64
    return np.stack(x, axis=-1).reshape(t.shape[0], 4 * blocks)


def mix_seed(base: int, k: int) -> int:
    """Derive a child seed from (base, k), stable across runs."""
    ss = np.random.SeedSequence(entropy=(int(base) & _MASK64, int(k) & _MASK64))
    return int(ss.generate_state(1, np.uint64)[0])
