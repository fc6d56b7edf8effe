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
_ROUNDS = 10
_LOW32, _SHIFT32 = np.uint64(0xFFFFFFFF), np.uint64(32)
# both multipliers as a (2, 1, 1) column, whole and in 32-bit halves
_M = np.array(_PHILOX_M, dtype=np.uint64)[:, None, None]
_M_HI, _M_LO = _M >> _SHIFT32, _M & _LOW32


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


def _mulhilo(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products _M * x, the high one from
    32-bit halves. The middle sum (m_lo x_lo >> 32) + (m_lo x_hi mod 2^32)
    + m_hi x_lo stays below 2^64, so it needs no carry word."""
    x_hi, x_lo = x >> _SHIFT32, x & _LOW32
    lo_hi = _M_LO * x_hi
    mid = _M_LO * x_lo
    mid >>= _SHIFT32
    mid += lo_hi & _LOW32
    mid += _M_HI * x_lo
    hi = _M_HI * x_hi
    hi += lo_hi >> _SHIFT32
    hi += mid >> _SHIFT32
    return hi, _M * x


def keyed_blocks(seed: int, stream: int, steps: np.ndarray, blocks: int = 1) -> np.ndarray:
    """Row i is keyed_rng(seed, stream, steps[i]).bit_generator.random_raw(4 * blocks).

    numpy's Philox bumps its counter before each block, so block k of a
    step is Philox4x64-10 of counter (k + 1, 0, stream, t) under the key
    (seed mod 2^64, (seed >> 64) mod 2^64): integer arithmetic computed
    here for every block of every step at once, bit for bit. A round's two
    multiplies run as one (2, steps, blocks) array: mul holds the words
    (x0, x2) that are multiplied, other the words (x1, x3) that are not.
    """
    t = np.asarray(steps, dtype=np.uint64)
    mul = np.empty((2, t.shape[0], blocks), np.uint64)
    other = np.zeros_like(mul)
    mul[0] = np.arange(1, blocks + 1, dtype=np.uint64)
    mul[1] = stream & _MASK64
    other[1] = t[:, None]
    k0, k1 = seed & _MASK64, (seed >> 64) & _MASK64
    keys = np.array([[(k0 + r * _PHILOX_W[0]) & _MASK64, (k1 + r * _PHILOX_W[1]) & _MASK64]
                     for r in range(_ROUNDS)], dtype=np.uint64)[:, :, None, None]
    for key in keys:
        hi, lo = _mulhilo(mul)
        # (x0, x1, x2, x3) <- (hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0)
        hi = hi[::-1]
        hi ^= other
        hi ^= key
        mul, other = hi, lo[::-1]
    return np.stack([mul, other], axis=-1).transpose(1, 2, 0, 3).reshape(t.shape[0], 4 * blocks)


def mix_seed(base: int, k: int) -> int:
    """Derive a child seed from (base, k), stable across runs."""
    ss = np.random.SeedSequence(entropy=(int(base) & _MASK64, int(k) & _MASK64))
    return int(ss.generate_state(1, np.uint64)[0])
