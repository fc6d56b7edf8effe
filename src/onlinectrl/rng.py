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
    is several times cheaper than building a generator per step. Draw from
    each item before advancing to the next.
    """
    rng = keyed_rng(seed, stream)
    fresh = rng.bit_generator.state
    counter = fresh["state"]["counter"]  # (0, 0, stream, step): only the step changes
    for t in steps:
        counter[3] = t & _MASK64
        rng.bit_generator.state = fresh
        yield rng


def mix_seed(base: int, k: int) -> int:
    """Derive a child seed from (base, k), stable across runs."""
    ss = np.random.SeedSequence(entropy=(int(base) & _MASK64, int(k) & _MASK64))
    return int(ss.generate_state(1, np.uint64)[0])
