import numpy as np
import pytest

from onlinectrl.rng import keyed_blocks, keyed_rng, keyed_steps

# the first steps, and the last two before the step counter wraps
_STEPS = [*range(8), 2**64 - 2, 2**64 - 1]
_SEEDS = [0, 2**64 - 5, 2**64 + 7]
_STREAMS = [1, 2, 2**64 - 1]


# a step's first block on every stream, and its first two and three blocks
_BLOCKS = [pytest.param(stream, blocks, id=f"{stream}" if blocks == 1 else f"{stream}x{blocks}")
           for blocks in (1, 2, 3) for stream in _STREAMS]


@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize("stream,blocks", _BLOCKS)
def test_keyed_blocks_equal_random_raw(seed, stream, blocks):
    got = keyed_blocks(seed, stream, np.array(_STEPS, dtype=np.uint64), blocks)
    want = np.array([keyed_rng(seed, stream, t).bit_generator.random_raw(4 * blocks)
                     for t in _STEPS])
    assert got.dtype == np.uint64
    np.testing.assert_array_equal(got, want)


def test_keyed_blocks_of_no_steps():
    assert keyed_blocks(3, 2, np.arange(0, dtype=np.uint64)).shape == (0, 4)


# Each item's draw leaves the generator in a different state for the next
# item to reset: a buffered 32-bit half (odd-size 32-bit integers), several
# blocks used (nine normals, gamma rejection in standard_t), or a partly
# used block. The 32-bit and 64-bit draws after them would read the stale
# half or buffer words if the reset missed them.
_DRAWS = (
    lambda rng: rng.integers(0, 2, size=3),
    lambda rng: rng.integers(0, 1000, size=1),
    lambda rng: rng.standard_normal(9),
    lambda rng: rng.uniform(size=1),
    lambda rng: rng.integers(0, 2**31, size=5),
    lambda rng: rng.standard_t(5.0, size=2),
    lambda rng: rng.random(2),
)


@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize("stream", _STREAMS)
def test_keyed_steps_equal_fresh_generators(seed, stream):
    for offset in range(len(_DRAWS)):  # every draw follows every other draw somewhere
        for i, (t, rng) in enumerate(zip(_STEPS, keyed_steps(seed, stream, _STEPS))):
            draw = _DRAWS[(i + offset) % len(_DRAWS)]
            assert draw(rng).tobytes() == draw(keyed_rng(seed, stream, t)).tobytes(), (t, i)
