import numpy as np
import pytest

from onlinectrl.rng import keyed_blocks, keyed_rng

# the first steps, and the last two before the step counter wraps
_STEPS = [*range(8), 2**64 - 2, 2**64 - 1]


@pytest.mark.parametrize("seed", [0, 2**64 - 5, 2**64 + 7])
@pytest.mark.parametrize("stream", [1, 2, 2**64 - 1])
def test_keyed_blocks_equal_random_raw(seed, stream):
    got = keyed_blocks(seed, stream, np.array(_STEPS, dtype=np.uint64))
    want = np.array([keyed_rng(seed, stream, t).bit_generator.random_raw(4) for t in _STEPS])
    assert got.dtype == np.uint64
    np.testing.assert_array_equal(got, want)


def test_keyed_blocks_of_no_steps():
    assert keyed_blocks(3, 2, np.arange(0, dtype=np.uint64)).shape == (0, 4)
