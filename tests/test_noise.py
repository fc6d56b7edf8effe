from math import sqrt
from typing import NamedTuple

import numpy as np
import pytest

from onlinectrl._ziggurat import KI, WI
from onlinectrl.noise import (NoiseProcess, population_sigma_lower, population_sigma_w,
                              population_sigma_w4, sample, sample_episode)
from onlinectrl.rng import STREAM_NOISE, keyed_blocks, keyed_rng

_ESTIMATION_STREAM = 3  # apart from the noise (1) and cost (2) streams


def _draw(proc: NoiseProcess, rng: np.random.Generator, shape) -> np.ndarray:
    """Draws of the process's family with the given shape from one generator,
    in plain numpy: the reference the keyed noise path is checked against."""
    if proc.family == "gaussian":
        return proc.scale * rng.standard_normal(shape)
    if proc.family == "laplace":
        return rng.laplace(0.0, proc.scale, size=shape)
    if proc.family == "student_t":
        return proc.scale * rng.standard_t(proc.df, size=shape)
    # scaled_bernoulli: +-scale equiprobably per component
    return proc.scale * (2.0 * rng.integers(0, 2, size=shape) - 1.0)


class MomentEstimate(NamedTuple):
    """sigma_w_1 ~ E||w||, sigma_w_4 ~ (E||w||^4)^(1/4), and sigma_lower ~
    sigma-underbar, the root of the smallest covariance eigenvalue."""

    sigma_w_1: float
    sigma_w_4: float
    sigma_lower: float
    samples: int


def estimate_moments(proc: NoiseProcess, n_samples: int) -> MomentEstimate:
    """Monte-Carlo oracle for the population moments: n_samples draws from
    one generator on a stream of its own, not the per-step noise stream."""
    X = _draw(proc, keyed_rng(proc.seed, _ESTIMATION_STREAM, 0), (n_samples, proc.dim))
    norms = np.linalg.norm(X, axis=1)
    cov = np.cov(X, rowvar=False).reshape(proc.dim, proc.dim)
    lam_min = float(np.linalg.eigvalsh(cov).min())
    return MomentEstimate(sigma_w_1=float(norms.mean()),
                          sigma_w_4=float(np.mean(norms ** 4) ** 0.25),
                          sigma_lower=sqrt(max(lam_min, 0.0)), samples=n_samples)


def test_sample_determinism_and_negative_time():
    proc = NoiseProcess(family="gaussian", scale=1.0, dim=3, seed=42)
    np.testing.assert_array_equal(sample(proc, 5), sample(proc, 5))
    assert not np.array_equal(sample(proc, 5), sample(proc, 6))
    np.testing.assert_array_equal(sample(proc, -1), np.zeros(3))
    np.testing.assert_array_equal(sample(proc, -7), np.zeros(3))


def test_seed_separates_streams():
    a = NoiseProcess(family="laplace", scale=0.5, dim=2, seed=1)
    b = NoiseProcess(family="laplace", scale=0.5, dim=2, seed=2)
    assert not np.array_equal(sample(a, 0), sample(b, 0))


def test_zero_family_and_zero_scale():
    z = NoiseProcess(family="zero", scale=1.0, dim=2, seed=0)
    np.testing.assert_array_equal(sample(z, 3), np.zeros(2))
    q = NoiseProcess(family="gaussian", scale=0.0, dim=2, seed=0)
    np.testing.assert_array_equal(sample(q, 3), np.zeros(2))
    assert population_sigma_w(z) == 0.0
    assert population_sigma_w4(z) == 0.0


@pytest.mark.parametrize("family,scale,df", [
    ("gaussian", 1.3, None), ("laplace", 0.6, None), ("student_t", 0.5, 5.0),
    ("scaled_bernoulli", 0.9, None), ("zero", 1.0, None), ("gaussian", 0.0, None),
])
def test_sample_episode_equals_per_step_draws(family, scale, df):
    proc = NoiseProcess(family=family, scale=scale, dim=3, seed=2024, df=df)
    ws = sample_episode(proc, 50)
    assert ws.shape == (50, 3)
    per_step = np.stack([sample(proc, t) for t in range(50)])
    assert ws.tobytes() == per_step.tobytes()


_DRAWING = [("gaussian", 1.3, None), ("laplace", 0.6, None), ("student_t", 0.5, 5.0),
            ("scaled_bernoulli", 0.9, None)]
_ORACLE_SEED = 2**64 + 7


def _first_misses(seed: int, dim: int, T: int) -> np.ndarray:
    """Strip index (a word's low 8 bits) of the first component of each of
    steps 0..T-1 that leaves numpy's ziggurat fast path, from the steps'
    Philox words; -1 where every component takes it."""
    words = keyed_blocks(seed, STREAM_NOISE, np.arange(T, dtype=np.uint64), -(-dim // 4))
    words = words[:, :dim]
    idx = (words & 0xff).astype(np.intp)
    miss = ((words >> 9) & ((1 << 52) - 1)) >= KI[idx]
    return np.where(miss.any(axis=1), idx[np.arange(T), miss.argmax(axis=1)], -1)


@pytest.mark.parametrize("family,scale,df", _DRAWING)
@pytest.mark.parametrize("dim", [1, 3, 8, 9])
def test_sample_episode_equals_one_generator_per_step(family, scale, df, dim):
    """Oracle: a fresh keyed generator per step, drawn through _draw. The
    Gaussian steps leave the normal's fast path both in a strip (idx > 0)
    and in its tail (idx 0)."""
    T = 40
    if family == "gaussian":  # rows from Philox words: run to this seed's first tail at dim 1
        T = 3090
        firsts = _first_misses(_ORACLE_SEED, dim, T)
        assert (firsts > 0).any() and (firsts == 0).any()
    proc = NoiseProcess(family=family, scale=scale, dim=dim, seed=_ORACLE_SEED, df=df)
    oracle = np.stack([_draw(proc, keyed_rng(proc.seed, STREAM_NOISE, t), dim)
                       for t in range(T)])
    assert sample_episode(proc, T).tobytes() == oracle.tobytes()
    for t in (0, 39, 2**64 - 1, 2**64 + 3):  # the step counter wraps mod 2^64
        want = _draw(proc, keyed_rng(proc.seed, STREAM_NOISE, t), dim)
        assert sample(proc, t).tobytes() == want.tobytes()


@pytest.mark.parametrize("family,scale,df", _DRAWING + [("zero", 1.0, None)])
@pytest.mark.parametrize("dim", [1, 4])
def test_sample_episode_prefix_is_the_shorter_episode(family, scale, df, dim):
    """Every step keys its own draws, so the first T rows of a T_max-step
    episode are the T-step episode bit for bit. A batch selects each horizon's
    comparator from a prefix of one T_max replay and relies on this. The
    Gaussian prefixes end on the first row that leaves the ziggurat's fast
    path and run past it."""
    T_max = 700
    proc = NoiseProcess(family=family, scale=scale, dim=dim, seed=_ORACLE_SEED, df=df)
    full = sample_episode(proc, T_max)
    misses = np.flatnonzero(_first_misses(_ORACLE_SEED, dim, T_max) >= 0)
    assert misses.size >= 2 and misses[0] > 0
    for T in (1, int(misses[0]) + 1, int(misses[1]) + 2, T_max - 1, T_max):
        assert sample_episode(proc, T).tobytes() == full[:T].tobytes(), T


_NOR_R = 3.6541528853610088  # numpy's ziggurat_nor_r, where the tail strip begins


def test_ziggurat_tables_equal_numpys():
    """Fed one chosen word, numpy's standard_normal returns +-rabs * WI[idx]
    from that word alone for rabs < KI[idx] and reads more at KI[idx]."""
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    bitgen.random_raw(1)  # words 1..3 of the buffer, read after a word that misses
    fresh = bitgen.state

    def draw(word: int) -> tuple[float, bool]:
        """The draw when the next word is `word`, and whether it read only that word."""
        state = dict(fresh, buffer=np.array([word, *fresh["buffer"][1:]], np.uint64),
                     buffer_pos=0)
        bitgen.state = state
        x = gen.standard_normal()
        after = bitgen.state
        return x, after["buffer_pos"] == 1 and np.array_equal(after["state"]["counter"],
                                                               fresh["state"]["counter"])

    assert KI[1] == 0  # strip 1 never takes the fast path
    for idx in range(256):
        for sign in (0, 1):
            for rabs in ((1, int(KI[idx]) - 1) if idx != 1 else ()):
                x, one_word = draw(rabs << 9 | sign << 8 | idx)
                assert one_word and x == (-1) ** sign * (rabs * WI[idx]), (idx, sign, rabs)
            assert not draw(int(KI[idx]) << 9 | sign << 8 | idx)[1], (idx, sign)
    tail, one_word = draw(int(KI[0]) << 9)  # idx 0 past KI[0]: a draw from the tail
    assert not one_word and abs(tail) > _NOR_R


def test_family_validation():
    with pytest.raises(ValueError):
        NoiseProcess(family="cauchy", scale=1.0, dim=1, seed=0)
    with pytest.raises(ValueError):
        NoiseProcess(family="student_t", scale=1.0, dim=1, seed=0, df=4.0)
    with pytest.raises(ValueError):
        NoiseProcess(family="gaussian", scale=-1.0, dim=1, seed=0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="scale"):
            NoiseProcess(family="gaussian", scale=bad, dim=1, seed=0)
        with pytest.raises(ValueError, match="df"):
            NoiseProcess(family="student_t", scale=1.0, dim=1, seed=0, df=bad)
    for family in ("gaussian", "laplace", "scaled_bernoulli", "zero"):
        with pytest.raises(ValueError, match="df applies only to student_t"):
            NoiseProcess(family=family, scale=1.0, dim=1, seed=0, df=5.0)


def test_scaled_bernoulli_support():
    proc = NoiseProcess(family="scaled_bernoulli", scale=0.7, dim=4, seed=9)
    for t in range(50):
        w = sample(proc, t)
        np.testing.assert_allclose(np.abs(w), 0.7)


def test_estimate_matches_population_gaussian():
    proc = NoiseProcess(family="gaussian", scale=0.7, dim=3, seed=5)
    est = estimate_moments(proc, n_samples=100_000)
    assert est.samples == 100_000
    # Hoelder ordering with sampling slack
    assert est.sigma_w_4 >= est.sigma_w_1 * 0.95
    assert abs(est.sigma_lower - 0.7) < 0.05 * 0.7
    assert abs(est.sigma_w_4 - population_sigma_w4(proc)) \
        < 0.05 * population_sigma_w4(proc)
    # E||w|| <= sqrt(E||w||^2) = population bound
    assert est.sigma_w_1 <= population_sigma_w(proc) * 1.01


def test_population_moments_against_monte_carlo():
    # families with a finite eighth moment give stable 4th-moment estimates
    cases = [
        NoiseProcess(family="gaussian", scale=1.3, dim=2, seed=11),
        NoiseProcess(family="laplace", scale=0.6, dim=3, seed=12),
        NoiseProcess(family="scaled_bernoulli", scale=0.9, dim=2, seed=13),
    ]
    for proc in cases:
        n = 200_000
        X = sample_episode(proc, 2000)
        # the keyed draws agree with the one-generator estimator
        est = estimate_moments(proc, n_samples=n)
        norms4 = np.mean(np.linalg.norm(X, axis=1) ** 4) ** 0.25
        assert abs(norms4 - population_sigma_w4(proc)) \
            < 0.1 * population_sigma_w4(proc)
        assert abs(est.sigma_w_4 - population_sigma_w4(proc)) \
            < 0.05 * population_sigma_w4(proc)
        m2_emp = np.mean(X ** 2)
        assert abs(np.sqrt(m2_emp * proc.dim) - population_sigma_w(proc)) \
            < 0.05 * population_sigma_w(proc)


def test_student_t_variance_and_tail():
    # df = 5: component variance is scale^2 * 5/3; fourth moment exists
    proc = NoiseProcess(family="student_t", scale=1.0, dim=1, seed=21, df=5.0)
    est = estimate_moments(proc, n_samples=200_000)
    assert abs(est.sigma_lower - np.sqrt(5.0 / 3.0)) < 0.05 * np.sqrt(5.0 / 3.0)
    assert population_sigma_w(proc) == pytest.approx(np.sqrt(5.0 / 3.0))
    # 3 nu^2 / ((nu-2)(nu-4)) = 25 for nu = 5
    assert population_sigma_w4(proc) == pytest.approx(25.0 ** 0.25)


def test_population_sigma_w4_dimension_formula():
    # E||w||^4 = d E w_i^4 + d(d-1) (E w_i^2)^2 for iid components
    proc = NoiseProcess(family="gaussian", scale=1.0, dim=3, seed=33)
    expect = (3 * 3.0 + 3 * 2 * 1.0) ** 0.25
    assert population_sigma_w4(proc) == pytest.approx(expect)
    lap = NoiseProcess(family="laplace", scale=1.0, dim=2, seed=34)
    assert population_sigma_w4(lap) == pytest.approx((2 * 24 + 2 * 4) ** 0.25)
