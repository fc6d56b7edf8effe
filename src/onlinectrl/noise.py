"""Disturbance processes with replayable per-step sampling.

sample(proc, t) is a pure function of (proc.seed, t): each step keys its
own counter-based generator, so episodes replay bit-identically and any
window of steps can be regenerated without generating its past.
sample_episode(proc, T) draws w_0..w_{T-1} in one call with the same
values. Gaussian rows of every step are computed at once from the steps'
Philox words with numpy's ziggurat rule; the other families reset one
generator per step.

Families cover the regimes the regret guarantees care about: gaussian
(sub-Gaussian, the logarithmic-regret assumptions hold), laplace (finite
fourth moment, *not* sub-Gaussian, so only the sqrt(T) guarantee
applies), student_t with df > 4 (heavy-tailed, fourth moment finite),
scaled_bernoulli (bounded), and zero (sanity checks).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, sqrt
from typing import Optional

import numpy as np

from ._ziggurat import KI, WI
from .rng import STREAM_NOISE, keyed_blocks, keyed_steps

_FAMILIES = ("gaussian", "laplace", "student_t", "scaled_bernoulli", "zero")
# the families under which the logarithmic-regret assumptions hold
SUBGAUSSIAN_FAMILIES = ("gaussian", "scaled_bernoulli", "zero")
# the ziggurat tables indexed by a word's low 9 bits: strip idx and sign bit
_SIGNED_WI = np.concatenate([WI, -WI])
_SIGNED_KI = np.concatenate([KI, KI])
_RABS_MASK = (1 << 52) - 1


@dataclass(frozen=True)
class NoiseProcess:
    family: str
    scale: float
    dim: int
    seed: int
    df: Optional[float] = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown noise family {self.family!r}")
        if not (isfinite(self.scale) and self.scale >= 0.0):
            raise ValueError(f"scale must be finite and nonnegative, got {self.scale}")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.family == "student_t":
            if self.df is None or not (isfinite(self.df) and self.df > 4.0):
                raise ValueError("student_t requires a finite df > 4 "
                                 "(finite fourth moment)")
        elif self.df is not None:
            raise ValueError(f"df applies only to student_t noise, not {self.family}")


def _silent(proc: NoiseProcess) -> bool:
    return proc.family == "zero" or proc.scale == 0.0


def _standard_normal_rows(seed: int, first: int, out: np.ndarray) -> None:
    """Row i of out becomes keyed_rng(seed, STREAM_NOISE, first + i)
    .standard_normal(dim), bit for bit.

    While a step's components take numpy's ziggurat fast path (see
    _ziggurat), component j reads word j of the step's Philox stream alone,
    so the rule runs on every step's words at once. A step where some
    component leaves the fast path reads more words; only its row is
    redrawn from its own generator.
    """
    count, dim = out.shape
    steps = np.uint64(first % 2**64) + np.arange(count, dtype=np.uint64)  # wraps mod 2^64
    words = keyed_blocks(seed, STREAM_NOISE, steps, -(-dim // 4))[:, :dim]
    strip = (words & 0x1ff).astype(np.intp)
    rabs = (words >> 9) & _RABS_MASK
    np.multiply(rabs, _SIGNED_WI[strip], out=out)
    misses = np.flatnonzero((rabs >= _SIGNED_KI[strip]).any(axis=1))
    redraws = keyed_steps(seed, STREAM_NOISE, (first + int(i) for i in misses))
    for i, rng in zip(misses, redraws):
        rng.standard_normal(out=out[i])


def _keyed_rows(proc: NoiseProcess, first: int, count: int) -> np.ndarray:
    """w_t for the count steps from t = first as a (count, dim) array; row i
    is drawn from keyed_rng(proc.seed, STREAM_NOISE, first + i). The one
    keyed path and family switch: Gaussian rows come from the steps' Philox
    words all at once, the other families reset one generator per step, and
    Gaussian, Student-t and Bernoulli rows are scaled once at the end."""
    ws = np.zeros((count, proc.dim))
    if _silent(proc):
        return ws
    rngs = keyed_steps(proc.seed, STREAM_NOISE, range(first, first + count))
    if proc.family == "laplace":  # numpy applies the scale inside its transform
        for t, rng in enumerate(rngs):
            ws[t] = rng.laplace(0.0, proc.scale, proc.dim)
        return ws
    if proc.family == "gaussian":
        _standard_normal_rows(proc.seed, first, ws)
    elif proc.family == "student_t":
        for t, rng in enumerate(rngs):
            ws[t] = rng.standard_t(proc.df, proc.dim)
    else:  # scaled_bernoulli: +-scale equiprobably per component
        for t, rng in enumerate(rngs):
            ws[t] = 2.0 * rng.integers(0, 2, proc.dim) - 1.0
    ws *= proc.scale
    return ws


def sample(proc: NoiseProcess, t: int) -> np.ndarray:
    """Disturbance w_t; the zero vector for t < 0 by convention."""
    if t < 0:
        return np.zeros(proc.dim)
    return _keyed_rows(proc, t, 1)[0]


def sample_episode(proc: NoiseProcess, T: int) -> np.ndarray:
    """Disturbances w_0..w_{T-1} as a (T, dim) array; row t is bit-identical
    to sample(proc, t)."""
    return _keyed_rows(proc, 0, T)


def _component_moments(proc: NoiseProcess) -> tuple[float, float]:
    """(variance, fourth moment) of a single component, exact per family."""
    s = proc.scale
    if _silent(proc):
        return 0.0, 0.0
    if proc.family == "gaussian":
        return s ** 2, 3.0 * s ** 4
    if proc.family == "laplace":
        return 2.0 * s ** 2, 24.0 * s ** 4
    if proc.family == "student_t":
        df = float(proc.df)
        return s ** 2 * df / (df - 2.0), s ** 4 * 3.0 * df ** 2 / ((df - 2.0) * (df - 4.0))
    return s ** 2, s ** 4  # scaled_bernoulli


def population_sigma_w(proc: NoiseProcess) -> float:
    """sqrt(E||w||^2), a valid bound for E||w|| in the first-moment assumption."""
    m2, _ = _component_moments(proc)
    return sqrt(proc.dim * m2)


def population_sigma_w4(proc: NoiseProcess) -> float:
    """(E||w||^4)^(1/4) from exact component moments (components independent)."""
    m2, m4 = _component_moments(proc)
    fourth = proc.dim * m4 + proc.dim * (proc.dim - 1) * m2 ** 2
    return fourth ** 0.25


def population_sigma_lower(proc: NoiseProcess) -> float:
    """Exact sigma-underbar: per-component standard deviation (covariance is
    isotropic for every family here)."""
    m2, _ = _component_moments(proc)
    return sqrt(m2)
