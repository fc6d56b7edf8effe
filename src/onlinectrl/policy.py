"""Disturbance-action policies and their admissible set.

A policy is a stabilizing base gain K plus H matrices M^[0..H-1] acting
on the last H observed disturbances:

    u_t = -K x_t + sum_{i=1}^{H} M^[i-1] w_{t-i},   w_s = 0 for s < 0.

The admissible set M is a product of spectral-norm balls, one per block:
||M^[i]|| <= 2 kappa_B kappa^3 (1-gamma)^i. Projection onto it therefore
factorizes into per-block singular-value clipping, which is exact for
the Frobenius metric on the stacked blocks. For 1x1 blocks it is an
elementwise clip, one call of numpy's clip ufunc, so project_scalar_stack
clips every seed's blocks of a lockstep episode in one call, against
bounds that scalar_stack_bounds builds once per episode; project serves
one seed's blocks of any shape, and clips 1x1 blocks with the same ufunc.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import ceil, log, sqrt

import numpy as np

try:
    from numpy.linalg._umath_linalg import eigh_lo as _eigh  # np.linalg.eigh's gufunc
except ImportError:  # a numpy without that private name: the public wrapper, same bits
    # for finite input (it raises LinAlgError where the gufunc gives NaN)
    def _eigh(a: np.ndarray, signature: str) -> tuple:
        return np.linalg.eigh(a)
try:
    from numpy._core._multiarray_umath import c_einsum as _einsum  # np.einsum's C entry
except ImportError:  # a numpy without that private name: the public wrapper, same bits
    _einsum = np.einsum
try:
    from numpy._core.umath import clip as _clip  # the ufunc np.clip calls after its wrapper
except ImportError:  # a numpy without that private name: max then min, the same bits for
    # bounds -r < r (both keep -0, ±r and a NaN's bits)
    def _clip(a: np.ndarray, low: np.ndarray, high: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
        return np.minimum(np.maximum(a, low, out=out), high, out=out)

from .stability import closed_loop_powers
from .system import LinearSystem

_ADMISSIBLE_RTOL = 1e-9  # is_admissible's slack, relative to each block's radius


@dataclass(frozen=True)
class PolicyParams:
    """Stacked disturbance-action blocks, shape (H, n_u, n_x)."""

    blocks: np.ndarray

    def __post_init__(self):
        if self.blocks.ndim != 3:
            raise ValueError(f"blocks must be (H, n_u, n_x), got shape {self.blocks.shape}")

    @property
    def H(self) -> int:
        return self.blocks.shape[0]


def horizon_H(T: int, gamma: float) -> int:
    """Memory length H = ceil(2 ln(T) / gamma). Horizons below 3 are rejected."""
    if T < 3:
        raise ValueError(f"horizon T must be >= 3, got {T}")
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    return ceil(2.0 * log(T) / gamma)


def admissible_radii(H: int, kappa: float, gamma: float, kappa_B: float) -> np.ndarray:
    """Per-block spectral-norm radii 2 kappa_B kappa^3 (1-gamma)^i, i = 0..H-1."""
    return 2.0 * kappa_B * kappa ** 3 * (1.0 - gamma) ** np.arange(H)


def policy_class_diameter(n: int, kappa: float, gamma: float, kappa_B: float) -> float:
    """Frobenius diameter D = 4 kappa_B kappa^3 sqrt(n) / gamma, n = max(n_x, n_u)."""
    return 4.0 * kappa_B * kappa ** 3 * sqrt(n) / gamma


def is_admissible(M: PolicyParams, kappa: float, gamma: float, kappa_B: float) -> bool:
    """Every block's spectral norm within its radius, to the relative _ADMISSIBLE_RTOL."""
    radii = admissible_radii(M.H, kappa, gamma, kappa_B)
    norms = np.linalg.svd(M.blocks, compute_uv=False)[:, 0]
    return bool(np.all(norms <= radii * (1.0 + _ADMISSIBLE_RTOL)))


@lru_cache(maxsize=None, typed=True)
def _radii(H: int, kappa: float, gamma: float, kappa_B: float) -> tuple:
    """r as an (H, 1) column, r^4, and -r, r as (H, 1, 1) columns; shared by
    every call, so read-only."""
    radii = admissible_radii(H, kappa, gamma, kappa_B)
    table = (radii[:, None], radii ** 4, -radii[:, None, None], radii[:, None, None])
    for a in table:
        a.flags.writeable = False
    return table


def project(M_raw: PolicyParams, kappa: float, gamma: float, kappa_B: float,
            out: np.ndarray | None = None) -> PolicyParams | np.ndarray:
    """Frobenius projection onto the admissible set; M_raw is never written.

    The set is a product of per-block spectral-norm balls, so clipping
    each block's singular values at its radius r is the exact projection.
    On the Gram matrix G of the shorter side (M M', or M' M if tall),
    ||G||_F = (sum s_i^4)^(1/2) >= s_1^2: a block with ||G||_F <= r^2 is
    kept bit for bit, and M_raw itself is returned if all are. The others
    become M + V diag(min(1, r / sqrt(lam)) - 1) V' M with eigh(G) = V
    diag(lam) V', from np.linalg.eigh's LAPACK gufunc without its wrapper
    (same bits; NaN and a RuntimeWarning where the wrapper would raise). As
    lam is exact to about eps s_1^2, singular values below sqrt(eps) s_1
    clip only to within their own size. 1x1 blocks are clipped directly, in
    one call of the ufunc np.clip calls after its wrapper, with the bits of
    np.maximum then np.minimum.

    Given an (H, n_u, n_x) array out, which may be strided (one seed's
    blocks of a seed-major stack), the projection is written into it with
    the same bits and out is returned: no PolicyParams and no copy of the
    blocks are made, and M_raw is still never written.
    """
    blocks = M_raw.blocks
    column, r4, low, high = _radii(blocks.shape[0], kappa, gamma, kappa_B)
    if blocks.shape[1] == 1 and blocks.shape[2] == 1:
        clipped = _clip(blocks, low, high, out=out)
        return clipped if out is not None else PolicyParams(clipped)
    wide = blocks if blocks.shape[1] <= blocks.shape[2] else blocks.transpose(0, 2, 1)
    gram = wide @ wide.transpose(0, 2, 1).copy()  # matmul is slower on a strided operand
    idx = (_einsum("hij,hij->h", gram, gram) > r4).nonzero()[0]
    if out is not None:
        np.copyto(out, blocks)  # the kept blocks; the clipped ones are overwritten below
    if not idx.size:
        return M_raw if out is None else out
    lam, V = _eigh(gram.take(idx, 0), signature="d->dd")
    # in place, lam becomes the shrink min(1, r / max(sqrt(max(lam, 0)), 1e-300)) - 1
    root = np.maximum(np.sqrt(np.maximum(lam, 0.0, out=lam), out=lam), 1e-300, out=lam)
    np.minimum(1.0, np.divide(column.take(idx, 0), root, out=lam), out=lam)
    lam -= 1.0
    Mb = wide.take(idx, 0)
    VtM = V.transpose(0, 2, 1) @ Mb
    V *= lam[:, None, :]
    new = V @ VtM
    new += Mb
    result = blocks.copy() if out is None else out
    (result if wide is blocks else result.transpose(0, 2, 1))[idx] = new
    return PolicyParams(result) if out is None else out


def scalar_stack_bounds(S: int, H: int, kappa: float, gamma: float,
                        kappa_B: float) -> tuple:
    """-r and r for S seeds' 1x1 blocks, as contiguous (S, H, 1, 1) arrays:
    the bounds of project_scalar_stack, built once per episode."""
    return tuple(np.tile(b, (S, 1, 1, 1)) for b in _radii(H, kappa, gamma, kappa_B)[2:])


def project_scalar_stack(raw: np.ndarray, low: np.ndarray, high: np.ndarray,
                         out: np.ndarray) -> np.ndarray:
    """project of every seed's 1x1 blocks at once: raw, low, high and out are
    (S, H, 1, 1), low and high from scalar_stack_bounds. Each entry gets the
    bits of project(PolicyParams(raw[s]), ..., out=out[s]), since the same
    clip ufunc clips it; only out is written, and returned. Operands of one
    shape, all contiguous, keep numpy on its elementwise fast path: bounds
    broadcast over the seed axis are slower even at S = 1."""
    return _clip(raw, low, high, out=out)


def sample_admissible(rng: np.random.Generator, H: int, n_u: int, n_x: int,
                      kappa: float, gamma: float, kappa_B: float) -> PolicyParams:
    """Random point of the admissible set, roughly uniform in block norm."""
    radii = admissible_radii(H, kappa, gamma, kappa_B)
    blocks = rng.standard_normal((H, n_u, n_x))
    norms = np.linalg.svd(blocks, compute_uv=False)[:, 0]
    scale = radii * rng.uniform(0.0, 1.0, size=H) / np.maximum(norms, 1e-300)
    return PolicyParams(blocks * scale[:, None, None])


def disturbance_action(blocks: np.ndarray, hank: np.ndarray) -> np.ndarray:
    """D[..., j, :] = sum_m M^[m] w_{t-1-j-m} for blocks (..., H, n_u, n_x) and
    Hankel rows hank[..., j, :] = (w_{t-1-j}, ..., w_{t-H-j}) raveled (see
    surrogate._hankel); leading seed axes match. Row 0 is the policy's
    disturbance-action term at time t, the rows after it the surrogate's."""
    flat = blocks.swapaxes(-3, -2).reshape(blocks.shape[:-3] + (blocks.shape[-2], -1))
    return hank @ flat.swapaxes(-1, -2)


def control_input(K: np.ndarray, x: np.ndarray, dap: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """u = -K x + sum_i M^[i-1] w_{t-i}, given that disturbance-action term
    dap (row 0 of disturbance_action); x and dap may carry a leading seed axis.
    Given out, which must not overlap x or dap (an episode passes its record
    row of the step), u is written there and out is returned."""
    return np.subtract(dap, x.dot(K.T), out=out)


def comparator_params(sys: LinearSystem, K: np.ndarray, K_star: np.ndarray,
                      H: int, kappa: float, gamma: float) -> PolicyParams:
    """Blocks M^[i] = (K - K*) (A - B K*)^i that make the K-based policy
    imitate the gain K* up to H-step truncation.

    Both gains are assumed certified for the shared (kappa, gamma); under
    that assumption the construction always lands in the admissible set,
    so a membership failure indicates an internal inconsistency.
    """
    diff = np.asarray(K, dtype=float) - np.asarray(K_star, dtype=float)
    M = PolicyParams(diff @ closed_loop_powers(sys.A, sys.B, K_star, H))
    if not is_admissible(M, kappa, gamma, sys.kappa_B):
        raise RuntimeError("comparator construction left the admissible set; "
                           "gains are not certified for a shared (kappa, gamma)")
    return M
