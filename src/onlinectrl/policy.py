"""Disturbance-action policies and their admissible set.

A policy is a stabilizing base gain K plus H matrices M^[0..H-1] acting
on the last H observed disturbances:

    u_t = -K x_t + sum_{i=1}^{H} M^[i-1] w_{t-i},   w_s = 0 for s < 0.

The admissible set M is a product of spectral-norm balls, one per block:
||M^[i]|| <= 2 kappa_B kappa^3 (1-gamma)^i. Projection onto it therefore
factorizes into per-block singular-value clipping, which is exact for
the Frobenius metric on the stacked blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import ceil, log, sqrt

import numpy as np
from numpy.linalg._umath_linalg import eigh_lo as _eigh  # np.linalg.eigh's gufunc

from .stability import closed_loop_powers
from .system import spectral_norm


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

    def frob_norm(self) -> float:
        return float(np.linalg.norm(self.blocks))


def zero_policy(H: int, n_u: int, n_x: int) -> PolicyParams:
    return PolicyParams(np.zeros((H, n_u, n_x)))


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


def block_spectral_norms(M: PolicyParams) -> np.ndarray:
    if M.blocks.shape[1] == 1 and M.blocks.shape[2] == 1:
        return np.abs(M.blocks[:, 0, 0])
    return np.linalg.svd(M.blocks, compute_uv=False)[:, 0]


def is_admissible(M: PolicyParams, kappa: float, gamma: float, kappa_B: float,
                  tol: float = 1e-9) -> bool:
    """Every block's spectral norm within its radius, to a relative tol."""
    radii = admissible_radii(M.H, kappa, gamma, kappa_B)
    return bool(np.all(block_spectral_norms(M) <= radii * (1.0 + tol)))


@lru_cache(maxsize=None, typed=True)
def _radii(H: int, kappa: float, gamma: float, kappa_B: float) -> tuple:
    """r, r^4 and -r, r as (H, 1, 1) columns; shared by every call, so read-only."""
    radii = admissible_radii(H, kappa, gamma, kappa_B)
    table = (radii, radii ** 4, -radii[:, None, None], radii[:, None, None])
    for a in table:
        a.flags.writeable = False
    return table


def project(M_raw: PolicyParams, kappa: float, gamma: float,
            kappa_B: float) -> PolicyParams:
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
    clip only to within their own size. 1x1 blocks are clipped directly.
    """
    blocks = M_raw.blocks
    radii, r4, low, high = _radii(M_raw.H, kappa, gamma, kappa_B)
    if blocks.shape[1] == 1 and blocks.shape[2] == 1:  # np.clip, without its wrapper's cost
        out = np.maximum(blocks, low)
        return PolicyParams(np.minimum(out, high, out=out))
    wide = blocks if blocks.shape[1] <= blocks.shape[2] else blocks.transpose(0, 2, 1)
    gram = wide @ wide.transpose(0, 2, 1).copy()  # matmul is slower on a strided operand
    idx = (np.einsum("hij,hij->h", gram, gram) > r4).nonzero()[0]
    if not idx.size:
        return M_raw
    lam, V = _eigh(gram.take(idx, 0), signature="d->dd")
    # in place, lam becomes the shrink min(1, r / max(sqrt(max(lam, 0)), 1e-300)) - 1
    root = np.maximum(np.sqrt(np.maximum(lam, 0.0, out=lam), out=lam), 1e-300, out=lam)
    np.minimum(1.0, np.divide(radii.take(idx)[:, None], root, out=lam), out=lam)
    lam -= 1.0
    Mb = wide.take(idx, 0)
    VtM = V.transpose(0, 2, 1) @ Mb
    V *= lam[:, None, :]
    out = blocks.copy()
    (out if wide is blocks else out.transpose(0, 2, 1))[idx] = Mb + V @ VtM
    return PolicyParams(out)


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


def control_input(K: np.ndarray, x: np.ndarray, dap: np.ndarray) -> np.ndarray:
    """u = -K x + sum_i M^[i-1] w_{t-i}, given that disturbance-action term
    dap (row 0 of disturbance_action); x and dap may carry a leading seed axis."""
    return dap - x.dot(K.T)


def comparator_params(K: np.ndarray, K_star: np.ndarray, A: np.ndarray,
                      B: np.ndarray, H: int, kappa: float,
                      gamma: float) -> PolicyParams:
    """Blocks M^[i] = (K - K*) (A - B K*)^i that make the K-based policy
    imitate the gain K* up to H-step truncation.

    Both gains are assumed certified for the shared (kappa, gamma); under
    that assumption the construction always lands in the admissible set,
    so a membership failure indicates an internal inconsistency.
    """
    diff = np.asarray(K, dtype=float) - np.asarray(K_star, dtype=float)
    M = PolicyParams(diff @ closed_loop_powers(A, B, K_star, H))
    kappa_B = max(spectral_norm(B), 1.0)
    if not is_admissible(M, kappa, gamma, kappa_B):
        raise RuntimeError("comparator construction left the admissible set; "
                           "gains are not certified for a shared (kappa, gamma)")
    return M
