"""Known linear plant x_{t+1} = A x_t + B u_t + w_t.

The dynamics matrices are known exactly; the disturbance w_t is whatever
the environment injects. Because A and B are known, the realized
disturbance can be recovered from consecutive states, which is what the
learner feeds to its policy and gradient computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import hypot
from typing import Any

import numpy as np

DIVERGENCE_LIMIT = 1e12  # an episode whose state norm exceeds this has diverged


def spectral_norm(mat: np.ndarray) -> float:
    """Largest singular value; the value np.linalg.norm(mat, 2) gives,
    without its axis bookkeeping."""
    return float(np.linalg.svd(mat, compute_uv=False)[0])


@dataclass(frozen=True)
class LinearSystem:
    """Dynamics pair (A, B) with cached dimensions and kappa_B = max(||B||, 1)."""

    A: np.ndarray
    B: np.ndarray
    n_x: int
    n_u: int
    kappa_B: float


def make_system(A: Any, B: Any) -> LinearSystem:
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"A must be square, got shape {A.shape}")
    if B.ndim != 2 or B.shape[0] != A.shape[0] or B.shape[1] == 0:
        raise ValueError(f"B must be {A.shape[0]} x n_u with n_u >= 1, got shape {B.shape}")
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise ValueError("A and B must be finite")
    return LinearSystem(A=A, B=B, n_x=A.shape[0], n_u=B.shape[1],
                        kappa_B=max(spectral_norm(B), 1.0))


def initial_state(sys: LinearSystem, x0: np.ndarray | None = None,
                  limit: float = DIVERGENCE_LIMIT) -> np.ndarray:
    """State x_0. Default start is the origin; a nonzero start is opt-in
    and must be a finite vector of shape (n_x,) whose norm lies within
    the divergence guard `limit`."""
    if x0 is None:
        return np.zeros(sys.n_x)
    x = np.asarray(x0, dtype=float)
    if x.shape != (sys.n_x,):
        raise ValueError(f"x0 must have shape ({sys.n_x},), got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("x0 must be finite")
    if not (norm := hypot(*x)) <= limit:  # hypot does not overflow on the way
        raise ValueError(f"x0 must lie within the divergence guard ||x0|| <= {limit:g}, "
                         f"got ||x0|| = {norm:.3e}")
    return x


def recover_noise(x_next: np.ndarray, Ax: np.ndarray, Bu: np.ndarray) -> np.ndarray:
    """Realized disturbance w_t = x_{t+1} - A x_t - B u_t, given the products
    A x_t and B u_t that the step forming x_{t+1} already computed; the
    states and inputs may carry a leading seed axis."""
    return x_next - Ax - Bu
