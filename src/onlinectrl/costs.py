"""Convex stage costs and cost schedules.

Every stage cost is a quadratic c_t(x, u) = x'Q_t x + u'R_t u with
symmetric PSD Q_t and R_t, so a schedule holds its costs as data: the
stacks Q of shape (T, n_x, n_x) and R of shape (T, n_u, n_u), validated
once when the schedule is built.

Costs are revealed online: the learner commits u_t first and only then
receives c_t. That ordering is enforced structurally by CostSchedule:
the only learner-facing accessor is reveal(t, u), which takes the
committed input. Comparators replay the stacks offline.

Every schedule carries the constants the theory consumes: a
gradient-growth bound G_c >= 1 with ||grad_x c|| <= G_c ||x|| and
||grad_u c|| <= G_c ||u||, and curvature bounds alpha I <= hess c <= beta I
when available.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .rng import STREAM_COST, keyed_blocks, keyed_steps
from .system import spectral_norm

_PSD_TOL = -1e-10
_SYM_TOL = 1e-10


def _check_psd_stack(stack: np.ndarray, name: str) -> None:
    """Reject a (T, n, n) or (T, S, n, n) stack unless every matrix is finite,
    symmetric and PSD; a stack that repeats one step with stride 0 is checked once."""
    if stack.ndim not in (3, 4) or stack.shape[-1] != stack.shape[-2]:
        raise ValueError(f"{name} must be a stack of square matrices, got shape {stack.shape}")
    if stack.size == 0:
        return
    if stack.shape[0] > 1 and stack.strides[0] == 0:
        stack = stack[:1]
    if not np.isfinite(stack).all():
        raise ValueError(f"{name} must be finite")
    asym = np.abs(stack - stack.swapaxes(-1, -2)).max(axis=(-2, -1))
    if (asym > _SYM_TOL).any():
        raise ValueError(f"{name} must be symmetric ({_at(np.argmax(asym), asym.shape)})")
    low = np.linalg.eigvalsh(stack)[..., 0]
    if (low < _PSD_TOL).any():
        raise ValueError(f"{name} must be positive semidefinite ({_at(np.argmin(low), low.shape)})")


def _at(index: int, shape: tuple) -> str:
    """Where a flat index into shape points: step t, and seed s on a seed axis."""
    step, *seed = np.unravel_index(index, shape)
    return f"step {step}" + "".join(f", seed {s}" for s in seed)


@dataclass(frozen=True, eq=False)
class CostSchedule:
    """Stage costs x'Q_t x + u'R_t u over a fixed horizon, as stacked arrays.

    The learner goes through reveal(t, u), which requires the committed
    input; comparators read Q and R (or stage_values) freely. The stacks
    are validated on construction. Seeds run in lockstep share one schedule
    of (T, S, n, n) stacks, whose revealed costs hold (S, n, n) matrices.
    A single stage cost is a one-step schedule (quadratic_cost).
    """

    Q: np.ndarray  # (T, n_x, n_x), or (T, S, n_x, n_x) over seeds
    R: np.ndarray  # (T, n_u, n_u), or (T, S, n_u, n_u)
    g_c: float
    alpha: Optional[float] = None
    beta: Optional[float] = None

    def __post_init__(self):
        _check_psd_stack(self.Q, "Q")
        _check_psd_stack(self.R, "R")
        if self.Q.shape[0] != self.R.shape[0]:
            raise ValueError(f"Q covers {self.Q.shape[0]} steps but R covers {self.R.shape[0]}")

    @property
    def horizon(self) -> int:
        return self.Q.shape[0]

    def require_horizon(self, T: int, n_x: int, n_u: int) -> None:
        """The one check for a consumer of T steps on an (n_x, n_u) plant:
        the schedule covers them, with n_x x n_x costs Q and n_u x n_u costs R."""
        if self.horizon < T:
            raise ValueError(f"cost schedule covers {self.horizon} steps, need {T}")
        if (self.Q.shape[-1], self.R.shape[-1]) != (n_x, n_u):
            raise ValueError(f"cost schedule dimensions (n_x, n_u) = ({self.Q.shape[-1]}, "
                             f"{self.R.shape[-1]}) must match the system's ({n_x}, {n_u})")

    def reveal(self, t: int, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Step t's cost (Q_t, R_t), given the committed input(s) u."""
        if not 0 <= t < self.horizon:
            raise ValueError(f"step {t} outside horizon [0, {self.horizon})")
        return self.Q[t], self.R[t]

    def stage_values(self, X: np.ndarray, U: np.ndarray) -> np.ndarray:
        """c_t(X[t, ...], U[t, ...]) for rollouts X (T, ..., n_x) and
        U (T, ..., n_u) over the schedule's first T steps, in one pass."""
        T = X.shape[0]
        return (np.einsum("t...i,tij,t...j->t...", X, self.Q[:T], X)
                + np.einsum("t...i,tij,t...j->t...", U, self.R[:T], U))


def quadratic_cost(Qmat: np.ndarray, Rmat: np.ndarray) -> CostSchedule:
    """c(x, u) = x'Qx + u'Ru for symmetric PSD Q, R, as a validated one-step schedule.

    G_c = max(2||Q||, 2||R||, 1); the curvature bounds come from the extreme
    eigenvalues of blockdiag(Q, R), alpha only when strictly positive.
    """
    Q = np.asarray(Qmat, dtype=float)
    R = np.asarray(Rmat, dtype=float)
    for mat, name in ((Q, "Q"), (R, "R")):
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"{name} must be square, got shape {mat.shape}")
        if not np.isfinite(mat).all():  # before the SVD, which fails on NaN
            raise ValueError(f"{name} must be finite")
    eig = 2.0 * np.concatenate([np.linalg.eigvalsh(Q), np.linalg.eigvalsh(R)])
    alpha, beta = (float(v) if v > 0.0 else None for v in (eig.min(), eig.max()))
    return CostSchedule(Q=Q[None], R=R[None],  # which checks symmetry and PSD
                        g_c=max(2.0 * spectral_norm(Q), 2.0 * spectral_norm(R), 1.0),
                        alpha=alpha, beta=beta)


def constant_schedule(cost: CostSchedule, T: int) -> CostSchedule:
    """Step 0 of cost at every step; Q and R are stride-0 views of its matrices."""
    return CostSchedule(Q=np.broadcast_to(cost.Q[:1], (T,) + cost.Q.shape[1:]),
                        R=np.broadcast_to(cost.R[:1], (T,) + cost.R.shape[1:]),
                        g_c=cost.g_c, alpha=cost.alpha, beta=cost.beta)


def _random_psd(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random PSD matrix with spectral norm uniform in [0.1, 1]."""
    target = rng.uniform(0.1, 1.0)
    if n == 1:
        return np.array([[target]])
    X = rng.standard_normal((n, n))
    G = X @ X.T
    return G * (target / spectral_norm(G))


def adversarial_convex_schedule(seed: int, T: int, n_x: int, n_u: int) -> CostSchedule:
    """Per-step random quadratics c_t(x,u) = x'Q_t x + u'R_t u.

    Q_t and R_t are PSD with spectral norm in [0.1, 1], drawn from the
    generator keyed by (seed, STREAM_COST, t), so any step can be
    regenerated independently of the others. The scalar family computes
    every step's draws from one array of Philox blocks; matrix costs take
    their normals from numpy's ziggurat, one keyed generator per step.
    Family-level constants: G_c = 2 from the norm cap; beta = 2;
    alpha = 0.2 in the scalar case (where the norm floor is also an
    eigenvalue floor) and unreported otherwise.
    """
    Q = np.empty((T, n_x, n_x))
    R = np.empty((T, n_u, n_u))
    if n_x > 1 or n_u > 1:
        # zip asks range(T) first, so T = 0 keys no generator
        for t, rng in zip(range(T), keyed_steps(seed, STREAM_COST, range(T))):
            Q[t], R[t] = _random_psd(rng, n_x), _random_psd(rng, n_u)
    elif T > 0:
        # each step's rng.uniform(0.1, 1.0, 2), the two draws of _random_psd's
        # scalar case: low + (high - low) * (word >> 11) * 2^-53 on words 0 and 1
        words = keyed_blocks(seed, STREAM_COST, np.arange(T, dtype=np.uint64))[:, :2]
        Q[:, 0, 0], R[:, 0, 0] = (0.1 + (1.0 - 0.1) * ((words >> np.uint64(11)) * 2.0 ** -53)).T
    alpha = 0.2 if (n_x == 1 and n_u == 1) else None
    return CostSchedule(Q=Q, R=R, g_c=2.0, alpha=alpha, beta=2.0)


def materialize(schedule: CostSchedule) -> CostSchedule:
    """The schedule itself: its costs are already stored as arrays.

    Kept only for callers written against the per-step cost closures
    (perfbench imports it and passes the result to run_episode).
    """
    return schedule
