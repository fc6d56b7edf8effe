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

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .rng import STREAM_COST, keyed_steps
from .system import spectral_norm

_PSD_TOL = -1e-10
_SYM_TOL = 1e-10


def _check_psd_stack(stack: np.ndarray, name: str) -> None:
    """Reject a (T, n, n) stack unless every matrix is finite, symmetric
    and PSD; a stack that repeats one matrix with stride 0 is checked once."""
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValueError(f"{name} must be a stack of square matrices, got shape {stack.shape}")
    if stack.size == 0:
        return
    if stack.shape[0] > 1 and stack.strides[0] == 0:
        stack = stack[:1]
    if not np.isfinite(stack).all():
        raise ValueError(f"{name} must be finite")
    asym = np.abs(stack - stack.transpose(0, 2, 1)).max(axis=(1, 2))
    if (asym > _SYM_TOL).any():
        raise ValueError(f"{name} must be symmetric (step {int(np.argmax(asym))})")
    low = np.linalg.eigvalsh(stack)[:, 0]
    if (low < _PSD_TOL).any():
        raise ValueError(f"{name} must be positive semidefinite (step {int(np.argmin(low))})")


@dataclass(eq=False, slots=True)  # slots, not frozen: reveal builds one per step
class QuadraticCost:
    """c(x, u) = x'Qx + u'Ru; build validated instances with quadratic_cost.

    G_c = max(2||Q||, 2||R||, 1); the curvature bounds come from the
    extreme eigenvalues of blockdiag(Q, R), with alpha reported only when
    strictly positive.
    """

    Q: np.ndarray
    R: np.ndarray
    _curv: Optional[tuple] = field(default=None, repr=False)  # (alpha, beta)

    def value(self, x: np.ndarray, u: np.ndarray) -> float:
        return float(x @ self.Q @ x + u @ self.R @ u)

    @property
    def G_c(self) -> float:
        return max(2.0 * spectral_norm(self.Q), 2.0 * spectral_norm(self.R), 1.0)

    def _curvature(self) -> tuple:
        if self._curv is None:  # on first read: reveal builds a cost per step and reads none
            eig = 2.0 * np.concatenate([np.linalg.eigvalsh(self.Q), np.linalg.eigvalsh(self.R)])
            self._curv = tuple(float(v) if v > 0.0 else None for v in (eig.min(), eig.max()))
        return self._curv

    @property
    def alpha(self) -> Optional[float]:
        return self._curvature()[0]

    @property
    def beta(self) -> Optional[float]:
        return self._curvature()[1]


def quadratic_cost(Qmat: np.ndarray, Rmat: np.ndarray) -> QuadraticCost:
    """Validated c(x, u) = x'Qx + u'Ru for symmetric PSD Q, R."""
    Q = np.asarray(Qmat, dtype=float)
    R = np.asarray(Rmat, dtype=float)
    for mat, name in ((Q, "Q"), (R, "R")):
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"{name} must be square, got shape {mat.shape}")
        _check_psd_stack(mat[None], name)
    return QuadraticCost(Q, R)


@dataclass(frozen=True, eq=False)
class CostSchedule:
    """Stage costs x'Q_t x + u'R_t u over a fixed horizon, as stacked arrays.

    The learner goes through reveal(t, u), which requires the committed
    input; comparators read Q and R (or stage_values) freely. The stacks
    are validated on construction.
    """

    Q: np.ndarray  # (T, n_x, n_x)
    R: np.ndarray  # (T, n_u, n_u)
    g_c: float
    alpha: Optional[float] = None
    beta: Optional[float] = None
    family: str = "custom"

    def __post_init__(self):
        _check_psd_stack(self.Q, "Q")
        _check_psd_stack(self.R, "R")
        if self.Q.shape[0] != self.R.shape[0]:
            raise ValueError(f"Q covers {self.Q.shape[0]} steps but R covers {self.R.shape[0]}")

    @property
    def horizon(self) -> int:
        return self.Q.shape[0]

    def require_horizon(self, T: int) -> None:
        """The one coverage check for a consumer of T steps."""
        if self.horizon < T:
            raise ValueError(f"cost schedule covers {self.horizon} steps, need {T}")

    def reveal(self, t: int, u: np.ndarray) -> QuadraticCost:
        if not 0 <= t < self.horizon:
            raise ValueError(f"step {t} outside horizon [0, {self.horizon})")
        return QuadraticCost(self.Q[t], self.R[t])

    def stage_values(self, X: np.ndarray, U: np.ndarray) -> np.ndarray:
        """c_t(X[t, ...], U[t, ...]) for rollouts X (T, ..., n_x) and
        U (T, ..., n_u) over the schedule's first T steps, in one pass."""
        T = X.shape[0]
        return (np.einsum("t...i,tij,t...j->t...", X, self.Q[:T], X)
                + np.einsum("t...i,tij,t...j->t...", U, self.R[:T], U))


def constant_schedule(cost: QuadraticCost, T: int) -> CostSchedule:
    """The same cost at every step; Q and R are stride-0 views of its matrices."""
    return CostSchedule(Q=np.broadcast_to(cost.Q, (T,) + cost.Q.shape),
                        R=np.broadcast_to(cost.R, (T,) + cost.R.shape),
                        g_c=cost.G_c, alpha=cost.alpha, beta=cost.beta,
                        family="quadratic")


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
    regenerated independently of the others; all T steps are drawn in one
    pass. Family-level constants: G_c = 2 from the norm cap; beta = 2;
    alpha = 0.2 in the scalar case (where the norm floor is also an
    eigenvalue floor) and unreported otherwise.
    """
    Q = np.empty((T, n_x, n_x))
    R = np.empty((T, n_u, n_u))
    # zip asks range(T) first, so T = 0 keys no generator
    for t, rng in zip(range(T), keyed_steps(seed, STREAM_COST, range(T))):
        Q[t] = _random_psd(rng, n_x)
        R[t] = _random_psd(rng, n_u)
    alpha = 0.2 if (n_x == 1 and n_u == 1) else None
    return CostSchedule(Q=Q, R=R, g_c=2.0, alpha=alpha, beta=2.0,
                        family="random_quadratic")


def materialize(schedule: CostSchedule) -> CostSchedule:
    """The schedule itself: its costs are already stored as arrays.

    Kept only for callers written against the per-step cost closures
    (perfbench imports it and passes the result to run_episode).
    """
    return schedule
