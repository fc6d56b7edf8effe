"""Truncated disturbance-state transfer matrices and surrogate costs.

The state of the closed loop under a disturbance-action policy is a
linear function of past disturbances. Truncating that expansion at a
memory of H recent policy iterates gives the surrogate state y_t and
surrogate input v_t: the state and input the system would reach if it
restarted from zero H+1 steps ago and replayed the recent policy window
on the recorded disturbances. The surrogate cost f_t(M) evaluates the
true stage cost at (y_t, v_t) with the whole window frozen at one M;
online gradient steps descend f_t.

Disturbance windows are indexed most-recent-first throughout:
window[m] = w_{t-1-m} for m = 0..2H, zero-padded before time zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .costs import QuadraticCost
from .policy import PolicyParams
from .stability import ClosedLoop


@dataclass(frozen=True)
class TransferMatrix:
    """Coefficient of w_{t-i} in the h-step state expansion at time t+1."""

    value: np.ndarray
    t: int
    i: int
    h: int


@dataclass(frozen=True)
class SurrogatePoint:
    y: np.ndarray
    v: np.ndarray
    t: int


@dataclass(frozen=True)
class SurrogateGradient:
    """Gradient of f_t with respect to the stacked policy blocks."""

    blocks: np.ndarray
    y: np.ndarray
    v: np.ndarray

    def frob_norm(self) -> float:
        return float(np.linalg.norm(self.blocks))


def _transfer_stack(cl: ClosedLoop, B: np.ndarray, M_seq: Sequence[PolicyParams],
                    h: int, H: int) -> np.ndarray:
    """Every transfer matrix psi_{t,i,h} of `psi`, for i = 0..H+h, stacked
    along axis 0. The indicators of the formula become slice bounds: A_K^i
    fills rows 0..h, and A_K^j B M_{t-j}^[m] lands in row j+m+1.
    """
    if len(M_seq) != h + 1:
        raise ValueError(f"M_seq must hold h+1={h + 1} policies, got {len(M_seq)}")
    pows = cl.power_stack(h + 1)
    stack = np.zeros((H + h + 1,) + pows.shape[1:])
    stack[:h + 1] = pows
    # terms[j, m] = A_K^j B M_{t-j}^[m]; M_seq runs oldest first
    blocks = np.stack([M.blocks for M in reversed(M_seq)])
    terms = np.matmul((pows @ B)[:, None], blocks)
    for m in range(H):
        stack[m + 1:m + h + 2] += terms[:, m]
    return stack


def psi(cl: ClosedLoop, B: np.ndarray, M_seq: Sequence[PolicyParams], t: int,
        i: int, h: int, H: int) -> TransferMatrix:
    """Transfer matrix: the coefficient of w_{t-i} when x_{t+1} is expanded
    from x_{t-h} under the policy window M_seq = (M_{t-h}, ..., M_t).

        psi = A_K^i [i <= h] + sum_{j=0}^{h} A_K^j B M_{t-j}^[i-j-1] [1 <= i-j <= H]

    The closed loop's power cache must reach A_K^h.
    """
    if h < 0 or h > t:
        raise ValueError(f"need 0 <= h <= t, got h={h}, t={t}")
    if not 0 <= i <= H + h:
        raise ValueError(f"need 0 <= i <= H+h={H + h}, got i={i}")
    return TransferMatrix(value=_transfer_stack(cl, B, M_seq, h, H)[i], t=t, i=i, h=h)


def state_expansion(cl: ClosedLoop, B: np.ndarray, M_seq: Sequence[PolicyParams],
                    noise: Sequence[np.ndarray], t: int, h: int, H: int) -> np.ndarray:
    """x_t rebuilt from x_{t-1-h} through the transfer matrices of `psi`:

        x_t = A_K^{h+1} x_{t-1-h} + sum_{i=0}^{H+h} psi_{t-1,i,h} w_{t-1-i}

    M_seq holds M_0..M_{t-1} and noise holds w_0..w_{t-1}; terms with
    w_{t-1-i} before time zero vanish. The base state x_{t-1-h} is itself
    rebuilt by the full-depth expansion (x_0 = 0), so the result is
    simulation-free. The closed loop's power cache must reach A_K^{h+1}
    and A_K^{t-1-h}; reaching A_K^t covers every h.
    """
    if t < 1:
        raise ValueError("state expansion needs t >= 1")
    if not 0 <= h <= t - 1:
        raise ValueError(f"need 0 <= h <= t-1, got h={h}, t={t}")
    s = t - 1 - h
    if s == 0:
        x_base = np.zeros(B.shape[0])
    else:
        x_base = state_expansion(cl, B, M_seq, noise, s, s - 1, H)

    stack = _transfer_stack(cl, B, M_seq[s:t], h, H)
    count = min(H + h + 1, t)
    recent = np.asarray(noise[t - count:t], dtype=float)[::-1]  # w_{t-1}, w_{t-2}, ...
    return cl.power(h + 1) @ x_base + np.einsum("ixy,iy->x", stack[:count], recent)


def _hankel(W: np.ndarray, H: int) -> np.ndarray:
    """Strided view of a C-contiguous window W (2H+1, n_x) whose row j is
    W[1 + j : 1 + j + H].ravel(), j = 0..H: the H disturbances that feed
    the policy at lag j. Column m * n_x + x of row j is w_{t-2-j-m}[x],
    matching blocks flattened to (n_u, H * n_x). No data is copied."""
    step = W.strides[0]
    return np.ndarray((H + 1, H * W.shape[1]), W.dtype, W, step, (step, W.itemsize))


class SurrogateKernel:
    """Precomputed pieces for repeated surrogate evaluation at fixed (K, H).

    Holds the power stack A_K^0..A_K^H and the products A_K^j B, also laid
    side by side as (n_x, (H+1) n_x) and (n_x, (H+1) n_u) matrices, so a
    point or a gradient is a few matrix products with the Hankel view of
    the disturbance window and the blocks flattened to (n_u, H n_x).
    """

    def __init__(self, cl: ClosedLoop, B: np.ndarray, H: int):
        if H < 1:
            raise ValueError("memory H must be >= 1")
        self.cl = cl
        self.B = np.asarray(B, dtype=float)
        self.H = H
        self.K = cl.K
        self.pows = cl.power_stack(H + 1)
        self.PB = np.matmul(self.pows, self.B)
        self.n_x = self.B.shape[0]
        self.n_u = self.B.shape[1]
        # row a, column j*n + b holds A_K^j[a, b] and (A_K^j B)[a, b]
        self._pows_row = self.pows.transpose(1, 0, 2).reshape(self.n_x, -1)
        self._PB_row = self.PB.transpose(1, 0, 2).reshape(self.n_x, -1)

    def _check_window(self, W: np.ndarray) -> np.ndarray:
        W = np.ascontiguousarray(W, dtype=float)
        if W.shape != (2 * self.H + 1, self.n_x):
            raise ValueError(
                f"window must have shape ({2 * self.H + 1}, {self.n_x}), got {W.shape}")
        return W

    def _point(self, flat: np.ndarray, W: np.ndarray,
               hank: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(y, v) from blocks flattened to (n_u, H n_x) and hank = _hankel(W)."""
        dap = hank @ flat.T  # dap[j] = sum_m M^[m] w_{t-2-j-m}
        y = self._pows_row @ W[:self.H + 1].ravel() + self._PB_row @ dap.ravel()
        v = flat @ W[:self.H].ravel() - self.K @ y
        return y, v

    def point(self, blocks: np.ndarray, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(y, v) with the whole policy window frozen at one parameter."""
        W = self._check_window(W)
        flat = blocks.transpose(1, 0, 2).reshape(self.n_u, -1)
        return self._point(flat, W, _hankel(W, self.H))

    def point_window(self, M_window: Sequence[PolicyParams],
                     W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(y, v) under a varying window (M_{t-1-H}, ..., M_t), length H+2."""
        H = self.H
        if len(M_window) != H + 2:
            raise ValueError(f"M_window must hold H+2={H + 2} policies, got {len(M_window)}")
        y = np.zeros(self.n_x)
        for j in range(H + 1):
            blocks = M_window[H - j].blocks  # policy M_{t-1-j}
            dap = np.einsum("mux,mx->u", blocks, W[j + 1:j + 1 + H])
            y = y + self.pows[j] @ (W[j] + self.B @ dap)
        v = -self.K @ y + np.einsum("mux,mx->u", M_window[H + 1].blocks, W[:H])
        return y, v

    def value(self, cost: QuadraticCost, blocks: np.ndarray, W: np.ndarray) -> float:
        y, v = self.point(blocks, W)
        return cost.value(y, v)

    def grad(self, cost: QuadraticCost, blocks: np.ndarray,
             W: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(gradient blocks, y, v): adjoint accumulation of the chain rule.

        Block r collects (A_K^j B)' (g_x - K' g_u) against w_{t-2-r-j} over
        j = 0..H, plus the direct input sensitivity g_u w_{t-1-r}'.
        """
        H, n_x, n_u = self.H, self.n_x, self.n_u
        W = self._check_window(W)
        hank = _hankel(W, H)
        flat = blocks.transpose(1, 0, 2).reshape(n_u, -1)
        y, v = self._point(flat, W, hank)
        g_u = 2.0 * (cost.R @ v)  # the stage-cost gradients at (y, v)
        g_eff = 2.0 * (cost.Q @ y) - self.K.T @ g_u
        Qv = (g_eff @ self._PB_row).reshape(H + 1, n_u)  # Qv[j] = (A_K^j B)' g_eff
        G = Qv.T @ hank + g_u[:, None] * W[:H].ravel()
        return G.reshape(n_u, H, n_x).transpose(1, 0, 2), y, v

    def jacobian(self, W: np.ndarray) -> np.ndarray:
        """Stacked Jacobian of (y, v) in the policy blocks, shape
        (n_x + n_u, H * n_u * n_x); columns follow blocks.reshape(-1)."""
        H, n_x, n_u = self.H, self.n_x, self.n_u
        W = self._check_window(W)
        Jy = np.einsum("jxp,jc->xpc", self.PB, _hankel(W, H))
        Jy = Jy.reshape(n_x, n_u, H, n_x).transpose(0, 2, 1, 3)
        direct = np.einsum("up,rq->urpq", np.eye(n_u), W[:H])
        Jv = -np.einsum("ux,xrpq->urpq", self.K, Jy) + direct
        dim = H * n_u * n_x
        return np.concatenate([Jy.reshape(n_x, dim), Jv.reshape(n_u, dim)], axis=0)


def surrogate_point(cl: ClosedLoop, B: np.ndarray, M_window: Sequence[PolicyParams],
                    noise_window: np.ndarray, t: int) -> SurrogatePoint:
    """Surrogate state/input at step t under the policy window
    (M_{t-1-H}, ..., M_t); noise_window[m] = w_{t-1-m} for m = 0..2H."""
    H = len(M_window) - 2
    kern = SurrogateKernel(cl, B, H)
    W = kern._check_window(noise_window)
    y, v = kern.point_window(M_window, W)
    return SurrogatePoint(y=y, v=v, t=t)


def surrogate_cost_f(cost: QuadraticCost, cl: ClosedLoop, B: np.ndarray,
                     M: PolicyParams, noise_window: np.ndarray, t: int) -> float:
    """f_t(M): the stage cost at the surrogate point with the window frozen at M."""
    kern = SurrogateKernel(cl, B, M.H)
    return kern.value(cost, M.blocks, kern._check_window(noise_window))


def grad_f(cost: QuadraticCost, cl: ClosedLoop, B: np.ndarray, M: PolicyParams,
           noise_window: np.ndarray, t: int) -> SurrogateGradient:
    """Exact gradient of f_t at M (linear surrogate maps, chain rule)."""
    kern = SurrogateKernel(cl, B, M.H)
    G, y, v = kern.grad(cost, M.blocks, kern._check_window(noise_window))
    return SurrogateGradient(blocks=G, y=y, v=v)


def hessian_frob_bound(cost: QuadraticCost, cl: ClosedLoop, B: np.ndarray,
                       M: PolicyParams, noise_window: np.ndarray, t: int) -> float:
    """Frobenius norm of the exact Hessian of f_t, via the factorization
    J' (hess c) J with J the (M-independent) surrogate Jacobian.
    """
    kern = SurrogateKernel(cl, B, M.H)
    W = kern._check_window(noise_window)
    y, v = kern.point(M.blocks, W)
    Hc = np.asarray(cost.hessian(y, v), dtype=float)
    dim = kern.n_x + kern.n_u
    if Hc.shape != (dim, dim):
        raise ValueError(f"cost Hessian must be ({dim}, {dim}), got {Hc.shape}")
    J = kern.jacobian(W)
    return float(np.linalg.norm(J.T @ Hc @ J, "fro"))
