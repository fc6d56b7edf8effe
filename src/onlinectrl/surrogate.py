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

from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .policy import PolicyParams, disturbance_action
from .stability import closed_loop_powers
from .system import LinearSystem


def _transfer_stack(pows: np.ndarray, B: np.ndarray, M_seq: Sequence[PolicyParams],
                    h: int, H: int) -> np.ndarray:
    """Every transfer matrix psi_{t,i,h} of `psi`, for i = 0..H+h, stacked
    along axis 0, from the powers A_K^0..A_K^h. The indicators of the formula
    become slice bounds: A_K^i fills rows 0..h, and A_K^j B M_{t-j}^[m] lands
    in row j+m+1.
    """
    if len(M_seq) != h + 1:
        raise ValueError(f"M_seq must hold h+1={h + 1} policies, got {len(M_seq)}")
    stack = np.zeros((H + h + 1,) + pows.shape[1:])
    stack[:h + 1] = pows
    # terms[j, m] = A_K^j B M_{t-j}^[m]; M_seq runs oldest first
    blocks = np.stack([M.blocks for M in reversed(M_seq)])
    terms = np.matmul((pows @ B)[:, None], blocks)
    for m in range(H):
        stack[m + 1:m + h + 2] += terms[:, m]
    return stack


def psi(sys: LinearSystem, K: np.ndarray, M_seq: Sequence[PolicyParams], t: int,
        i: int, h: int, H: int) -> np.ndarray:
    """Transfer matrix: the coefficient of w_{t-i} when x_{t+1} is expanded
    from x_{t-h} under the policy window M_seq = (M_{t-h}, ..., M_t).

        psi = A_K^i [i <= h] + sum_{j=0}^{h} A_K^j B M_{t-j}^[i-j-1] [1 <= i-j <= H]
    """
    if h < 0 or h > t:
        raise ValueError(f"need 0 <= h <= t, got h={h}, t={t}")
    if not 0 <= i <= H + h:
        raise ValueError(f"need 0 <= i <= H+h={H + h}, got i={i}")
    return _transfer_stack(closed_loop_powers(sys.A, sys.B, K, h + 1), sys.B, M_seq, h, H)[i]


def state_expansion(sys: LinearSystem, K: np.ndarray, M_seq: Sequence[PolicyParams],
                    noise: Sequence[np.ndarray], t: int, h: int, H: int) -> np.ndarray:
    """x_t rebuilt from x_{t-1-h} through the transfer matrices of `psi`:

        x_t = A_K^{h+1} x_{t-1-h} + sum_{i=0}^{H+h} psi_{t-1,i,h} w_{t-1-i}

    M_seq holds M_0..M_{t-1} and noise holds w_0..w_{t-1}; terms with
    w_{t-1-i} before time zero vanish. The base state x_{t-1-h} is itself
    rebuilt by the full-depth expansion (x_0 = 0), so the result is
    simulation-free.
    """
    if t < 1:
        raise ValueError("state expansion needs t >= 1")
    if not 0 <= h <= t - 1:
        raise ValueError(f"need 0 <= h <= t-1, got h={h}, t={t}")
    pows = closed_loop_powers(sys.A, sys.B, K, max(h + 2, t - h))
    return _expansion(pows, sys.B, M_seq, noise, t, h, H)


def _expansion(pows: np.ndarray, B: np.ndarray, M_seq: Sequence[PolicyParams],
               noise: Sequence[np.ndarray], t: int, h: int, H: int) -> np.ndarray:
    """state_expansion's body on powers A_K^0..A_K^k, k >= max(h + 1, t - h - 1)."""
    s = t - 1 - h
    x_base = _expansion(pows, B, M_seq, noise, s, s - 1, H) if s else np.zeros(B.shape[0])
    stack = _transfer_stack(pows[:h + 1], B, M_seq[s:t], h, H)
    count = min(H + h + 1, t)
    recent = np.asarray(noise[t - count:t], dtype=float)[::-1]  # w_{t-1}, w_{t-2}, ...
    return pows[h + 1] @ x_base + np.einsum("ixy,iy->x", stack[:count], recent)


def _hankel(A: np.ndarray, H: int, rows: int) -> np.ndarray:
    """Strided view, no copy, of A (..., L, n_x) with rows back to back: out[..., p, j, :]
    = A[..., p + j : p + j + H, :].ravel() for j < rows, p <= L - H - rows + 1. On a
    window (A[m] = w_{t-1-m}, p = 0) row j holds the H disturbances feeding the policy
    at lag j, column m * n_x + x being w_{t-1-j-m}[x], as in blocks flattened to (n_u, H n_x)."""
    step, item = A.strides[-2:]
    shape = A.shape[:-2] + (A.shape[-2] - H - rows + 2, rows, H * A.shape[-1])
    return as_strided(A, shape, A.strides[:-2] + (step, step, item), writeable=False)


class SurrogateKernel:
    """Precomputed pieces for repeated surrogate evaluation at fixed (K, H).

    Holds the power stack A_K^0..A_K^H and the products A_K^j B, laid
    side by side as (n_x, (H+1) n_x) and (n_x, (H+1) n_u) matrices, so a
    point or a gradient is a few matrix products with the contiguous Hankel
    rows 0..H+1 of the disturbance window and the blocks flattened to
    (n_u, H n_x). The gradient has two forms: grad, the lockstep episode's
    step, takes S seeds' Hankel rows and the views of their windows and of
    disturbance_action's product that the point reads, and writes G into an
    out in the blocks' flattened layout; window_grad takes blocks and one
    window W, as point and value do, and returns G as blocks. Products with
    fixed matrices are 2-D ndarray.dot calls over the seeds' rows, which at
    these sizes cost about half a matmul call; the one whose product fills
    a slice of grad's coefficient rows C is np.matmul(out=), since
    ndarray.dot writes only into a contiguous out.
    The seeds' own cost matrices meet their rows through np.matvec, which
    needs no column axis and is cheaper than `@` on one; on a scalar plant,
    as the kernel decides when built, R v and Q y are elementwise products
    of the costs' (S, 1) views and the rows, at half a matvec's cost. Such a
    product keeps a -0 (R = 0, or v = 0) that np.matvec, summing from +0,
    turns into +0; the gradient's matmul sums from +0 too, so G has the
    same bits either way. C is a scratch the kernel owns, made again when
    the number of seeds changes, so one kernel serves one thread.
    """

    def __init__(self, sys: LinearSystem, K: np.ndarray, H: int):
        if H < 1:
            raise ValueError("memory H must be >= 1")
        B = sys.B
        self.H = H
        self.K = np.asarray(K, dtype=float)
        self.n_x, self.n_u = B.shape
        self._scalar = self.n_x == self.n_u == 1
        pows = closed_loop_powers(sys.A, B, self.K, H + 1)
        # row a, column j*n + b holds A_K^j[a, b] and (A_K^j B)[a, b]; kept transposed
        self._pows_rowT = pows.transpose(1, 0, 2).reshape(self.n_x, -1).T
        self._PB_rowT = np.matmul(pows, B).transpose(1, 0, 2).reshape(self.n_x, -1).T
        self._PB2_row, self._KT = 2.0 * self._PB_rowT.T, self.K.T  # doubling is exact
        self._scratch = self._grad_scratch(0)

    def _window(self, blocks: np.ndarray, W: np.ndarray) -> tuple:
        """One window W (2H+1, n_x), checked, as grad's inputs for a stack of
        one seed: its contiguous Hankel rows (1, H+2, H n_x), then rows, dap0
        and dap_rest, sliced from W and dap = disturbance_action(blocks, hank)."""
        W = np.ascontiguousarray(W, dtype=float)
        if W.shape != (2 * self.H + 1, self.n_x):
            raise ValueError(
                f"window must have shape ({2 * self.H + 1}, {self.n_x}), got {W.shape}")
        hank = np.ascontiguousarray(_hankel(W, self.H, self.H + 2)[0])
        dap = disturbance_action(blocks, hank)
        return (hank[None], W[None, :self.H + 1].reshape(1, -1), dap[None, 0],
                dap[None, 1:].reshape(1, -1))

    def _point(self, rows: np.ndarray, dap0: np.ndarray,
               dap_rest: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(y, v) as rows (S, n) from the flat rows that grad reads."""
        # not y += ...: numpy takes its slow path for an in-place op on one element
        y = rows.dot(self._pows_rowT) + dap_rest.dot(self._PB_rowT)
        return y, dap0 - y.dot(self._KT)

    def _grad_scratch(self, S: int) -> tuple:
        """grad's coefficient rows C (S, (H+2) n_u) and the views of C it
        reads and writes: (C3 as (S, n_u, H+2), the g_u columns, the rest)."""
        C = np.empty((S, (self.H + 2) * self.n_u))
        return C.reshape(S, self.H + 2, self.n_u).swapaxes(1, 2), C[:, :self.n_u], C[:, self.n_u:]

    def point(self, blocks: np.ndarray, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(y, v) with the whole policy window frozen at one parameter."""
        y, v = self._point(*self._window(blocks, W)[1:])
        return y[0], v[0]

    def value(self, cost: tuple, blocks: np.ndarray, W: np.ndarray) -> float:
        """f(M) = y'Qy + v'Rv for a stage cost (Q, R), as CostSchedule.reveal gives it."""
        Q, R = cost
        y, v = self.point(blocks, W)
        return float(y @ Q @ y + v @ R @ v)

    def window_grad(self, cost: tuple, blocks: np.ndarray,
                    W: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(gradient, y, v) at blocks (H, n_u, n_x) on one window W: grad on
        a stack of one seed, its gradient returned as blocks."""
        G, y, v = self.grad(cost, *self._window(blocks, W),
                            np.empty((1, self.n_u, self.H * self.n_x)))
        return G[0].reshape(self.n_u, self.H, self.n_x).swapaxes(0, 1), y[0], v[0]

    def grad(self, cost: tuple, hank: np.ndarray, rows: np.ndarray, dap0: np.ndarray,
             dap_rest: np.ndarray, out: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(out, y, v) for S seeds in lockstep: adjoint accumulation of the chain rule.

        Block r collects (A_K^j B)' (g_x - K' g_u) against w_{t-2-r-j} over
        j = 0..H, plus the direct input sensitivity g_u w_{t-1-r}'. The step
        reads, per seed, its contiguous Hankel rows hank (S, H+2, H n_x), its
        window's rows 0..H as one flat row, rows (S, (H+1) n_x), and of
        dap = disturbance_action(blocks, hank) row 0, dap0 (S, n_u), and rows
        1..H+1 as one flat row, dap_rest (S, (H+1) n_u); costs (Q, R) are
        stacks of S. The gradient is written into out (S, n_u, H n_x), the
        blocks' flattened layout, and y, v come back as rows (S, n).
        """
        Q, R = cost
        S = len(rows)
        y, v = self._point(rows, dap0, dap_rest)
        # R v is half the stage-cost gradient g_u = 2 R v
        if self._scalar:  # 1x1 costs: their (S, 1) views times the rows
            Rv, Qy = R[..., 0] * v, Q[..., 0] * y
        else:
            Rv, Qy = np.matvec(R, v), np.matvec(Q, y)
        # C = [g_u; (A_K^j B)' g_eff for j = 0..H], g_eff = 2 (Q y - K' R v) (doubled in _PB2_row)
        if len(self._scratch[0]) != S:
            self._scratch = self._grad_scratch(S)
        C3, C_u, C_x = self._scratch
        np.add(Rv, Rv, out=C_u)
        np.matmul(Qy - Rv.dot(self.K), self._PB2_row, out=C_x)
        return np.matmul(C3, hank, out=out), y, v
