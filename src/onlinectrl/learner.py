"""Projected online gradient descent over disturbance-action policies.

One episode follows the online control protocol: commit u_t, receive the
stage cost c_t, pay c_t(x_t, u_t), observe x_{t+1}, recover w_t from the
known dynamics, then take one projected gradient step on the surrogate
cost f_t. Two learning-rate schedules are provided:

  constant_sqrtT    eta_t = 1 / (sqrt(T) ln(T)^3)        convex costs
  strongly_convex   eta_t = 3 / (alpha_tilde (t + 1))    strongly convex
                    costs, diagonally strongly stable K

with alpha_tilde = alpha sigma_lower^2 gamma^2 / (36 kappa^10).
LearningRateSchedule.etas(T) is the one place these formulas are
evaluated; run_episode reads its step sizes from it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from math import inf, log, sqrt
from typing import IO, Optional

import numpy as np

from .costs import CostSchedule
from .noise import NoiseProcess, sample_episode
from .policy import (PolicyParams, control_input, horizon_H, is_admissible,
                     policy_class_diameter, project, zero_policy)
from .stability import StabilityCertificate, make_closed_loop
from .surrogate import SurrogateKernel
from .system import LinearSystem, initial_state, recover_noise

class EpisodeDivergedError(RuntimeError):
    """State norm blew past the divergence guard."""

    def __init__(self, step: int, norm: float):
        self.step = step
        self.norm = norm
        super().__init__(f"state diverged at step {step} (||x|| = {norm:.3e})")


@dataclass(frozen=True)
class LearningRateSchedule:
    kind: str
    alpha_tilde: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("constant_sqrtT", "strongly_convex"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        # the chained comparison is False for NaN, so this rejects it too
        if self.kind == "strongly_convex" and not (
                self.alpha_tilde is not None and 0.0 < self.alpha_tilde < inf):
            raise ValueError("strongly_convex schedule needs a finite alpha_tilde > 0")

    def etas(self, T: int) -> np.ndarray:
        """Step sizes eta_0, ..., eta_{T-1} of a T-step episode."""
        if T < 3:
            raise ValueError(f"horizon T must be >= 3, got {T}")
        if self.kind == "strongly_convex":
            return 3.0 / (self.alpha_tilde * np.arange(1.0, T + 1.0))
        return np.full(T, 1.0 / (sqrt(T) * log(T) ** 3))


def alpha_tilde_from(alpha: float, sigma_lower: float, gamma: float,
                     kappa: float) -> float:
    """Strong-convexity modulus of the surrogate costs."""
    return alpha * sigma_lower ** 2 * gamma ** 2 / (36.0 * kappa ** 10)


def noise_fingerprint(ws: np.ndarray) -> str:
    """Hash of a realized disturbance sequence; comparators must match it."""
    return hashlib.sha256(np.ascontiguousarray(ws).tobytes()).hexdigest()


@dataclass
class EpisodeRecord:
    """Full trace of one learning episode."""

    T: int
    n_x: int
    n_u: int
    H: int
    kappa: float
    gamma: float
    kappa_B: float
    schedule_kind: str
    xs: np.ndarray            # (T+1, n_x), xs[t] is the state before step t
    us: np.ndarray            # (T, n_u)
    ws: np.ndarray            # (T, n_x), injected disturbances
    ws_recovered: np.ndarray  # (T, n_x), recovered from observed states
    costs: np.ndarray         # (T,), paid stage costs
    etas: np.ndarray
    grad_frobs: np.ndarray    # ||grad f_t(M_t)||_F
    m_frobs: np.ndarray       # ||M_t||_F
    cum_cost: float
    M_final: PolicyParams
    noise_hash: str

    def cum_costs(self) -> np.ndarray:
        return np.cumsum(self.costs)

    def write_jsonl(self, fp: IO[str]) -> None:
        """One JSON object per step: {t, x, u, w, cost, eta, grad_frob, M_frob}."""
        for t in range(self.T):
            fp.write(json.dumps({
                "t": t,
                "x": self.xs[t].tolist(),
                "u": self.us[t].tolist(),
                "w": self.ws[t].tolist(),
                "cost": float(self.costs[t]),
                "eta": float(self.etas[t]),
                "grad_frob": float(self.grad_frobs[t]),
                "M_frob": float(self.m_frobs[t]),
            }, separators=(",", ":")) + "\n")


def run_episode(sys: LinearSystem, K: np.ndarray, cert: StabilityCertificate,
                cost_schedule: CostSchedule, noise_proc: NoiseProcess,
                lr_schedule: LearningRateSchedule, T: int, *,
                M0: PolicyParams | None = None, H: int | None = None,
                x0: np.ndarray | None = None,
                divergence_limit: float = 1e12) -> EpisodeRecord:
    """Run projected OGD for T steps and return the trace.

    The stage cost is revealed only through cost_schedule.reveal(t, u_t),
    after the input is committed; the gradient step then uses the same
    revealed cost on the surrogate window, which ends at w_{t-1} and so
    is fully known once w_t has been recovered for the next step. The
    injected disturbances are drawn before the loop, with the values
    sample(noise_proc, t) gives.
    """
    etas = lr_schedule.etas(T)  # also rejects T < 3
    cost_schedule.require_horizon(T)
    if (cost_schedule.Q.shape[1:], cost_schedule.R.shape[1:]) != \
            ((sys.n_x, sys.n_x), (sys.n_u, sys.n_u)):
        raise ValueError("cost schedule dimensions must match the system")
    if noise_proc.dim != sys.n_x:
        raise ValueError("noise dimension must match the state dimension")
    if lr_schedule.kind == "strongly_convex" and not cert.diagonal:
        raise ValueError("strongly_convex schedule requires a diagonal certificate")

    kappa, gamma, kappa_B = cert.kappa, cert.gamma, sys.kappa_B
    if H is None:
        H = horizon_H(T, gamma)
    K = np.asarray(K, dtype=float)
    cl = make_closed_loop(sys, K, i_max=H)
    kern = SurrogateKernel(cl, sys.B, H)

    M = M0 if M0 is not None else zero_policy(H, sys.n_u, sys.n_x)
    if M.blocks.shape != (H, sys.n_u, sys.n_x):
        raise ValueError(f"M0 must have shape ({H}, {sys.n_u}, {sys.n_x})")
    if not is_admissible(M, kappa, gamma, kappa_B):
        raise ValueError("M0 lies outside the admissible set")

    x = initial_state(sys, x0)
    ws = sample_episode(noise_proc, T)
    # Recovered disturbances, most recent first: row T-1-s holds w_s and the
    # 2H+1 rows after row T-1 stay zero, so step t's surrogate window
    # (window[m] = w_{t-1-m}) is the slice starting at row T-t.
    buf = np.zeros((T + 2 * H + 1, sys.n_x))
    xs = np.empty((T + 1, sys.n_x))
    us = np.empty((T, sys.n_u))
    costs = np.empty(T)
    grad_frobs = np.empty(T)
    m_frobs = np.empty(T)

    for t in range(T):
        window = buf[T - t:T - t + 2 * H + 1]
        xs[t] = x
        u = control_input(K, M, x, window)
        cost_t = cost_schedule.reveal(t, u)
        costs[t] = cost_t.value(x, u)
        x_next = sys.A @ x + sys.B @ u + ws[t]
        buf[T - 1 - t] = recover_noise(sys, x_next, x, u)

        norm_x = sqrt(x_next @ x_next)  # np.linalg.norm's sum, as below
        if not norm_x <= divergence_limit:  # also trips on NaN
            raise EpisodeDivergedError(step=t, norm=norm_x)

        G, _, _ = kern.grad(cost_t, M.blocks, window)

        us[t] = u
        grad_frobs[t] = sqrt(G.ravel("K") @ G.ravel("K"))
        m_frobs[t] = sqrt(M.blocks.ravel("K") @ M.blocks.ravel("K"))

        M = project(PolicyParams(M.blocks - etas[t] * G), kappa, gamma, kappa_B)
        x = x_next

    xs[T] = x
    return EpisodeRecord(
        T=T, n_x=sys.n_x, n_u=sys.n_u, H=H, kappa=kappa, gamma=gamma,
        kappa_B=kappa_B, schedule_kind=lr_schedule.kind, xs=xs, us=us, ws=ws,
        ws_recovered=buf[T - 1::-1].copy(), costs=costs, etas=etas,
        grad_frobs=grad_frobs, m_frobs=m_frobs, cum_cost=float(costs.sum()),
        M_final=M, noise_hash=noise_fingerprint(ws),
    )


def ogd_memory_regret_terms(record: EpisodeRecord, L_c: float = 1.0) -> dict:
    """Empirical value of the three memory-OGD regret terms.

    For a constant step size these are exactly the Lipschitz-drift sum
    L_c eta sum_t sum_{i<=min(H+1,t)} sum_{k<=i} ||grad f_{t-k}||, the
    diameter term D^2/(2 eta), and the gradient-energy term
    (eta/2) sum ||grad f_t||^2. With a decaying schedule the per-step eta
    is used inside the sums and the mean eta in the diameter term, as the
    empirical analogue.
    """
    g = record.grad_frobs
    e = record.etas
    H, T = record.H, record.T
    a = e * g
    # steps t <= L weigh a[s] by s + 1; later ones convolve a with H+1, ..., 1
    L = min(H, T - 1)
    drift = L_c * float(np.arange(1, L + 1) @ (np.arange(L, 0, -1) * a[:L])
                        + np.convolve(a, np.arange(H + 1, 0, -1.0))[H:T - 1].sum())

    n = max(record.n_x, record.n_u)
    D = policy_class_diameter(n, record.kappa, record.gamma, record.kappa_B)
    constant = np.allclose(e, e[0])
    eta_bar = float(e[0]) if constant else float(e.mean())
    diameter = D ** 2 / (2.0 * eta_bar)
    energy = 0.5 * float(e @ g ** 2)
    return {
        "lipschitz_term": float(drift),
        "diameter_term": float(diameter),
        "gradient_term": float(energy),
        "total": float(drift + diameter + energy),
        "eta_mode": "constant" if constant else "per_step",
        "diameter": float(D),
    }
