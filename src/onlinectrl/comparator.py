"""Benchmark policies evaluated on the same disturbance realization.

Regret is measured against a policy class replayed on exactly the noise
the learner saw. Three comparators are provided: the best fixed strongly
stable gain from a finite candidate set, the disturbance-action policy
induced by a reference gain, and the best fixed disturbance-action
parameters found by offline projected gradient descent on the surrogate
objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .costs import CostSchedule
from .learner import EpisodeRecord, noise_fingerprint
from .policy import (PolicyParams, comparator_params, project, zero_policy)
from .stability import StabilityCertificate, make_closed_loop
from .surrogate import SurrogateKernel, _windows
from .system import LinearSystem


@dataclass
class ComparatorResult:
    kind: str
    cumulative_cost: float
    per_step_costs: np.ndarray
    descriptor: dict
    search_meta: dict
    noise_hash: str
    surrogate_cost: Optional[float] = None


def best_fixed_K(sys: LinearSystem, candidates: Sequence[np.ndarray],
                 cost_schedule: CostSchedule,
                 realized_noise: np.ndarray) -> ComparatorResult:
    """Cheapest fixed linear gain u = -Kx over the candidate set.

    All candidates are rolled out in one batch on the shared noise; ties
    go to the first index.
    """
    if len(candidates) == 0:
        raise ValueError("candidate set is empty")
    ws = np.asarray(realized_noise, dtype=float)
    T = ws.shape[0]
    cost_schedule.require_horizon(T)
    Ks = np.stack([np.asarray(K, dtype=float) for K in candidates])
    if Ks.shape[1:] != (sys.n_u, sys.n_x):
        raise ValueError(f"candidate gains must be ({sys.n_u}, {sys.n_x})")
    A_Ks = sys.A[None, :, :] - np.matmul(sys.B, Ks)

    X = np.empty((T, Ks.shape[0], sys.n_x))  # X[t, c]: state of candidate c
    x = np.zeros(X.shape[1:])
    for t in range(T):
        X[t] = x
        x = np.einsum("cxy,cy->cx", A_Ks, x) + ws[t]
    U = -np.einsum("cux,tcx->tcu", Ks, X)
    costs = np.ascontiguousarray(cost_schedule.stage_values(X, U).T)

    totals = costs.sum(axis=1)
    best = int(np.argmin(totals))
    return ComparatorResult(
        kind="fixed_gain",
        cumulative_cost=float(totals[best]),
        per_step_costs=costs[best],
        descriptor={"K": Ks[best].tolist(), "index": best},
        search_meta={"candidate_costs": totals.tolist()},
        noise_hash=noise_fingerprint(ws),
    )


def _rollout_dap(sys: LinearSystem, K: np.ndarray, M: PolicyParams,
                 cost_schedule: CostSchedule, ws: np.ndarray) -> np.ndarray:
    """Stage costs of a fixed disturbance-action policy on given noise."""
    T = ws.shape[0]
    # dap[t] = sum_m M^[m] w_{t-1-m}; it does not depend on the state
    dap = np.einsum("mux,tmx->tu", M.blocks, _windows(ws, M.H))
    xs = np.zeros((T + 1, sys.n_x))
    us = np.empty((T, sys.n_u))
    for t in range(T):
        us[t] = -K @ xs[t] + dap[t]
        xs[t + 1] = sys.A @ xs[t] + sys.B @ us[t] + ws[t]
    return cost_schedule.stage_values(xs[:T], us)


def mstar_rollout(sys: LinearSystem, K: np.ndarray, K_star: np.ndarray,
                  cost_schedule: CostSchedule, realized_noise: np.ndarray,
                  H: int, kappa: float, gamma: float) -> ComparatorResult:
    """Replay of the disturbance-action parameters induced by K_star.

    Block i equals (K - K_star)(A - B K_star)^i; when both gains satisfy
    the same (kappa, gamma) stability bounds these blocks are admissible
    and the policy imitates u = -K_star x up to a tail the class cannot
    express.
    """
    ws = np.asarray(realized_noise, dtype=float)
    cost_schedule.require_horizon(ws.shape[0])
    K = np.asarray(K, dtype=float)
    K_star = np.asarray(K_star, dtype=float)
    M_star = comparator_params(K, K_star, sys.A, sys.B, H, kappa, gamma)
    costs = _rollout_dap(sys, K, M_star, cost_schedule, ws)
    return ComparatorResult(
        kind="mstar",
        cumulative_cost=float(costs.sum()),
        per_step_costs=costs,
        descriptor={"K": K.tolist(), "K_star": K_star.tolist(), "H": H},
        search_meta={"M_star_frob": float(M_star.frob_norm())},
        noise_hash=noise_fingerprint(ws),
    )


def best_fixed_M(sys: LinearSystem, K: np.ndarray, cert: StabilityCertificate,
                 cost_schedule: CostSchedule, realized_noise: np.ndarray,
                 H: int, optimizer_budget: int = 500,
                 starts: Sequence[PolicyParams] | None = None) -> ComparatorResult:
    """Best fixed admissible parameters in hindsight, by offline PGD.

    The search objective is the summed surrogate cost, the convex quadratic
    m'Pm + 2q'm + c of `SurrogateKernel.quadratic_form`; the reported
    cumulative cost is an exact closed-loop rollout of the winner. Extra
    starting points supplement the default zero start. The step size is 1/L
    with L = 2 lambda_max(P), the exact Lipschitz constant of the gradient.
    The budget is fixed; search_meta["last_step_frobs"] shows how far each start last moved.
    """
    ws = np.asarray(realized_noise, dtype=float)
    cost_schedule.require_horizon(ws.shape[0])
    K = np.asarray(K, dtype=float)
    kappa, gamma, kappa_B = cert.kappa, cert.gamma, sys.kappa_B
    kern = SurrogateKernel(make_closed_loop(sys, K, i_max=H), sys.B, H)
    P, q, c = kern.quadratic_form(cost_schedule.Q[:len(ws)], cost_schedule.R[:len(ws)], ws)
    L = 2.0 * float(np.linalg.eigvalsh(P)[-1])
    step = 1.0 / max(L, 1e-12)

    points = [zero_policy(H, sys.n_u, sys.n_x)] + (list(starts) if starts else [])
    finals, objectives, last_steps = [], [], []
    for start in points:
        M = prev = project(start, kappa, gamma, kappa_B)
        for _ in range(optimizer_budget):
            G = 2.0 * (P @ M.blocks.ravel() + q)
            prev, M = M, project(PolicyParams(M.blocks - step * G.reshape(M.blocks.shape)),
                                 kappa, gamma, kappa_B)
        m = M.blocks.ravel()
        finals.append(M)
        objectives.append(m @ P @ m + 2.0 * q @ m + c)
        last_steps.append(float(np.linalg.norm(M.blocks - prev.blocks)))
    best = int(np.argmin(objectives))
    M_best = finals[best]

    costs = _rollout_dap(sys, K, M_best, cost_schedule, ws)
    return ComparatorResult(
        kind="fixed_params",
        cumulative_cost=float(costs.sum()),
        per_step_costs=costs,
        descriptor={"H": H, "M_frob": float(M_best.frob_norm()),
                    "blocks": M_best.blocks.tolist()},
        search_meta={"objectives": [float(o) for o in objectives],
                     "lipschitz_estimate": L,
                     "iterations": optimizer_budget,
                     "start_count": len(points),
                     "last_step_frobs": last_steps},
        noise_hash=noise_fingerprint(ws),
        surrogate_cost=float(objectives[best]),
    )


@dataclass
class RegretCurve:
    learner_cum: np.ndarray
    comparator_cum: np.ndarray
    checkpoints: dict = field(default_factory=dict)
    regret_final: float = 0.0
    burn_in: int = 0
    regret_after_burn_in: float = 0.0


def regret(record: EpisodeRecord, comp: ComparatorResult,
           burn_in: int = 0) -> RegretCurve:
    """Cumulative learner cost minus comparator cost on shared noise.

    Refuses to compare runs whose disturbance fingerprints differ. The
    primary number is the full-horizon difference; the burn-in variant
    drops the first burn_in steps of both sides and is secondary.
    """
    if record.noise_hash != comp.noise_hash:
        raise ValueError("comparator was run on a different noise realization")
    if not 0 <= burn_in < record.T:
        raise ValueError(f"burn_in {burn_in} outside [0, {record.T})")
    lc = record.cum_costs()
    cc = np.cumsum(comp.per_step_costs)
    T = record.T
    diff = lc - cc
    marks = sorted({max(1, T // 8), max(1, T // 4), max(1, T // 2), T})
    checkpoints = {int(s): float(diff[s - 1]) for s in marks}
    if burn_in > 0:
        after = float((lc[-1] - lc[burn_in - 1]) - (cc[-1] - cc[burn_in - 1]))
    else:
        after = float(diff[-1])
    return RegretCurve(
        learner_cum=lc, comparator_cum=cc, checkpoints=checkpoints,
        regret_final=float(diff[-1]), burn_in=burn_in,
        regret_after_burn_in=after,
    )
