"""Benchmark policies evaluated on the same disturbance realization.

Regret is measured against a policy class replayed on exactly the noise
the learner saw. Two comparators are provided: the best fixed strongly
stable gain from a finite candidate set (`best_fixed_K`), and the
disturbance-action policy induced by a reference gain (`mstar_rollout`).
`regret` turns a learner record and a comparator result into a regret curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .costs import CostSchedule
from .learner import EpisodeRecord, noise_fingerprint
from .policy import PolicyParams, comparator_params, disturbance_action
from .surrogate import _hankel
from .system import LinearSystem


@dataclass
class ComparatorResult:
    kind: str
    cumulative_cost: float
    per_step_costs: np.ndarray
    descriptor: dict
    search_meta: dict
    noise_hash: str


def _realized(sys: LinearSystem, cost_schedule: CostSchedule,
              realized_noise: np.ndarray) -> np.ndarray:
    """realized_noise as a (T, n_x) float array that cost_schedule covers."""
    ws = np.asarray(realized_noise, dtype=float)
    if ws.ndim != 2 or ws.shape[1] != sys.n_x:
        raise ValueError(f"realized noise must be a (T, n_x) = (T, {sys.n_x}) array, "
                         f"got shape {ws.shape}")
    cost_schedule.require_horizon(ws.shape[0])
    return ws


def best_fixed_K(sys: LinearSystem, candidates: Sequence[np.ndarray],
                 cost_schedule: CostSchedule | Sequence[CostSchedule],
                 realized_noise: np.ndarray | Sequence[np.ndarray]) -> ComparatorResult | list:
    """Cheapest fixed linear gain u = -Kx over the candidate set.

    All candidates are rolled out in one batch on the shared noise; ties
    go to the first index. Equal-length sequences of cost schedules and
    noise arrays, one per seed, roll out every (seed, candidate) pair in
    one loop and return a list with each seed's result, the same as its
    solo call.
    """
    solo = isinstance(cost_schedule, CostSchedule)
    schedules = [cost_schedule] if solo else list(cost_schedule)
    noises = [realized_noise] if solo else list(realized_noise)
    if not schedules or len(noises) != len(schedules):
        raise ValueError("pass one cost schedule and one noise array, "
                         "or equal-length sequences of both")
    if len(candidates) == 0:
        raise ValueError("candidate set is empty")
    ws = [_realized(sys, schedule, w) for schedule, w in zip(schedules, noises)]
    T = ws[0].shape[0]
    if any(w.shape[0] != T for w in ws):
        raise ValueError(f"every seed's realized noise must cover the first seed's {T} steps")
    Ks = np.stack([np.asarray(K, dtype=float) for K in candidates])
    if Ks.shape[1:] != (sys.n_u, sys.n_x):
        raise ValueError(f"candidate gains must be ({sys.n_u}, {sys.n_x})")
    A_Ks = sys.A[None, :, :] - np.matmul(sys.B, Ks)

    S, C = len(ws), Ks.shape[0]
    A_rows = np.tile(A_Ks, (S, 1, 1))  # row s * C + c: candidate c on seed s
    W_rows = np.repeat(np.stack(ws, axis=1), C, axis=1)
    X = np.empty((T, S * C, sys.n_x))  # X[t, r]: state of row r
    X[:1] = 0.0
    for t in range(T - 1):
        np.einsum("cxy,cy->cx", A_rows, X[t], out=X[t + 1])
        X[t + 1] += W_rows[t]

    results = []
    for s, (schedule, w) in enumerate(zip(schedules, ws)):
        X_s = np.ascontiguousarray(X[:, s * C:(s + 1) * C])  # laid out as a solo call's X
        U = -np.einsum("cux,tcx->tcu", Ks, X_s)
        costs = np.ascontiguousarray(schedule.stage_values(X_s, U).T)
        totals = costs.sum(axis=1)
        best = int(np.argmin(totals))
        results.append(ComparatorResult(
            kind="fixed_gain",
            cumulative_cost=float(totals[best]),
            per_step_costs=costs[best],
            descriptor={"K": Ks[best].tolist(), "index": best},
            search_meta={"candidate_costs": totals.tolist()},
            noise_hash=noise_fingerprint(w),
        ))
    return results[0] if solo else results


def _rollout_dap(sys: LinearSystem, K: np.ndarray, M: PolicyParams,
                 cost_schedule: CostSchedule, ws: np.ndarray) -> np.ndarray:
    """Stage costs of a fixed disturbance-action policy on given noise."""
    T = ws.shape[0]
    # the noise most recent first, as the learner stores it: recent[T-1-r] = w_r and
    # H zero rows after it, so step t's Hankel row starts at row T-t
    recent = np.vstack([ws[::-1], np.zeros((M.H, sys.n_x))])
    # dap[t] = sum_m M^[m] w_{t-1-m}; it does not depend on the state
    dap = disturbance_action(M.blocks, _hankel(recent, M.H, 1)[T:0:-1])[:, 0]
    xs = np.zeros((T + 1, sys.n_x))
    us = np.empty((T, sys.n_u))
    K_T, A_T, B_T = K.T, sys.A.T, sys.B.T  # 2-D dot products: no matmul dispatch per step
    for t in range(T):
        us[t] = dap[t] - xs[t].dot(K_T)
        xs[t + 1] = xs[t].dot(A_T) + us[t].dot(B_T) + ws[t]
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
    ws = _realized(sys, cost_schedule, realized_noise)
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


@dataclass
class RegretCurve:
    checkpoints: dict
    regret_final: float


def regret(record: EpisodeRecord, comp: ComparatorResult) -> RegretCurve:
    """Cumulative learner cost minus comparator cost on shared noise.

    Refuses to compare runs whose disturbance fingerprints differ. The
    final number is the full-horizon difference; checkpoints hold it at
    T/8, T/4, T/2 and T.
    """
    if record.noise_hash != comp.noise_hash:
        raise ValueError("comparator was run on a different noise realization")
    diff = np.cumsum(record.costs) - np.cumsum(comp.per_step_costs)
    T = record.T
    marks = sorted({max(1, T // 8), max(1, T // 4), max(1, T // 2), T})
    return RegretCurve(checkpoints={int(s): float(diff[s - 1]) for s in marks},
                       regret_final=float(diff[-1]))
