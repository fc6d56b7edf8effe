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
from .policy import comparator_params, disturbance_action
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


def _states(A_rows: np.ndarray, W_rows: np.ndarray) -> np.ndarray:
    """States X[t, r] = x_t, t < T = len(W_rows), of the rows x_{t+1} = A_rows[r] x_t
    + W_rows[t, r] from x_0 = 0; the one state recursion both comparators replay."""
    X = np.empty(W_rows.shape)
    X[:1] = 0.0
    for t in range(W_rows.shape[0] - 1):
        np.einsum("cxy,cy->cx", A_rows, X[t], out=X[t + 1])
        X[t + 1] += W_rows[t]
    return X


def rollout_gains(sys: LinearSystem, candidates: Sequence[np.ndarray],
                  cost_schedules: Sequence[CostSchedule],
                  realized_noise: Sequence[np.ndarray]) -> list:
    """Every candidate gain u = -Kx replayed on every seed's noise in one
    loop: per seed, the (C, T) per-step costs of the C candidates. Step t's
    costs read only the noise before step t and the schedule's step t, so
    their first T' columns are those of a T'-step replay, bit for bit."""
    if not cost_schedules or len(realized_noise) != len(cost_schedules):
        raise ValueError("pass one cost schedule and one noise array, "
                         "or equal-length sequences of both")
    if len(candidates) == 0:
        raise ValueError("candidate set is empty")
    ws = [_realized(sys, schedule, w) for schedule, w in zip(cost_schedules, realized_noise)]
    T = ws[0].shape[0]
    if any(w.shape[0] != T for w in ws):
        raise ValueError(f"every seed's realized noise must cover the first seed's {T} steps")
    Ks = np.stack([np.asarray(K, dtype=float) for K in candidates])
    if Ks.shape[1:] != (sys.n_u, sys.n_x):
        raise ValueError(f"candidate gains must be ({sys.n_u}, {sys.n_x})")
    A_Ks = sys.A[None, :, :] - np.matmul(sys.B, Ks)

    S, C = len(ws), Ks.shape[0]
    A_rows = np.tile(A_Ks, (S, 1, 1))  # row s * C + c: candidate c on seed s
    X = _states(A_rows, np.repeat(np.stack(ws, axis=1), C, axis=1))
    costs = []
    for s, schedule in enumerate(cost_schedules):
        X_s = np.ascontiguousarray(X[:, s * C:(s + 1) * C])  # laid out as a solo call's X
        U = -np.einsum("cux,tcx->tcu", Ks, X_s)
        costs.append(np.ascontiguousarray(schedule.stage_values(X_s, U).T))
    return costs


def select_gain(candidates: Sequence[np.ndarray], costs: np.ndarray,
                realized_noise: np.ndarray, T: int) -> ComparatorResult:
    """The cheapest candidate over the first T steps of one seed's rollout,
    given its (C, >= T) per-step costs and its noise; ties go to the first
    index. Each row's first T costs are summed in the same pairwise order as
    a T-column array's, so the result equals best_fixed_K on the T-step
    inputs bit for bit."""
    if not 1 <= T <= costs.shape[1]:
        raise ValueError(f"prefix length must lie in [1, {costs.shape[1]}], got {T}")
    totals = costs[:, :T].sum(axis=1)
    best = int(np.argmin(totals))
    return ComparatorResult(
        kind="fixed_gain",
        cumulative_cost=float(totals[best]),
        per_step_costs=costs[best, :T],
        descriptor={"K": np.asarray(candidates[best], dtype=float).tolist(), "index": best},
        search_meta={"candidate_costs": totals.tolist()},
        noise_hash=noise_fingerprint(np.asarray(realized_noise, dtype=float)[:T]),
    )


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
    costs = rollout_gains(sys, candidates, schedules, noises)
    results = [select_gain(candidates, c, w, c.shape[1]) for c, w in zip(costs, noises)]
    return results[0] if solo else results


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
    M_star = comparator_params(sys, K, K_star, H, kappa, gamma)
    T = ws.shape[0]
    # the noise most recent first, as the learner stores it: recent[T-1-r] = w_r and
    # H zero rows after it, so step t's Hankel row starts at row T-t
    recent = np.vstack([ws[::-1], np.zeros((H, sys.n_x))])
    # dap[t] = sum_m M^[m] w_{t-1-m}; it does not depend on the state, so
    # u_t = dap[t] - K x_t is the gain K driven by the noise w_t + B dap[t]
    dap = disturbance_action(M_star.blocks, _hankel(recent, H, 1)[T:0:-1])[:, 0]
    X = _states((sys.A - sys.B @ K)[None], (ws + dap @ sys.B.T)[:, None])[:, 0]
    costs = cost_schedule.stage_values(X, dap - X @ K.T)
    return ComparatorResult(
        kind="mstar",
        cumulative_cost=float(costs.sum()),
        per_step_costs=costs,
        descriptor={"K": K.tolist(), "K_star": K_star.tolist(), "H": H},
        search_meta={"M_star_frob": float(np.linalg.norm(M_star.blocks))},
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
