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
evaluated; run_episode reads its step sizes from it. Given one cost
schedule and noise process per seed, run_episode runs all the seeds in
lockstep, one pass of the per-step layers serving every seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from math import inf, log, sqrt
from typing import IO, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .costs import CostSchedule
from .noise import NoiseProcess, sample_episode
from .policy import (PolicyParams, control_input, horizon_H, project, project_scalar_stack,
                     scalar_stack_bounds)
from .stability import StabilityCertificate
from .surrogate import SurrogateKernel, _hankel
from .system import DIVERGENCE_LIMIT, LinearSystem, initial_state, recover_noise

_NORM_CHUNK_FLOATS = 2 ** 17  # floats per array of run_episode's norm scratch (1 MiB)


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
        if self.kind == "constant_sqrtT" and self.alpha_tilde is not None:
            raise ValueError("alpha_tilde applies only to the strongly_convex schedule")

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
    H: int
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

    def write_jsonl(self, fp: IO[str]) -> None:
        """One JSON object per step: {t, x, u, w, cost, eta, grad_frob, M_frob}.
        Each column is encoded once and split into its steps' texts; the
        encoder writes a float the same way in a list as alone."""
        def steps(column: np.ndarray) -> list:
            text = json.dumps(column.tolist(), separators=(",", ":"))
            return text[2:-2].split("],[") if column.ndim == 2 else text[1:-1].split(",")

        fp.write("".join(
            f'{{"t":{t},"x":[{x}],"u":[{u}],"w":[{w}],"cost":{c},"eta":{e},'
            f'"grad_frob":{g},"M_frob":{m}}}\n'
            for t, (x, u, w, c, e, g, m) in enumerate(zip(*map(steps, (
                self.xs[:self.T], self.us, self.ws, self.costs, self.etas, self.grad_frobs,
                self.m_frobs))))))


def _seed_axis(stacks: list) -> np.ndarray:
    """The seeds' (T, n, n) stacks as one (T, S, n, n) stack. Fixed costs
    (stride 0 over t) broadcast their step-0 matrices, so the stage
    schedule checks S matrices, not T * S."""
    if all(stack.strides[0] == 0 for stack in stacks):
        first = np.stack([stack[0] for stack in stacks])
        return np.broadcast_to(first, (stacks[0].shape[0],) + first.shape)
    return np.stack(stacks, 1)


def run_episode(sys: LinearSystem, K: np.ndarray, cert: StabilityCertificate,
                cost_schedule: CostSchedule | Sequence[CostSchedule],
                noise_proc: NoiseProcess | Sequence[NoiseProcess],
                lr_schedule: LearningRateSchedule, T: int, *,
                H: int | None = None, x0: np.ndarray | None = None,
                divergence_limit: float = DIVERGENCE_LIMIT) -> EpisodeRecord | list:
    """Run projected OGD for T steps and return the trace.

    The stage cost is revealed only through cost_schedule.reveal(t, u_t),
    after the input is committed; the gradient step then uses the same
    revealed cost on the surrogate window, which ends at w_{t-1} and so
    is fully known once w_t has been recovered for the next step. The
    injected disturbances are drawn before the loop, with the values
    sample(noise_proc, t) gives.

    Each step writes into buffers the episode owns and indexes nothing: its
    Hankel rows are copied into one (S, H+2, H n_x) buffer, disturbance_action
    writes into one (S, H+2, n_u) buffer, and control_input writes u straight
    into its record row. The rows a step reads or writes come from iterators
    over step-major views, and the views of dap and of each window's rows
    0..H that grad's point reads are built once; none is a copy, so the
    divergence reset's writes reach them. recover_noise writes w_t straight
    into the recovered-noise buffer, and grad writes G_t, in the blocks'
    flattened layout, straight into the first half of one (2, S, n_u H n_x)
    array whose second half holds the live blocks M_t. One square of that
    array per step fills a row of an (L, 2, S, n_u H n_x) scratch of L steps,
    summed once per chunk with the bits of per-step sums; the scratch holds
    2 MiB (or one step, if more) at any T. The step M_t - eta_t G_t then
    overwrites G_t in the first half, and its projection is written straight
    into the live blocks.

    Equal-length sequences of cost schedules and noise processes run one
    episode per seed in lockstep: states, blocks and the recovered-noise
    buffer gain a leading seed axis, and each per-step layer runs once per
    step for all seeds. On a scalar plant one project_scalar_stack call
    clips every seed's blocks; otherwise project runs once per seed, from
    that seed's step, viewed in the blocks' layout, into its live blocks.
    The result lists per seed its EpisodeRecord, equal to its solo run's bit
    for bit for one seed, and where A - B K = 0 with B and K diagonal;
    otherwise to within rounding (tests hold 1e-12 relative). A diverged
    seed lists the EpisodeDivergedError its solo run raises.
    """
    solo = isinstance(cost_schedule, CostSchedule)
    schedules = [cost_schedule] if solo else list(cost_schedule)
    procs = [noise_proc] if isinstance(noise_proc, NoiseProcess) else list(noise_proc)
    if solo != isinstance(noise_proc, NoiseProcess) or not procs or len(procs) != len(schedules):
        raise ValueError("pass one cost schedule and one noise process, "
                         "or equal-length sequences of both")
    etas = lr_schedule.etas(T)  # also rejects T < 3
    for schedule in schedules:
        schedule.require_horizon(T, sys.n_x, sys.n_u)
    # every seed's costs in one schedule of (T, S, n, n) stacks
    Q, R = (_seed_axis([s.Q[:T] for s in schedules]), _seed_axis([s.R[:T] for s in schedules]))
    stage = CostSchedule(Q, R, schedules[0].g_c)
    if any(p.dim != sys.n_x for p in procs):
        raise ValueError("noise dimension must match the state dimension")
    if lr_schedule.kind == "strongly_convex" and not cert.diagonal:
        raise ValueError("strongly_convex schedule requires a diagonal certificate")

    kappa, gamma, kappa_B = cert.kappa, cert.gamma, sys.kappa_B
    H = horizon_H(T, gamma) if H is None else H
    K = np.asarray(K, dtype=float)
    kern = SurrogateKernel(sys, K, H)

    S = len(procs)
    step_sizes, A_T, B_T = etas.tolist(), sys.A.T, sys.B.T  # cheaper to use in the loop
    # G_t and the live blocks M_t side by side, each (S, n_u H n_x): the blocks'
    # flattened layout, which grad writes into. One np.square per step fills a
    # norm-scratch row of both. The blocks start at zero, as an (S, H, n_u, n_x)
    # view of the second half, updated in place.
    GM = np.zeros((2, S, sys.n_u * H * sys.n_x))
    Gf, flat = GM
    G_out = Gf.reshape(S, sys.n_u, -1)
    blocks = flat.reshape(S, sys.n_u, H, sys.n_x).swapaxes(1, 2)
    flatT = flat.reshape(S, sys.n_u, -1).swapaxes(1, 2)  # (S, H n_x, n_u), as disturbance_action
    # G_t is spent once its square is taken, so its half then holds the step
    # M_t - eta_t G_t; raw views it in the blocks' layout, and its projection
    # is written straight into the live blocks
    raw = Gf.reshape(S, sys.n_u, H, sys.n_x).swapaxes(1, 2)
    scalar = sys.n_x == sys.n_u == 1
    if scalar:  # one clip per step for all seeds, on bounds shaped like the blocks
        low, high = scalar_stack_bounds(S, H, kappa, gamma, kappa_B)
    else:
        pairs = [(PolicyParams(r), b) for r, b in zip(raw, blocks)]
    xs = np.empty((T + 1, S, sys.n_x))  # step-major; step t writes x_{t+1} into xs[t+1]
    xrows = xs.reshape(T + 1, -1)  # all seeds' states of a step as one row, for the guard
    xs[0] = initial_state(sys, x0, divergence_limit)
    noise = [sample_episode(p, T) for p in procs]
    ws = np.stack(noise, axis=1)
    # Recovered disturbances, most recent first: buf[s, T-1-r] holds seed s's
    # w_r and the 2H+1 rows after row T-1 stay zero, so step t's surrogate
    # window (window[m] = w_{t-1-m}) and its Hankel rows start at row T-t.
    buf = np.zeros((S, T + 2 * H + 1, sys.n_x))
    # each step copies its Hankel rows into hank and disturbance_action's
    # product into dap; grad's point reads dap's row 0 and its rows 1..H+1
    # (one flat row per seed) through views built once here
    hank = np.empty((S, H + 2, H * sys.n_x))
    dap = np.empty((S, H + 2, sys.n_u))
    dap0, dap_rest = dap[:, 0], dap[:, 1:].reshape(S, -1)
    us = np.empty((T, S, sys.n_u))
    sq = np.empty((T, 2, S))  # squared Frobenius norms of G_t and M_t, summed per chunk
    L = min(max(_NORM_CHUNK_FLOATS // flat.size, 1), T)  # steps per chunk
    chunk = np.empty((L,) + GM.shape)
    outcome: list = [None] * S

    # Every row a step reads or writes comes from an iterator over the first
    # axis of a step-major view built here, none a copy, so the divergence
    # reset's writes reach them. Step t reads row T-t of buf's strided views:
    # its Hankel rows, its window, and the window's rows 0..H as one flat row;
    # it writes w_t into row T-1-t.
    def newest_first(view):
        return view.swapaxes(0, 1)[T:0:-1]

    windows = sliding_window_view(buf, 2 * H + 1, axis=1).swapaxes(2, 3)
    steps = zip(range(T), xs, xs[1:], xrows[1:], us, ws, step_sizes,
                newest_first(_hankel(buf, H, H + 2)), newest_first(windows),
                newest_first(_hankel(buf, H + 1, 1)[:, :, 0]), buf.swapaxes(0, 1)[T - 1::-1])
    for t, x, x_out, every, u_out, w, eta, hank_rows, W, W_rows, w_out in steps:
        np.copyto(hank, hank_rows)
        np.matmul(hank, flatT, out=dap)  # disturbance_action(blocks, hank)
        u = control_input(K, x, dap0, out=u_out)
        cost = stage.reveal(t, u)
        Ax, Bu = x.dot(A_T), u.dot(B_T)  # shared by the step and the noise recovery
        x_next = np.add(Ax + Bu, w, out=x_out)  # not +=: slow on one element
        recover_noise(x_next, Ax, Bu, out=w_out)

        kern.grad(cost, blocks, W, hank, dap, out=G_out, rows=W_rows, dap0=dap0,
                  dap_rest=dap_rest)
        c = t % L
        np.square(GM, out=chunk[c])
        if c == L - 1 or t == T - 1:
            np.add.reduce(chunk[:c + 1], axis=-1, out=sq[t - c:t + 1])
        Gf *= eta
        np.subtract(flat, Gf, out=Gf)
        if scalar:
            project_scalar_stack(raw, low, high, blocks)
        else:
            for view, live in pairs:
                project(view, kappa, gamma, kappa_B, live)

        # every holds x_{t+1} of all seeds: no seed's norm exceeds their norm together
        if not sqrt(every.dot(every)) <= divergence_limit:  # also trips on NaN
            for s, row in enumerate(x_next):
                norm = sqrt(row.dot(row))
                if not norm <= divergence_limit:
                    # its episode ends; it restarts from zero to stay finite, unrecorded
                    outcome[s] = outcome[s] or EpisodeDivergedError(step=t, norm=norm)
                    x_next[s], buf[s], blocks[s] = 0.0, 0.0, 0.0
            if None not in outcome:
                break  # no record is built, so a partial chunk needs no flush

    for s in [s for s, done in enumerate(outcome) if done is None]:
        seed_xs, seed_us = np.ascontiguousarray(xs[:, s]), np.ascontiguousarray(us[:, s])
        costs = schedules[s].stage_values(seed_xs[:T], seed_us)  # the paid c_t(x_t, u_t)
        outcome[s] = EpisodeRecord(
            T=T, H=H, xs=seed_xs, us=seed_us, ws=noise[s],
            ws_recovered=buf[s, T - 1::-1].copy(), costs=costs, etas=etas,
            grad_frobs=np.sqrt(sq[:, 0, s]), m_frobs=np.sqrt(sq[:, 1, s]),
            cum_cost=float(costs.sum()), M_final=PolicyParams(blocks[s].copy()),
            noise_hash=noise_fingerprint(noise[s]),
        )
    if solo and isinstance(outcome[0], EpisodeDivergedError):
        raise outcome[0]
    return outcome[0] if solo else outcome
