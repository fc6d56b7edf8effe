import dataclasses
import io
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from onlinectrl import costs, learner
from onlinectrl.cli import main as cli_main
from onlinectrl.costs import (CostSchedule, adversarial_convex_schedule,
                              constant_schedule, quadratic_cost)
from onlinectrl.learner import (EpisodeDivergedError, EpisodeRecord,
                                LearningRateSchedule, alpha_tilde_from,
                                noise_fingerprint, run_episode)
from onlinectrl.noise import NoiseProcess, sample, sample_episode
from onlinectrl.policy import (PolicyParams, admissible_radii, control_input, horizon_H,
                               is_admissible, project, project_scalar_stack,
                               scalar_stack_bounds)
from onlinectrl.stability import build_certificate, certify
from onlinectrl.surrogate import SurrogateKernel, _hankel
from onlinectrl.system import DIVERGENCE_LIMIT, initial_state, make_system, recover_noise


def _scalar_setup(A=0.6, B=1.0, K=0.4, kappa=1.0, gamma=0.8):
    sys_ = make_system(np.array([[A]]), np.array([[B]]))
    cert = certify(sys_, np.array([[K]]), kappa, gamma)
    return sys_, np.array([[K]]), cert


def _eta(lr, t, T):
    """Step size at step t of a T-step episode, one scalar at a time."""
    if lr.kind == "constant_sqrtT":
        return 1.0 / (math.sqrt(T) * math.log(T) ** 3)
    return 3.0 / (lr.alpha_tilde * (t + 1))


def test_eta_constant_sqrtT_matches_hand_values():
    sched = LearningRateSchedule("constant_sqrtT")
    # 1 / (sqrt(T) ln(T)^3), evaluated by hand
    assert sched.etas(8)[0] == pytest.approx(0.03932012223049602, rel=1e-15)
    assert sched.etas(100)[57] == pytest.approx(0.0010239127404318995, rel=1e-15)
    assert sched.etas(4096)[4095] == pytest.approx(2.7151879947527002e-05, rel=1e-15)
    # constant in t
    assert sched.etas(100).shape == (100,)
    assert len(set(sched.etas(100))) == 1


def test_eta_strongly_convex_decays_like_inverse_t():
    etas = LearningRateSchedule("strongly_convex", alpha_tilde=0.5).etas(10)
    assert etas[0] == 6.0
    assert etas[2] == 2.0
    assert etas[9] == pytest.approx(0.6)


@pytest.mark.parametrize("lr", [
    LearningRateSchedule("strongly_convex", alpha_tilde=0.37),
    LearningRateSchedule("constant_sqrtT"),
], ids=["strongly_convex", "constant_sqrtT"])
def test_episode_step_sizes_equal_eta(lr):
    sys_, K, cert = _scalar_setup()
    T = 50
    schedule = constant_schedule(quadratic_cost(np.eye(1), np.eye(1)), T)
    rec = run_episode(sys_, K, cert, schedule, NoiseProcess("gaussian", 1.0, dim=1, seed=4),
                      lr, T)
    assert rec.etas.tobytes() == lr.etas(T).tobytes()
    assert all(rec.etas[t] == _eta(lr, t, T) for t in range(T))


def test_schedule_validation():
    with pytest.raises(ValueError, match="schedule kind"):
        LearningRateSchedule("adagrad")
    with pytest.raises(ValueError, match=">= 3"):
        LearningRateSchedule("constant_sqrtT").etas(2)
    for bad in (None, 0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="alpha_tilde"):
            LearningRateSchedule("strongly_convex", alpha_tilde=bad)
    with pytest.raises(ValueError, match="alpha_tilde applies only"):
        LearningRateSchedule("constant_sqrtT", alpha_tilde=5.0)


def test_alpha_tilde_hand_value():
    # alpha sigma^2 gamma^2 / (36 kappa^10) at alpha=sigma=1, gamma=0.5, kappa=1
    assert alpha_tilde_from(1.0, 1.0, 0.5, 1.0) == 0.25 / 36.0
    assert alpha_tilde_from(2.0, 1.0, 0.9, 1.0) == pytest.approx(0.045)


def _naive_replay(sys_, K, cert, proc, cost, lr, T, H):
    """The projected-OGD loop with explicit bookkeeping: per-step noise
    draws, a window rebuilt from the list of past disturbances, and
    projection by full-SVD clipping of every block."""
    kern = SurrogateKernel(sys_, K, H)
    radii = admissible_radii(H, cert.kappa, cert.gamma, sys_.kappa_B)
    M = np.zeros((H, sys_.n_u, sys_.n_x))
    past = []                      # most recent last
    x = np.zeros(sys_.n_x)
    steps = []
    for t in range(T):
        W = np.zeros((2 * H + 1, sys_.n_x))
        for m, w in enumerate(reversed(past[-(2 * H + 1):])):
            W[m] = w
        u = -K @ x + sum(M[i] @ W[i] for i in range(H))
        w = sample(proc, t)
        Q, R = cost.reveal(0, u)  # a one-step schedule: the same cost every step
        g = kern.grad((Q, R), M, W)[0]
        step = _eta(lr, t, T)
        U, sv, Vt = np.linalg.svd(M - step * g, full_matrices=False)
        steps.append({"x": x, "u": u, "w": w, "cost": float(x @ Q @ x + u @ R @ u),
                      "eta": step, "grad_frob": np.linalg.norm(g),
                      "clipped": bool(np.any(sv[:, 0] > radii))})
        M = np.einsum("hij,hj,hjk->hik", U, np.minimum(sv, radii[:, None]), Vt)
        past.append(w)
        x = sys_.A @ x + sys_.B @ u + w
    return steps, M, x


def _assert_matches_replay(rec, steps, M, x, tol):
    for t, step in enumerate(steps):
        np.testing.assert_array_equal(rec.ws[t], step["w"])
        np.testing.assert_allclose(rec.xs[t], step["x"], rtol=tol, atol=tol)
        np.testing.assert_allclose(rec.us[t], step["u"], rtol=tol, atol=tol)
        assert rec.costs[t] == pytest.approx(step["cost"], rel=tol, abs=tol)
        assert rec.etas[t] == step["eta"]
        assert rec.grad_frobs[t] == pytest.approx(step["grad_frob"], rel=tol, abs=tol)
    np.testing.assert_allclose(rec.M_final.blocks, M, rtol=tol, atol=tol)
    np.testing.assert_allclose(rec.xs[-1], x, rtol=tol, atol=tol)
    assert rec.cum_cost == pytest.approx(float(rec.costs.sum()))


def test_episode_matches_naive_replay():
    """Replays the whole projected-OGD loop with explicit bookkeeping."""
    sys_, K, cert = _scalar_setup()
    T, H = 8, 3
    proc = NoiseProcess("gaussian", 1.0, dim=1, seed=77)
    cost = quadratic_cost(np.eye(1), np.eye(1))
    lr = LearningRateSchedule("constant_sqrtT")
    rec = run_episode(sys_, K, cert, constant_schedule(cost, T), proc, lr, T, H=H)
    steps, M, x = _naive_replay(sys_, K, cert, proc, cost, lr, T, H)
    for step in steps:
        assert step["cost"] == pytest.approx(
            float(step["x"] @ step["x"] + step["u"] @ step["u"]), abs=1e-12)
    _assert_matches_replay(rec, steps, M, x, tol=1e-12)


def test_matrix_episode_matches_naive_replay():
    """(n_x, n_u) = (3, 2), Student-t noise and a step size large enough
    that projection clips blocks along the way (on 38 of the 40 steps)."""
    B = np.array([[1.0, 0.0], [0.5, 1.0], [0.0, 0.3]])
    K = np.array([[0.2, -0.1, 0.3], [0.1, 0.25, -0.2]])
    A = np.diag([0.3, -0.2, 0.1]) + B @ K
    sys_ = make_system(A, B)
    cert = certify(sys_, K, 1.5, 0.5)
    T, H = 40, 4
    proc = NoiseProcess("student_t", 1.0, dim=3, seed=19, df=5.0)
    cost = quadratic_cost(np.diag([1.0, 2.0, 0.5]), np.diag([0.5, 1.0]))
    lr = LearningRateSchedule("strongly_convex", alpha_tilde=1.0)
    rec = run_episode(sys_, K, cert, constant_schedule(cost, T), proc, lr, T, H=H)
    steps, M, x = _naive_replay(sys_, K, cert, proc, cost, lr, T, H)
    assert sum(step["clipped"] for step in steps) >= 5
    _assert_matches_replay(rec, steps, M, x, tol=1e-12)


def _rel(a, b):
    """Largest deviation of a from b, relative to b's largest entry."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


def _assert_same_episode(got, want, tol=1e-12):
    assert isinstance(got, EpisodeRecord)
    assert got.ws.tobytes() == want.ws.tobytes()
    assert got.noise_hash == want.noise_hash
    assert got.etas.tobytes() == want.etas.tobytes()
    assert got.cum_cost == pytest.approx(want.cum_cost, rel=tol, abs=0.0)
    for field in ("costs", "grad_frobs", "m_frobs", "xs", "us", "ws_recovered"):
        assert _rel(getattr(got, field), getattr(want, field)) <= tol, field
    assert _rel(got.M_final.blocks, want.M_final.blocks) <= tol


def _plant_3x2():
    B = np.array([[1.0, 0.0], [0.5, 1.0], [0.0, 0.3]])
    K = np.array([[0.2, -0.1, 0.3], [0.1, 0.25, -0.2]])
    sys_ = make_system(np.diag([0.3, -0.2, 0.1]) + B @ K, B)
    return sys_, K, certify(sys_, K, 1.5, 0.5)


def _lockstep_case(name):
    """(system, K, cert, schedules, noise processes, lr, T, H) of one case."""
    if name == "scalar-random-costs":
        sys_, K, cert = _scalar_setup()
        T = 64
        schedules = [adversarial_convex_schedule(100 + s, T, 1, 1) for s in range(3)]
        procs = [NoiseProcess("gaussian", 1.0, dim=1, seed=s) for s in range(3)]
        return sys_, K, cert, schedules, procs, LearningRateSchedule("constant_sqrtT"), T, None
    if name == "3x2-student-t-clipping":
        sys_, K, cert = _plant_3x2()
        T = 40
        cost = quadratic_cost(np.diag([1.0, 2.0, 0.5]), np.diag([0.5, 1.0]))
        procs = [NoiseProcess("student_t", 1.0, dim=3, seed=s, df=5.0) for s in (19, 20)]
        lr = LearningRateSchedule("strongly_convex", alpha_tilde=1.0)
        return sys_, K, cert, [constant_schedule(cost, T)] * 2, procs, lr, T, 4
    if name == "scalar-strongly-convex":
        sys_, K, cert = _scalar_setup()
        T = 50
        schedules = [adversarial_convex_schedule(7 + s, T, 1, 1) for s in range(4)]
        procs = [NoiseProcess("laplace", 0.7, dim=1, seed=s) for s in range(4)]
        lr = LearningRateSchedule("strongly_convex", alpha_tilde=0.37)
        return sys_, K, cert, schedules, procs, lr, T, None
    # H + 1 >= T: every window reaches back before time zero
    sys_, K, cert = _scalar_setup()
    T = 6
    schedule = constant_schedule(quadratic_cost(np.eye(1), np.eye(1)), T)
    procs = [NoiseProcess("gaussian", 2.0, dim=1, seed=s) for s in range(3)]
    return sys_, K, cert, [schedule] * 3, procs, LearningRateSchedule("constant_sqrtT"), T, 7


@pytest.mark.parametrize("name", ["scalar-random-costs", "3x2-student-t-clipping",
                                  "scalar-strongly-convex", "memory-reaches-past-start"])
def test_lockstep_seeds_match_solo_episodes(name):
    """One lockstep call returns, per seed, what a solo call returns."""
    sys_, K, cert, schedules, procs, lr, T, H = _lockstep_case(name)
    batch = run_episode(sys_, K, cert, schedules, procs, lr, T, H=H)
    assert len(batch) == len(procs)
    for schedule, proc, got in zip(schedules, procs, batch):
        _assert_same_episode(got, run_episode(sys_, K, cert, schedule, proc, lr, T, H=H))
    if name == "3x2-student-t-clipping":
        radii = admissible_radii(4, cert.kappa, cert.gamma, sys_.kappa_B)
        assert any(np.any(np.linalg.norm(rec.M_final.blocks, 2, axis=(1, 2))
                          >= radii * (1 - 1e-9)) for rec in batch)


@pytest.mark.parametrize("plant", ["scalar", "2x2"])
def test_scalar_lockstep_clips_all_seeds_in_one_call(plant, monkeypatch):
    """On a scalar plant every step makes one project_scalar_stack call for
    all seeds and no project call; a 2x2 plant still calls project once per
    seed per step. The scalar run clips, and keeps the per-seed oracle's bits."""
    calls = {"project": 0, "project_scalar_stack": 0, "clipped": 0}

    def spy(name):
        fn = getattr(learner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            if name == "project_scalar_stack":
                raw, _, high = args[:3]
                calls["clipped"] += int(np.count_nonzero(np.abs(raw) > high))
            return fn(*args, **kwargs)
        monkeypatch.setattr(learner, name, counted)

    T, S = 30, 3
    if plant == "scalar":
        sys_, K, cert = _scalar_setup()
        schedules = [adversarial_convex_schedule(7 + s, T, 1, 1) for s in range(S)]
    else:
        B, K = np.diag([1.0, 0.5]), np.diag([0.3, 0.4])
        sys_ = make_system(B @ K, B)
        cert = certify(sys_, K, 1.5, 0.5)
        schedules = [constant_schedule(quadratic_cost(np.eye(2), np.eye(2)), T)] * S
    procs = [NoiseProcess("laplace", 2.0, dim=sys_.n_x, seed=s) for s in range(S)]
    lr = LearningRateSchedule("strongly_convex", alpha_tilde=0.37)
    want = _run_episode_per_step(sys_, K, cert, schedules, procs, lr, T, H=5)
    spy("project")
    spy("project_scalar_stack")
    got = run_episode(sys_, K, cert, schedules, procs, lr, T, H=5)
    if plant == "scalar":
        assert (calls["project"], calls["project_scalar_stack"]) == (0, T)
        assert calls["clipped"] > 0
    else:
        assert (calls["project"], calls["project_scalar_stack"]) == (T * S, 0)
    for g, w in zip(got, want, strict=True):
        _assert_bitwise_equal(g, w)


def test_lockstep_drops_a_diverging_seed():
    """A limit between the seeds' largest states trips one seed mid-episode:
    it reports the step and norm its solo run raises, and the others equal
    a batch that never held it."""
    sys_, K, cert, schedules, procs, lr, T, H = _lockstep_case("scalar-random-costs")
    free = run_episode(sys_, K, cert, schedules, procs, lr, T)
    peaks = [float(np.max(np.linalg.norm(rec.xs[1:], axis=1))) for rec in free]
    order = np.argsort(peaks)
    wild = int(order[-1])
    limit = 0.5 * (peaks[order[-1]] + peaks[order[-2]])
    with pytest.raises(EpisodeDivergedError) as solo:
        run_episode(sys_, K, cert, schedules[wild], procs[wild], lr, T,
                    divergence_limit=limit)
    assert 0 < solo.value.step < T - 1

    batch = run_episode(sys_, K, cert, schedules, procs, lr, T, divergence_limit=limit)
    err = batch[wild]
    assert isinstance(err, EpisodeDivergedError)
    assert err.step == solo.value.step
    assert err.norm == pytest.approx(solo.value.norm, rel=1e-12)
    rest = [s for s in range(len(procs)) if s != wild]
    without = run_episode(sys_, K, cert, [schedules[s] for s in rest],
                          [procs[s] for s in rest], lr, T, divergence_limit=limit)
    for s, want in zip(rest, without):
        _assert_same_episode(batch[s], want)


def test_lockstep_diverged_seed_stays_finite():
    """A seed whose state overflows at step 0 is reported as its solo run
    raises it, restarts from zero instead of feeding inf and NaN through the
    later steps, and leaves the other seed's episode as it is alone."""
    sys_, K, cert = _plant_3x2()
    T = 40
    schedule = constant_schedule(quadratic_cost(np.diag([1.0, 2.0, 0.5]), np.diag([0.5, 1.0])), T)
    lr = LearningRateSchedule("strongly_convex", alpha_tilde=1.0)
    procs = [NoiseProcess("student_t", 1.0, dim=3, seed=19, df=5.0),
             NoiseProcess("gaussian", 1e200, dim=3, seed=3)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        batch = run_episode(sys_, K, cert, [schedule] * 2, procs, lr, T, H=4)
        with pytest.raises(EpisodeDivergedError) as solo:
            run_episode(sys_, K, cert, schedule, procs[1], lr, T, H=4)
    assert not [w for w in caught if "invalid value" in str(w.message)]
    assert (batch[1].step, batch[1].norm) == (solo.value.step, solo.value.norm) == (0, math.inf)
    _assert_same_episode(batch[0], run_episode(sys_, K, cert, schedule, procs[0], lr, T, H=4))


def _run_episode_per_step(sys_, K, cert, schedules, procs, lr, T, H=None,
                          divergence_limit=DIVERGENCE_LIMIT):
    """run_episode's lockstep loop in its per-step form: both squared norms
    are summed every step, and x_{t+1} is copied into xs a step later. The
    chunked loop must equal it bit for bit. Returns per seed its
    EpisodeRecord or EpisodeDivergedError."""
    etas = lr.etas(T)
    Q, R = (learner._seed_axis([s.Q[:T] for s in schedules]),
            learner._seed_axis([s.R[:T] for s in schedules]))
    stage = CostSchedule(Q, R, schedules[0].g_c)
    kappa, gamma, kappa_B = cert.kappa, cert.gamma, sys_.kappa_B
    H = horizon_H(T, gamma) if H is None else H
    K = np.asarray(K, dtype=float)
    kern = SurrogateKernel(sys_, K, H)
    S = len(procs)
    step_sizes, A_T, B_T = etas.tolist(), sys_.A.T, sys_.B.T
    blocks = np.zeros((S, sys_.n_u, H, sys_.n_x)).swapaxes(1, 2)
    flat = blocks.swapaxes(1, 2).reshape(S, -1)
    flatT = flat.reshape(S, sys_.n_u, -1).swapaxes(1, 2)
    views = [PolicyParams(b) for b in blocks]
    x = np.repeat(initial_state(sys_, None, divergence_limit)[None], S, axis=0)
    noise = [sample_episode(p, T) for p in procs]
    ws = np.stack(noise, axis=1)
    buf = np.zeros((S, T + 2 * H + 1, sys_.n_x))
    hanks = _hankel(buf, H, H + 2)
    xs = np.empty((T + 1, S, sys_.n_x))
    us = np.empty((T, S, sys_.n_u))
    grad_sq, m_sq = np.empty((2, T, S))
    outcome = [None] * S

    for t in range(T):
        hank = np.ascontiguousarray(hanks[:, T - t])
        dap = hank @ flatT
        u = control_input(K, x, dap[:, 0])
        cost = stage.reveal(t, u)
        xs[t] = x
        us[t] = u
        Ax, Bu = x.dot(A_T), u.dot(B_T)
        x_next = Ax + Bu
        x_next += ws[t]
        buf[:, T - 1 - t] = recover_noise(x_next, Ax, Bu)

        G, _, _ = kern.grad(cost, blocks, buf[:, T - t:T - t + 2 * H + 1], hank, dap)
        np.add.reduce(np.square(G.swapaxes(1, 2).reshape(S, -1)), axis=1, out=grad_sq[t])
        np.add.reduce(np.square(flat), axis=1, out=m_sq[t])
        G *= step_sizes[t]
        blocks -= G
        for s, view in enumerate(views):
            if (proj := project(view, kappa, gamma, kappa_B)) is not view:
                blocks[s] = proj.blocks

        every = x_next.ravel()
        if not math.sqrt(every.dot(every)) <= divergence_limit:
            for s, row in enumerate(x_next):
                norm = math.sqrt(row.dot(row))
                if not norm <= divergence_limit:
                    outcome[s] = outcome[s] or EpisodeDivergedError(step=t, norm=norm)
                    x_next[s], buf[s], blocks[s] = 0.0, 0.0, 0.0
            if None not in outcome:
                break
        x = x_next

    xs[T] = x
    for s in [s for s, done in enumerate(outcome) if done is None]:
        seed_xs, seed_us = np.ascontiguousarray(xs[:, s]), np.ascontiguousarray(us[:, s])
        seed_costs = schedules[s].stage_values(seed_xs[:T], seed_us)
        outcome[s] = EpisodeRecord(
            T=T, H=H, xs=seed_xs, us=seed_us, ws=noise[s],
            ws_recovered=buf[s, T - 1::-1].copy(), costs=seed_costs, etas=etas,
            grad_frobs=np.sqrt(grad_sq[:, s]), m_frobs=np.sqrt(m_sq[:, s]),
            cum_cost=float(seed_costs.sum()), M_final=PolicyParams(blocks[s].copy()),
            noise_hash=noise_fingerprint(noise[s]),
        )
    return outcome


def _assert_bitwise_equal(got, want):
    """Every EpisodeRecord field holds the same bytes."""
    assert isinstance(got, EpisodeRecord) and isinstance(want, EpisodeRecord)
    for field in dataclasses.fields(EpisodeRecord):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(a, PolicyParams):
            a, b = a.blocks, b.blocks
        if isinstance(a, np.ndarray):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), field.name
        else:
            assert a == b, field.name


def _reference_episode(sys_, K, cert, schedules, procs, lr, T, H=None, x0=None,
                       divergence_limit=DIVERGENCE_LIMIT):
    """run_episode's lockstep loop as it stood before its buffers and views
    were built once per episode: every step copies its Hankel rows into a
    fresh array, computes a fresh dap, copies u into us[t] and slices its
    window and its rows of the buffers by index. The episode-owned form must
    equal it byte for byte. Returns per seed its EpisodeRecord or
    EpisodeDivergedError."""
    etas = lr.etas(T)
    Q, R = (learner._seed_axis([s.Q[:T] for s in schedules]),
            learner._seed_axis([s.R[:T] for s in schedules]))
    stage = CostSchedule(Q, R, schedules[0].g_c)
    kappa, gamma, kappa_B = cert.kappa, cert.gamma, sys_.kappa_B
    H = horizon_H(T, gamma) if H is None else H
    K = np.asarray(K, dtype=float)
    kern = SurrogateKernel(sys_, K, H)
    S = len(procs)
    step_sizes, A_T, B_T = etas.tolist(), sys_.A.T, sys_.B.T
    GM = np.zeros((2, S, sys_.n_u * H * sys_.n_x))
    Gf, flat = GM
    G_out = Gf.reshape(S, sys_.n_u, -1)
    blocks = flat.reshape(S, sys_.n_u, H, sys_.n_x).swapaxes(1, 2)
    flatT = flat.reshape(S, sys_.n_u, -1).swapaxes(1, 2)
    raw = Gf.reshape(S, sys_.n_u, H, sys_.n_x).swapaxes(1, 2)
    scalar = sys_.n_x == sys_.n_u == 1
    if scalar:
        low, high = scalar_stack_bounds(S, H, kappa, gamma, kappa_B)
    else:
        pairs = [(PolicyParams(r), b) for r, b in zip(raw, blocks)]
    xs = np.empty((T + 1, S, sys_.n_x))
    xrows = xs.reshape(T + 1, -1)
    xs[0] = initial_state(sys_, x0, divergence_limit)
    noise = [sample_episode(p, T) for p in procs]
    ws = np.stack(noise, axis=1)
    buf = np.zeros((S, T + 2 * H + 1, sys_.n_x))
    hanks = _hankel(buf, H, H + 2)
    us = np.empty((T, S, sys_.n_u))
    sq = np.empty((T, 2, S))
    L = min(max(learner._NORM_CHUNK_FLOATS // flat.size, 1), T)
    chunk = np.empty((L,) + GM.shape)
    outcome = [None] * S

    for t in range(T):
        x = xs[t]
        hank = np.ascontiguousarray(hanks[:, T - t])
        dap = hank @ flatT
        u = control_input(K, x, dap[:, 0])
        cost = stage.reveal(t, u)
        us[t] = u
        Ax, Bu = x.dot(A_T), u.dot(B_T)
        x_next = np.add(Ax + Bu, ws[t], out=xs[t + 1])
        recover_noise(x_next, Ax, Bu, out=buf[:, T - 1 - t])

        kern.grad(cost, blocks, buf[:, T - t:T - t + 2 * H + 1], hank, dap, out=G_out)
        c = t % L
        np.square(GM, out=chunk[c])
        if c == L - 1 or t == T - 1:
            np.add.reduce(chunk[:c + 1], axis=-1, out=sq[t - c:t + 1])
        Gf *= step_sizes[t]
        np.subtract(flat, Gf, out=Gf)
        if scalar:
            project_scalar_stack(raw, low, high, blocks)
        else:
            for view, live in pairs:
                project(view, kappa, gamma, kappa_B, live)

        every = xrows[t + 1]
        if not math.sqrt(every.dot(every)) <= divergence_limit:
            for s, row in enumerate(x_next):
                norm = math.sqrt(row.dot(row))
                if not norm <= divergence_limit:
                    outcome[s] = outcome[s] or EpisodeDivergedError(step=t, norm=norm)
                    x_next[s], buf[s], blocks[s] = 0.0, 0.0, 0.0
            if None not in outcome:
                break

    for s in [s for s, done in enumerate(outcome) if done is None]:
        seed_xs, seed_us = np.ascontiguousarray(xs[:, s]), np.ascontiguousarray(us[:, s])
        seed_costs = schedules[s].stage_values(seed_xs[:T], seed_us)
        outcome[s] = EpisodeRecord(
            T=T, H=H, xs=seed_xs, us=seed_us, ws=noise[s],
            ws_recovered=buf[s, T - 1::-1].copy(), costs=seed_costs, etas=etas,
            grad_frobs=np.sqrt(sq[:, 0, s]), m_frobs=np.sqrt(sq[:, 1, s]),
            cum_cost=float(seed_costs.sum()), M_final=PolicyParams(blocks[s].copy()),
            noise_hash=noise_fingerprint(noise[s]),
        )
    return outcome


def _plant_4x4():
    """A 4x4 plant whose closed loop A - B K = V diag(0.5, 0.3, -0.2, 0.1) V^-1
    is not diagonal, with an upper-triangular B."""
    V = np.eye(4) + 0.3 * np.random.default_rng(3).standard_normal((4, 4))
    B = np.eye(4) + 0.2 * np.triu(np.ones((4, 4)), 1)
    K = 0.3 * np.eye(4) + 0.05 * np.ones((4, 4))
    sys_ = make_system(V @ np.diag([0.5, 0.3, -0.2, 0.1]) @ np.linalg.inv(V) + B @ K, B)
    return sys_, K, certify(sys_, K, 2.0, 0.4)


def _reference_case(name):
    """(system, K, cert, schedules, noise processes, lr, T, H) of a case held
    byte for byte to the reference episode."""
    if name.startswith("scalar-random-costs"):
        sys_, K, cert, schedules, procs, lr, T, H = _lockstep_case("scalar-random-costs")
        S = int(name[-1])
        return sys_, K, cert, schedules[:S], procs[:S], lr, T, H
    if name == "3x2-student-t-clipping-S2":
        return _lockstep_case("3x2-student-t-clipping")
    sys_, K, cert = _plant_4x4()
    T = 64
    schedule = constant_schedule(quadratic_cost(np.diag([1.0, 2.0, 0.5, 1.5]),
                                                np.diag([0.5, 1.0, 2.0, 0.7])), T)
    procs = [NoiseProcess("student_t", 1.0, dim=4, seed=41, df=5.0)]
    lr = LearningRateSchedule("strongly_convex", alpha_tilde=1.0)
    return sys_, K, cert, [schedule], procs, lr, T, 31


@pytest.mark.parametrize("name", ["scalar-random-costs-S1", "scalar-random-costs-S3",
                                  "3x2-student-t-clipping-S2", "4x4-H31-S1"])
def test_episode_equals_the_reference_loop_byte_for_byte(name):
    """Every record field equals the reference loop's, for a solo call and a
    lockstep one; the 3x2 and 4x4 cases clip blocks through project's eigh."""
    sys_, K, cert, schedules, procs, lr, T, H = _reference_case(name)
    want = _reference_episode(sys_, K, cert, schedules, procs, lr, T, H)
    got = run_episode(sys_, K, cert, schedules, procs, lr, T, H=H)
    for g, w in zip(got, want, strict=True):
        _assert_bitwise_equal(g, w)
    if len(procs) == 1:
        _assert_bitwise_equal(run_episode(sys_, K, cert, schedules[0], procs[0], lr, T, H=H),
                              want[0])
    if sys_.n_x > 1:
        radii = admissible_radii(got[0].H, cert.kappa, cert.gamma, sys_.kappa_B)
        assert any(np.any(np.linalg.norm(rec.M_final.blocks, 2, axis=(1, 2))
                          >= radii * (1 - 1e-9)) for rec in got)


def test_episode_with_a_seed_diverging_equals_the_reference_loop():
    """A seed that diverges mid-episode is reset through the buffers the
    step's views read: the error and the siblings' records equal the
    reference loop's, byte for byte."""
    sys_, K, cert, schedules, procs, lr, T, _ = _lockstep_case("scalar-random-costs")
    free = run_episode(sys_, K, cert, schedules, procs, lr, T)
    peaks = [float(np.max(np.linalg.norm(rec.xs[1:], axis=1))) for rec in free]
    order = np.argsort(peaks)
    limit = 0.5 * (peaks[order[-1]] + peaks[order[-2]])
    want = _reference_episode(sys_, K, cert, schedules, procs, lr, T,
                              divergence_limit=limit)
    got = run_episode(sys_, K, cert, schedules, procs, lr, T, divergence_limit=limit)
    wild = int(order[-1])
    assert isinstance(want[wild], EpisodeDivergedError) and 0 < want[wild].step < T - 1
    assert isinstance(got[wild], EpisodeDivergedError)
    assert (got[wild].step, got[wild].norm) == (want[wild].step, want[wild].norm)
    for s in range(len(procs)):
        if s != wild:
            _assert_bitwise_equal(got[s], want[s])


def _chunk_to(monkeypatch, L, S, D):
    """Shrink the norm scratch so an episode of S seeds and D = n_u H n_x
    block entries reduces its norms every L steps."""
    monkeypatch.setattr(learner, "_NORM_CHUNK_FLOATS", L * S * D)


@pytest.mark.parametrize("S", [1, 3])
@pytest.mark.parametrize("plant", ["scalar-random-costs", "3x2-student-t"])
def test_chunked_norms_match_per_step_loop_bitwise(plant, S, monkeypatch):
    """T = 3, L - 1, L, L + 1 and 2L + 5: a chunk cut short by T, one that
    fills exactly at the last step, one step past it, and a partial chunk
    after two full ones. H = 24 on the 3x2 plant puts D = 144 entries in
    each norm, past the 128 at which numpy's pairwise sum splits a row."""
    L = 6
    if plant == "scalar-random-costs":
        sys_, K, cert = _scalar_setup()
        H, lr = 4, LearningRateSchedule("constant_sqrtT")
    else:
        sys_, K, cert = _plant_3x2()
        H, lr = 24, LearningRateSchedule("strongly_convex", alpha_tilde=1.0)
    _chunk_to(monkeypatch, L, S, sys_.n_u * H * sys_.n_x)
    for T in (3, L - 1, L, L + 1, 2 * L + 5):
        if plant == "scalar-random-costs":
            schedules = [adversarial_convex_schedule(100 + s, T, 1, 1) for s in range(S)]
            procs = [NoiseProcess("gaussian", 1.0, dim=1, seed=s) for s in range(S)]
        else:
            cost = quadratic_cost(np.diag([1.0, 2.0, 0.5]), np.diag([0.5, 1.0]))
            schedules = [constant_schedule(cost, T)] * S
            procs = [NoiseProcess("student_t", 1.0, dim=3, seed=19 + s, df=5.0)
                     for s in range(S)]
        want = _run_episode_per_step(sys_, K, cert, schedules, procs, lr, T, H)
        got = (run_episode(sys_, K, cert, schedules, procs, lr, T, H=H) if S > 1 else
               [run_episode(sys_, K, cert, schedules[0], procs[0], lr, T, H=H)])
        for g, w in zip(got, want, strict=True):
            _assert_bitwise_equal(g, w)


def test_chunked_norms_with_a_seed_diverging_mid_chunk(monkeypatch):
    """One seed of three diverges inside a chunk after the first: it lists
    the error of the per-step loop, and its siblings' records, whose norms
    are reduced at the chunk's end, equal that loop's bit for bit."""
    sys_, K, cert, schedules, procs, lr, T, _ = _lockstep_case("scalar-random-costs")
    free = run_episode(sys_, K, cert, schedules, procs, lr, T)
    peaks = [float(np.max(np.linalg.norm(rec.xs[1:], axis=1))) for rec in free]
    order = np.argsort(peaks)
    limit = 0.5 * (peaks[order[-1]] + peaks[order[-2]])
    want = _run_episode_per_step(sys_, K, cert, schedules, procs, lr, T,
                                 divergence_limit=limit)
    wild = int(order[-1])
    step = want[wild].step
    L = next(L for L in range(3, step) if 0 < step % L < L - 1)
    _chunk_to(monkeypatch, L, len(procs), free[0].H)
    got = run_episode(sys_, K, cert, schedules, procs, lr, T, divergence_limit=limit)
    assert isinstance(got[wild], EpisodeDivergedError)
    assert (got[wild].step, got[wild].norm) == (step, want[wild].norm)
    for s in range(len(procs)):
        if s != wild:
            _assert_bitwise_equal(got[s], want[s])


def test_norm_scratch_stays_bounded():
    """n_x = n_u = 6, H = 40 and four seeds: the squared entries of every
    step's G_t and M_t would take 71 MB, more than 10 times the bound, and
    the whole episode peaks under it. The bound is three times the scratch's
    two arrays, which leaves room for the episode's other arrays (1.6 MB)."""
    n, H, S, T = 6, 40, 4, 768
    bound = 3 * 2 * 8 * learner._NORM_CHUNK_FLOATS
    assert 2 * T * S * n * H * n * 8 >= 10 * bound
    sys_ = make_system(0.3 * np.eye(n), np.eye(n))
    K = np.zeros((n, n))
    cert = certify(sys_, K, 1.0, 0.5)
    schedules = [constant_schedule(quadratic_cost(np.eye(n), np.eye(n)), T)] * S
    procs = [NoiseProcess("gaussian", 1.0, dim=n, seed=s) for s in range(S)]
    lr = LearningRateSchedule("constant_sqrtT")
    tracemalloc.start()
    try:
        batch = run_episode(sys_, K, cert, schedules, procs, lr, T, H=H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(isinstance(rec, EpisodeRecord) for rec in batch)
    assert peak < bound, peak


@pytest.mark.parametrize("name", ["3x2-student-t-clipping", "memory-reaches-past-start"])
def test_lockstep_fixed_costs_stay_stride_0(name, monkeypatch):
    """Seeds with fixed costs share a stage stack that repeats step 0 with
    stride 0, so its check sees S matrices, and their records equal those
    of contiguous copies of the same costs, which are stacked step by step."""
    sys_, K, cert, schedules, procs, lr, T, H = _lockstep_case(name)
    checked = []

    def spy(stack, what, check=costs._check_psd_stack):
        checked.append(stack)
        check(stack, what)

    monkeypatch.setattr(costs, "_check_psd_stack", spy)
    batch = run_episode(sys_, K, cert, schedules, procs, lr, T, H=H)
    monkeypatch.undo()
    stage = [stack for stack in checked if stack.ndim == 4]
    assert len(stage) == 2  # Q and R
    assert all(stack.shape[:2] == (T, len(procs)) and stack.strides[0] == 0 for stack in stage)

    copies = [CostSchedule(np.ascontiguousarray(s.Q), np.ascontiguousarray(s.R), s.g_c)
              for s in schedules]
    assert copies[0].Q.strides[0] != 0
    for got, want in zip(batch, run_episode(sys_, K, cert, copies, procs, lr, T, H=H)):
        _assert_same_episode(got, want)


def test_lockstep_input_validation():
    sys_, K, cert, schedules, procs, lr, T, H = _lockstep_case("scalar-random-costs")
    for bad in ((schedules[:2], procs), (schedules[0], procs), (schedules, procs[0]), ([], [])):
        with pytest.raises(ValueError, match="equal-length sequences of both"):
            run_episode(sys_, K, cert, *bad, lr, T)
    # seeds whose schedules differ in size, random and fixed: each seed's
    # schedule is checked against the plant before the seeds are stacked
    fixed = constant_schedule(quadratic_cost(np.eye(1), np.eye(1)), T)
    for mixed in ([schedules[0], adversarial_convex_schedule(101, T, 2, 1), schedules[2]],
                  [fixed, constant_schedule(quadratic_cost(np.eye(2), np.eye(1)), T), fixed]):
        with pytest.raises(ValueError, match=r"dimensions \(n_x, n_u\) = \(2, 1\) must match "
                                             r"the system's \(1, 1\)"):
            run_episode(sys_, K, cert, mixed, procs, lr, T)


def test_x0_validation():
    sys_, K, cert = _scalar_setup()
    proc = NoiseProcess("gaussian", 1.0, dim=1, seed=2)
    schedule = constant_schedule(quadratic_cost(np.eye(1), np.eye(1)), 12)
    lr = LearningRateSchedule("constant_sqrtT")
    for bad in (np.array([np.nan]), np.array([np.inf]), np.zeros(2)):
        with pytest.raises(ValueError, match="x0"):
            run_episode(sys_, K, cert, schedule, proc, lr, 12, x0=bad)
    rec = run_episode(sys_, K, cert, schedule, proc, lr, 12, x0=np.array([0.5]))
    assert rec.xs[0, 0] == 0.5


def test_recovered_noise_and_hash():
    sys_, K, cert = _scalar_setup()
    proc = NoiseProcess("laplace", 0.7, dim=1, seed=5)
    schedule = constant_schedule(quadratic_cost(np.eye(1), np.eye(1)), 40)
    rec = run_episode(sys_, K, cert, schedule, proc,
                      LearningRateSchedule("constant_sqrtT"), 40)
    np.testing.assert_allclose(rec.ws_recovered, rec.ws, atol=1e-9)
    assert rec.noise_hash == noise_fingerprint(rec.ws)


def test_divergence_guard_trips():
    sys_, K, cert = _scalar_setup()
    proc = NoiseProcess("gaussian", 1.0, dim=1, seed=3)
    schedule = constant_schedule(quadratic_cost(np.eye(1), np.eye(1)), 10)
    with pytest.raises(EpisodeDivergedError) as exc:
        run_episode(sys_, K, cert, schedule, proc,
                    LearningRateSchedule("constant_sqrtT"), 10,
                    divergence_limit=1e-8)
    assert exc.value.step == 0


def test_start_beyond_the_divergence_guard_is_refused():
    """The guard that checks every x_{t+1} checks x_0 too: a start past it
    raises ValueError before any step, at the default limit and a given one."""
    sys_, K, cert = _scalar_setup()
    proc = NoiseProcess("gaussian", 1.0, dim=1, seed=3)
    schedule = constant_schedule(quadratic_cost(np.eye(1), np.eye(1)), 10)
    lr = LearningRateSchedule("constant_sqrtT")
    for x0, limit in (([1e300], {}), ([0.5], {"divergence_limit": 0.25})):
        with pytest.raises(ValueError, match="divergence guard"):
            run_episode(sys_, K, cert, schedule, proc, lr, 10, x0=np.array(x0), **limit)


def test_final_policy_admissible():
    sys_, K, cert = _scalar_setup()
    proc = NoiseProcess("student_t", 1.0, dim=1, seed=11, df=5.0)
    schedule = constant_schedule(quadratic_cost(np.eye(1), 2 * np.eye(1)), 60)
    rec = run_episode(sys_, K, cert, schedule, proc,
                      LearningRateSchedule("constant_sqrtT"), 60)
    assert is_admissible(rec.M_final, cert.kappa, cert.gamma, sys_.kappa_B)
    assert np.all(rec.m_frobs >= 0)


def test_strongly_convex_requires_diagonal_certificate():
    # Jordan witness from build_certificate is the one way to get P non-diagonal
    A_K = np.array([[0.5, 1.0], [0.0, 0.5]])
    K = np.zeros((2, 2))
    sys_ = make_system(A_K, np.eye(2))
    cert = build_certificate(kappa=5.0, gamma=0.35,
                             P=np.array([[0.5, 0.2], [0.0, 0.5]]),
                             Q=np.diag([1.0, 0.2]), A_K=A_K, K=K)
    assert not cert.diagonal
    proc = NoiseProcess("gaussian", 1.0, dim=2, seed=1)
    schedule = constant_schedule(quadratic_cost(np.eye(2), np.eye(2)), 10)
    lr = LearningRateSchedule("strongly_convex", alpha_tilde=0.1)
    with pytest.raises(ValueError):
        run_episode(sys_, K, cert, schedule, proc, lr, 10)


def test_zero_noise_episode_is_identically_zero():
    sys_, K, cert = _scalar_setup()
    proc = NoiseProcess("zero", 0.0, dim=1, seed=0)
    schedule = constant_schedule(quadratic_cost(np.eye(1), np.eye(1)), 20)
    rec = run_episode(sys_, K, cert, schedule, proc,
                      LearningRateSchedule("constant_sqrtT"), 20)
    assert np.all(rec.xs == 0) and np.all(rec.us == 0)
    assert np.all(rec.costs == 0) and np.all(rec.grad_frobs == 0)
    assert not rec.M_final.blocks.any()


def test_trace_jsonl_roundtrip():
    sys_, K, cert = _scalar_setup()
    proc = NoiseProcess("gaussian", 1.0, dim=1, seed=9)
    schedule = constant_schedule(quadratic_cost(np.eye(1), np.eye(1)), 15)
    rec = run_episode(sys_, K, cert, schedule, proc,
                      LearningRateSchedule("constant_sqrtT"), 15)
    buf = io.StringIO()
    rec.write_jsonl(buf)
    lines = [json.loads(s) for s in buf.getvalue().splitlines()]
    assert len(lines) == 15
    for t, row in enumerate(lines):
        assert row["t"] == t
        assert row["cost"] == pytest.approx(rec.costs[t])
        np.testing.assert_allclose(row["x"], rec.xs[t])
        np.testing.assert_allclose(row["w"], rec.ws[t])


def _jsonl_per_step(rec: EpisodeRecord) -> str:
    """The trace as one dict and one json.dumps per step: the reference the
    column-wise writer must match byte for byte."""
    return "".join(json.dumps({
        "t": t, "x": rec.xs[t].tolist(), "u": rec.us[t].tolist(), "w": rec.ws[t].tolist(),
        "cost": float(rec.costs[t]), "eta": float(rec.etas[t]),
        "grad_frob": float(rec.grad_frobs[t]), "M_frob": float(rec.m_frobs[t]),
    }, separators=(",", ":")) + "\n" for t in range(rec.T))


@pytest.mark.parametrize("plant", ["scalar", "3x2"])
def test_trace_jsonl_equals_per_step_dumps(plant):
    """Each column is encoded once and split per step, with the bytes of one
    json.dumps per step, for scalar and vector rows and for non-finite
    entries, which the encoder writes alike in a list and alone."""
    sys_, K, cert = _scalar_setup() if plant == "scalar" else _plant_3x2()
    T = 40
    schedule = adversarial_convex_schedule(5, T, sys_.n_x, sys_.n_u)
    proc = NoiseProcess("student_t", 1.0, dim=sys_.n_x, seed=3, df=5.0)
    rec = run_episode(sys_, K, cert, schedule, proc, LearningRateSchedule("constant_sqrtT"), T)
    odd = dataclasses.replace(rec, xs=rec.xs.copy(), costs=rec.costs.copy())
    odd.xs[2, 0], odd.xs[T, 0], odd.costs[[0, 7]] = -math.inf, math.nan, (math.nan, math.inf)
    for record in (rec, odd):
        buf = io.StringIO()
        record.write_jsonl(buf)
        assert buf.getvalue() == _jsonl_per_step(record)
    assert "NaN" in _jsonl_per_step(odd) and "-Infinity" in _jsonl_per_step(odd)



@pytest.mark.parametrize("plant,S", [("scalar", 1), ("scalar", 3), ("3x2", 1), ("3x2", 2)])
def test_only_matrix_costs_call_np_matvec(plant, S, monkeypatch):
    """A scalar episode forms its cost products R v and Q y without the
    np.matvec gufunc; a 3x2 plant calls it twice per step for all its seeds."""
    case = "scalar-random-costs" if plant == "scalar" else "3x2-student-t-clipping"
    sys_, K, cert, schedules, procs, lr, T, H = _lockstep_case(case)
    calls = []

    def counted(*args, matvec=np.matvec, **kwargs):
        calls.append(None)
        return matvec(*args, **kwargs)

    monkeypatch.setattr(np, "matvec", counted)
    if S == 1:
        run_episode(sys_, K, cert, schedules[0], procs[0], lr, T, H=H)
    else:
        run_episode(sys_, K, cert, schedules[:S], procs[:S], lr, T, H=H)
    assert len(calls) == (0 if plant == "scalar" else 2 * T)


def _negative_zeros(a):
    return int(np.count_nonzero((a == 0.0) & np.signbit(a)))


class _MatvecKernel(SurrogateKernel):
    """The surrogate kernel held to its np.matvec branch on every plant."""

    def __init__(self, *args):
        super().__init__(*args)
        self._scalar = False


@pytest.mark.parametrize("Q,R", [(1.0, 0.0), (0.0, 1.0)], ids=["R=0", "Q=0"])
def test_zero_costs_keep_the_matvec_forms_records_and_outputs(Q, R, monkeypatch, tmp_path):
    """With R = 0 (or Q = 0) the scalar products R v (Q y) are -0 wherever
    v (y) is negative, where np.matvec gives +0. That sign never reaches an
    output: lockstep and solo records, and the files of a traced
    `onlinectrl run`, equal the matvec form's byte for byte."""
    sys_, K, cert = _scalar_setup()
    T = 60
    schedule = constant_schedule(quadratic_cost([[Q]], [[R]]), T)
    procs = [NoiseProcess("gaussian", 1.0, dim=1, seed=s) for s in range(3)]
    lr = LearningRateSchedule("constant_sqrtT")
    signed_zeros = []

    class Spy(SurrogateKernel):
        def grad(self, cost, *args, **kwargs):
            G, y, v = super().grad(cost, *args, **kwargs)
            signed_zeros.append(_negative_zeros(cost[1][..., 0] * v)
                                + _negative_zeros(cost[0][..., 0] * y))
            return G, y, v

    doc = {"system": {"A": [[0.5]], "B": [[1.0]]},
           "gain": {"K": [[0.5]], "kappa": 1.0, "gamma": 0.9},
           "cost": {"family": "quadratic", "Q": [[Q]], "R": [[R]]},
           "noise": {"family": "gaussian", "scale": 1.0, "seed": 42},
           "schedule": {"kind": "constant_sqrtT"}, "horizons": [16, 32], "seeds": [0, 1],
           "comparator": {"grid": {"min": 0.4, "max": 0.6, "count": 3}}, "delta": 0.1}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    runs = []
    for kernel in (Spy, _MatvecKernel):
        monkeypatch.setattr(learner, "SurrogateKernel", kernel)
        records = run_episode(sys_, K, cert, [schedule] * 3, procs, lr, T)
        records.append(run_episode(sys_, K, cert, schedule, procs[0], lr, T))
        out = tmp_path / kernel.__name__
        assert cli_main(["run", "--config", str(cfg), "--trace", "--out", str(out),
                         "--workers", "1"]) == 0
        files = {str(f.relative_to(out)): f.read_bytes() for f in sorted(out.rglob("*"))
                 if f.is_file()}
        runs.append((records, files))
    assert sum(signed_zeros) > 0
    (got, got_files), (want, want_files) = runs
    for g, w in zip(got, want, strict=True):
        _assert_bitwise_equal(g, w)
        texts = [io.StringIO(), io.StringIO()]
        g.write_jsonl(texts[0])
        w.write_jsonl(texts[1])
        assert texts[0].getvalue() == texts[1].getvalue()
    assert got_files == want_files and len(got_files) > 2
