import io
import json
import math

import numpy as np
import pytest

from onlinectrl.costs import constant_schedule, quadratic_cost
from onlinectrl.learner import (EpisodeDivergedError, EpisodeRecord,
                                LearningRateSchedule, alpha_tilde_from,
                                noise_fingerprint, ogd_memory_regret_terms,
                                run_episode)
from onlinectrl.noise import NoiseProcess, sample
from onlinectrl.policy import (PolicyParams, admissible_radii, is_admissible,
                               policy_class_diameter, zero_policy)
from onlinectrl.stability import build_certificate, certify, make_closed_loop
from onlinectrl.surrogate import SurrogateKernel
from onlinectrl.system import make_system


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


def test_alpha_tilde_hand_value():
    # alpha sigma^2 gamma^2 / (36 kappa^10) at alpha=sigma=1, gamma=0.5, kappa=1
    assert alpha_tilde_from(1.0, 1.0, 0.5, 1.0) == 0.25 / 36.0
    assert alpha_tilde_from(2.0, 1.0, 0.9, 1.0) == pytest.approx(0.045)


def _naive_replay(sys_, K, cert, proc, cost, lr, T, H):
    """The projected-OGD loop with explicit bookkeeping: per-step noise
    draws, a window rebuilt from the list of past disturbances, and
    projection by full-SVD clipping of every block."""
    kern = SurrogateKernel(make_closed_loop(sys_, K, i_max=H), sys_.B, H)
    radii = admissible_radii(H, cert.kappa, cert.gamma, sys_.kappa_B)
    M = zero_policy(H, sys_.n_u, sys_.n_x).blocks
    past = []                      # most recent last
    x = np.zeros(sys_.n_x)
    steps = []
    for t in range(T):
        W = np.zeros((2 * H + 1, sys_.n_x))
        for m, w in enumerate(reversed(past[-(2 * H + 1):])):
            W[m] = w
        u = -K @ x + sum(M[i] @ W[i] for i in range(H))
        w = sample(proc, t)
        g = kern.grad(cost, M, W)[0]
        step = _eta(lr, t, T)
        U, sv, Vt = np.linalg.svd(M - step * g, full_matrices=False)
        steps.append({"x": x, "u": u, "w": w, "cost": cost.value(x, u),
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


def test_m0_validation():
    sys_, K, cert = _scalar_setup()
    proc = NoiseProcess("gaussian", 1.0, dim=1, seed=2)
    schedule = constant_schedule(quadratic_cost(np.eye(1), np.eye(1)), 12)
    bad_shape = zero_policy(2, 1, 1)
    with pytest.raises(ValueError):
        run_episode(sys_, K, cert, schedule, proc,
                    LearningRateSchedule("constant_sqrtT"), 12, H=5,
                    M0=bad_shape)
    fat = PolicyParams(np.full((5, 1, 1), 50.0))
    with pytest.raises(ValueError):
        run_episode(sys_, K, cert, schedule, proc,
                    LearningRateSchedule("constant_sqrtT"), 12, H=5, M0=fat)


def test_zero_noise_episode_is_identically_zero():
    sys_, K, cert = _scalar_setup()
    proc = NoiseProcess("zero", 0.0, dim=1, seed=0)
    schedule = constant_schedule(quadratic_cost(np.eye(1), np.eye(1)), 20)
    rec = run_episode(sys_, K, cert, schedule, proc,
                      LearningRateSchedule("constant_sqrtT"), 20)
    assert np.all(rec.xs == 0) and np.all(rec.us == 0)
    assert np.all(rec.costs == 0) and np.all(rec.grad_frobs == 0)
    assert rec.M_final.frob_norm() == 0.0


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


def _stub_record(T, H, etas, grads, kappa=1.0, gamma=0.5, kappa_B=1.0):
    z1 = np.zeros((T + 1, 1))
    z = np.zeros((T, 1))
    return EpisodeRecord(T=T, n_x=1, n_u=1, H=H, kappa=kappa, gamma=gamma,
                         kappa_B=kappa_B, schedule_kind="constant_sqrtT",
                         xs=z1, us=z, ws=z, ws_recovered=z,
                         costs=np.zeros(T), etas=np.asarray(etas, dtype=float),
                         grad_frobs=np.asarray(grads, dtype=float),
                         m_frobs=np.zeros(T), cum_cost=0.0,
                         M_final=zero_policy(H, 1, 1), noise_hash="")


def test_regret_terms_hand_case():
    # T=4, H=1: drift = eta (2 g0 + 3 g1 + 2 g2); g3 never enters
    g = [1.0, 2.0, 3.0, 4.0]
    etas = [0.1] * 4
    rec = _stub_record(4, 1, etas, g)
    terms = ogd_memory_regret_terms(rec, L_c=1.0)
    assert terms["lipschitz_term"] == pytest.approx(0.1 * (2 * 1 + 3 * 2 + 2 * 3))
    D = policy_class_diameter(1, 1.0, 0.5, 1.0)
    assert terms["diameter"] == pytest.approx(D)
    assert terms["diameter_term"] == pytest.approx(D ** 2 / 0.2)
    assert terms["gradient_term"] == pytest.approx(0.05 * sum(x * x for x in g))
    assert terms["eta_mode"] == "constant"
    assert terms["total"] == pytest.approx(terms["lipschitz_term"]
                                           + terms["diameter_term"]
                                           + terms["gradient_term"])


def test_regret_terms_scale_with_lipschitz_constant():
    rec = _stub_record(6, 2, [0.2] * 6, [1.0] * 6)
    t1 = ogd_memory_regret_terms(rec, L_c=1.0)
    t3 = ogd_memory_regret_terms(rec, L_c=3.0)
    assert t3["lipschitz_term"] == pytest.approx(3 * t1["lipschitz_term"])
    assert t3["diameter_term"] == t1["diameter_term"]


def _naive_drift(a, H, T):
    drift = 0.0
    for t in range(T):
        m = min(H + 1, t)
        for k in range(1, m + 1):
            drift += (m - k + 1) * a[t - k]
    return drift


@pytest.mark.parametrize("T,H", [(200, 7), (64, 19), (5, 4), (6, 9), (3, 3)])
def test_regret_drift_term_matches_naive_loop(T, H):
    rng = np.random.default_rng(T + 100 * H)
    grads = rng.uniform(0.0, 3.0, T)
    for etas in (np.full(T, 0.07), 3.0 / (0.4 * np.arange(1, T + 1))):
        rec = _stub_record(T, H, etas, grads)
        drift = ogd_memory_regret_terms(rec, L_c=1.5)["lipschitz_term"]
        assert drift == pytest.approx(1.5 * _naive_drift(etas * grads, H, T), rel=1e-12)
