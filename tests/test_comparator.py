import dataclasses

import numpy as np
import pytest

from onlinectrl.comparator import (ComparatorResult, best_fixed_K,
                                   best_fixed_M, mstar_rollout, regret)
from onlinectrl.costs import (QuadraticCost, adversarial_convex_schedule,
                              constant_schedule, quadratic_cost)
from onlinectrl.learner import LearningRateSchedule, run_episode
from onlinectrl.noise import NoiseProcess, sample
from onlinectrl.policy import sample_admissible
from onlinectrl.stability import certify
from onlinectrl.surrogate import SurrogateKernel
from onlinectrl.stability import make_closed_loop
from onlinectrl.system import make_system

RNG = np.random.default_rng


def _scalar():
    return make_system(np.array([[0.5]]), np.array([[1.0]]))


def _noise_matrix(proc, T):
    return np.stack([sample(proc, t) for t in range(T)])


def _naive_gain_cost(sys_, K, cost_schedule, ws):
    x = np.zeros(sys_.n_x)
    total, per = 0.0, []
    for t in range(len(ws)):
        u = -K @ x
        c = cost_schedule.reveal(t, u).value(x, u)
        per.append(c)
        total += c
        x = sys_.A @ x + sys_.B @ u + ws[t]
    return total, np.array(per)


def _naive_dap_costs(sys_, K, blocks, cost_schedule, ws):
    """Reference rollout with an explicit past-noise list, w_{t-1-m} order."""
    H = blocks.shape[0]
    past = []
    x = np.zeros(sys_.n_x)
    per = []
    for t in range(len(ws)):
        u = -K @ x
        for m in range(min(H, len(past))):
            u = u + blocks[m] @ past[len(past) - 1 - m]
        per.append(cost_schedule.reveal(t, u).value(x, u))
        x = sys_.A @ x + sys_.B @ u + ws[t]
        past.append(ws[t])
    return np.array(per)


def test_best_fixed_k_exhaustive_oracle():
    sys_ = _scalar()
    cost = quadratic_cost(np.eye(1), np.eye(1))
    schedule = constant_schedule(cost, 60)
    ws = RNG(31).standard_normal((60, 1))
    cands = [np.array([[k]]) for k in (0.1, 0.3, 0.5, 0.7)]
    res = best_fixed_K(sys_, cands, schedule, ws)
    naive = [_naive_gain_cost(sys_, K, schedule, ws)[0] for K in cands]
    np.testing.assert_allclose(res.search_meta["candidate_costs"], naive,
                               rtol=1e-12)
    assert res.descriptor["index"] == int(np.argmin(naive))
    assert res.cumulative_cost == pytest.approx(min(naive))
    np.testing.assert_allclose(
        res.per_step_costs,
        _naive_gain_cost(sys_, cands[res.descriptor["index"]], schedule, ws)[1],
        rtol=1e-12)


def test_best_fixed_k_random_costs_match_naive_loop():
    A = np.array([[0.6, 0.2], [0.0, 0.5]])
    B = np.array([[1.0], [0.3]])
    sys_ = make_system(A, B)
    T = 200
    schedule = adversarial_convex_schedule(19, T, 2, 1)
    ws = RNG(41).standard_normal((T, 2))
    cands = [np.array([[k, 0.1]]) for k in (0.2, 0.35, 0.5)]
    res = best_fixed_K(sys_, cands, schedule, ws)
    naive = [_naive_gain_cost(sys_, K, schedule, ws) for K in cands]
    np.testing.assert_allclose(res.search_meta["candidate_costs"],
                               [total for total, _ in naive], rtol=1e-12)
    np.testing.assert_allclose(res.per_step_costs,
                               naive[res.descriptor["index"]][1], rtol=1e-12)


def test_best_fixed_k_tie_goes_to_first_index():
    sys_ = _scalar()
    schedule = constant_schedule(quadratic_cost(np.eye(1), np.eye(1)), 20)
    ws = RNG(5).standard_normal((20, 1))
    res = best_fixed_K(sys_, [np.array([[0.5]])] * 3, schedule, ws)
    assert res.descriptor["index"] == 0


def test_best_fixed_k_rejects_bad_input():
    sys_ = _scalar()
    schedule = constant_schedule(quadratic_cost(np.eye(1), np.eye(1)), 20)
    ws = RNG(5).standard_normal((20, 1))
    with pytest.raises(ValueError):
        best_fixed_K(sys_, [], schedule, ws)
    with pytest.raises(ValueError):
        best_fixed_K(sys_, [np.eye(2)], schedule, ws)
    short = constant_schedule(quadratic_cost(np.eye(1), np.eye(1)), 5)
    with pytest.raises(ValueError):
        best_fixed_K(sys_, [np.array([[0.5]])], short, ws)


def test_mstar_with_kstar_equal_k_is_the_plain_gain():
    sys_ = _scalar()
    K = np.array([[0.5]])
    schedule = constant_schedule(quadratic_cost(np.eye(1), np.eye(1)), 50)
    ws = RNG(11).standard_normal((50, 1))
    res = mstar_rollout(sys_, K, K, schedule, ws, H=6, kappa=1.0, gamma=0.9)
    base = best_fixed_K(sys_, [K], schedule, ws)
    np.testing.assert_allclose(res.per_step_costs, base.per_step_costs,
                               atol=1e-12)
    assert res.search_meta["M_star_frob"] == 0.0


def _plant_3x2():
    """Non-square plant whose K_star loop is diag(0.3, -0.2, 0.4)."""
    rng = RNG(17)
    B = rng.standard_normal((3, 2))
    K_star = 0.15 * rng.standard_normal((2, 3))
    sys_ = make_system(np.diag([0.3, -0.2, 0.4]) + B @ K_star, B)
    return sys_, K_star + 0.05 * rng.standard_normal((2, 3)), K_star, 0.5


@pytest.mark.parametrize("plant", [
    lambda: (_scalar(), np.array([[0.5]]), np.array([[0.42]]), 0.9),
    _plant_3x2,
], ids=["scalar", "3x2"])
def test_mstar_matches_naive_dap_simulation(plant):
    sys_, K, K_star, gamma = plant()
    schedule = constant_schedule(
        quadratic_cost(np.eye(sys_.n_x), 2 * np.eye(sys_.n_u)), 80)
    ws = RNG(13).standard_normal((80, sys_.n_x))
    res = mstar_rollout(sys_, K, K_star, schedule, ws, H=5, kappa=1.0,
                        gamma=gamma)
    # reconstruct the induced blocks independently
    blocks = np.stack([(K - K_star) @ np.linalg.matrix_power(
        sys_.A - sys_.B @ K_star, i) for i in range(5)])
    per = _naive_dap_costs(sys_, K, blocks, schedule, ws)
    np.testing.assert_allclose(res.per_step_costs, per, atol=1e-10)
    assert res.cumulative_cost == pytest.approx(per.sum())


def test_best_fixed_m_beats_sampled_admissible_points():
    sys_ = _scalar()
    K = np.array([[0.5]])
    cert = certify(sys_, K, 1.0, 0.5)
    T, H = 120, 5
    schedule = constant_schedule(quadratic_cost(np.eye(1), np.eye(1)), T)
    proc = NoiseProcess("gaussian", 1.0, dim=1, seed=21)
    ws = _noise_matrix(proc, T)
    res = best_fixed_M(sys_, K, cert, schedule, ws, H, optimizer_budget=400)

    # surrogate objective evaluated the same way the search does
    cl = make_closed_loop(sys_, K, i_max=H)
    kern = SurrogateKernel(cl, sys_.B, H)
    Z = np.vstack([np.zeros((2 * H + 1, 1)), ws])
    windows = [Z[t:t + 2 * H + 1][::-1] for t in range(T)]

    def surrogate_total(blocks):
        return sum(kern.value(QuadraticCost(schedule.Q[t], schedule.R[t]),
                              blocks, windows[t])
                   for t in range(T))

    rng = RNG(77)
    best_sampled = min(
        surrogate_total(sample_admissible(rng, H, 1, 1, 1.0, 0.5, 1.0).blocks)
        for _ in range(150))
    assert best_sampled >= res.surrogate_cost - 1e-6 * max(1.0, abs(res.surrogate_cost))

    # reported cumulative cost is the exact rollout of the winning blocks
    blocks = np.asarray(res.descriptor["blocks"])
    per = _naive_dap_costs(sys_, K, blocks, schedule, ws)
    assert res.cumulative_cost == pytest.approx(per.sum(), rel=1e-10)


def test_best_fixed_m_recovers_scalar_lqr_structure():
    # for c = x^2 + u^2 the best first block sits near 0.22, later ones decay
    sys_ = _scalar()
    K = np.array([[0.5]])
    cert = certify(sys_, K, 1.0, 0.5)
    T, H = 400, 8
    schedule = constant_schedule(quadratic_cost(np.eye(1), np.eye(1)), T)
    proc = NoiseProcess("gaussian", 1.0, dim=1, seed=2)
    ws = _noise_matrix(proc, T)
    res = best_fixed_M(sys_, K, cert, schedule, ws, H, optimizer_budget=400)
    blocks = np.asarray(res.descriptor["blocks"])
    assert 0.15 <= blocks[0, 0, 0] <= 0.30
    assert abs(blocks[1, 0, 0]) < 0.15
    assert res.noise_hash == best_fixed_K(
        sys_, [K], schedule, ws).noise_hash


def test_regret_checkpoints_and_burn_in():
    sys_ = _scalar()
    K = np.array([[0.5]])
    cert = certify(sys_, K, 1.0, 0.9)
    T = 40
    schedule = constant_schedule(quadratic_cost(np.eye(1), np.eye(1)), T)
    proc = NoiseProcess("gaussian", 1.0, dim=1, seed=8)
    rec = run_episode(sys_, K, cert, schedule, proc,
                      LearningRateSchedule("constant_sqrtT"), T)
    comp = best_fixed_K(sys_, [K, np.array([[0.45]])], schedule, rec.ws)
    curve = regret(rec, comp)
    assert sorted(curve.checkpoints) == [5, 10, 20, 40]
    assert curve.regret_final == pytest.approx(
        rec.cum_cost - comp.cumulative_cost)
    assert curve.checkpoints[40] == pytest.approx(curve.regret_final)

    b = 7
    with_burn = regret(rec, comp, burn_in=b)
    lc, cc = with_burn.learner_cum, with_burn.comparator_cum
    expect = (lc[-1] - lc[b - 1]) - (cc[-1] - cc[b - 1])
    assert with_burn.regret_after_burn_in == pytest.approx(expect)
    with pytest.raises(ValueError):
        regret(rec, comp, burn_in=T)

    tampered = dataclasses.replace(comp, noise_hash="0" * 64)
    with pytest.raises(ValueError):
        regret(rec, tampered)


def test_regret_against_own_costs_is_zero():
    sys_ = _scalar()
    K = np.array([[0.5]])
    cert = certify(sys_, K, 1.0, 0.9)
    schedule = constant_schedule(quadratic_cost(np.eye(1), np.eye(1)), 24)
    proc = NoiseProcess("gaussian", 1.0, dim=1, seed=14)
    rec = run_episode(sys_, K, cert, schedule, proc,
                      LearningRateSchedule("constant_sqrtT"), 24)
    self_comp = ComparatorResult(
        kind="fixed_gain", cumulative_cost=rec.cum_cost,
        per_step_costs=rec.costs, descriptor={}, search_meta={},
        noise_hash=rec.noise_hash)
    curve = regret(rec, self_comp)
    assert curve.regret_final == 0.0
    assert all(v == 0.0 for v in curve.checkpoints.values())


def _plant_3x2_certified():
    """The (3, 2) plant of the learner's matrix replay test, certified."""
    B = np.array([[1.0, 0.0], [0.5, 1.0], [0.0, 0.3]])
    K = np.array([[0.2, -0.1, 0.3], [0.1, 0.25, -0.2]])
    sys_ = make_system(np.diag([0.3, -0.2, 0.1]) + B @ K, B)
    return sys_, K, certify(sys_, K, 1.5, 0.5)


def test_best_fixed_m_reports_its_last_step():
    sys_, K, cert = _plant_3x2_certified()
    T, H = 60, 4
    schedule = adversarial_convex_schedule(5, T, 3, 2)
    ws = np.stack([sample(NoiseProcess("student_t", 1.0, dim=3, seed=8, df=5.0), t)
                   for t in range(T)])
    extra = [sample_admissible(RNG(3), H, 2, 3, 1.5, 0.5, sys_.kappa_B)]
    short, long_ = (best_fixed_M(sys_, K, cert, schedule, ws, H, optimizer_budget=b,
                                 starts=extra) for b in (200, 3000))
    for res in (short, long_):
        assert set(res.search_meta) == {"objectives", "lipschitz_estimate", "iterations",
                                        "start_count", "last_step_frobs"}
        assert len(res.search_meta["last_step_frobs"]) == res.search_meta["start_count"] == 2
    assert all(s > l for s, l in zip(short.search_meta["last_step_frobs"],
                                     long_.search_meta["last_step_frobs"]))
    zero = best_fixed_M(sys_, K, cert, schedule, ws, H, optimizer_budget=0)
    assert zero.search_meta["last_step_frobs"] == [0.0]


_HORIZON_CALLERS = {
    "run_episode": lambda sys_, K, cert, sched, ws: run_episode(
        sys_, K, cert, sched, NoiseProcess("gaussian", 1.0, dim=sys_.n_x, seed=1),
        LearningRateSchedule("constant_sqrtT"), len(ws)),
    "best_fixed_K": lambda sys_, K, cert, sched, ws: best_fixed_K(sys_, [K], sched, ws),
    "best_fixed_M": lambda sys_, K, cert, sched, ws: best_fixed_M(
        sys_, K, cert, sched, ws, 3, optimizer_budget=5),
    "mstar_rollout": lambda sys_, K, cert, sched, ws: mstar_rollout(
        sys_, K, K, sched, ws, 3, cert.kappa, cert.gamma),
}


@pytest.mark.parametrize("caller", sorted(_HORIZON_CALLERS))
@pytest.mark.parametrize("steps", [1, 10, 49])
def test_every_consumer_rejects_a_short_cost_schedule(caller, steps):
    """A schedule shorter than the noise used to broadcast (1 step) or
    fail inside numpy (10 steps) in the fixed-M comparators."""
    sys_, K, cert = _plant_3x2_certified()
    ws = RNG(4).standard_normal((50, 3))
    call = _HORIZON_CALLERS[caller]
    short = constant_schedule(quadratic_cost(np.eye(3), np.eye(2)), steps)
    with pytest.raises(ValueError, match=f"cost schedule covers {steps} steps, need 50"):
        call(sys_, K, cert, short, ws)
    call(sys_, K, cert, constant_schedule(quadratic_cost(np.eye(3), np.eye(2)), 50), ws)
