import dataclasses

import numpy as np
import pytest

from onlinectrl.comparator import (ComparatorResult, best_fixed_K, mstar_rollout,
                                   regret, rollout_gains, select_gain)
from onlinectrl.costs import (adversarial_convex_schedule, constant_schedule,
                              quadratic_cost)
from onlinectrl.learner import LearningRateSchedule, run_episode
from onlinectrl.noise import NoiseProcess, sample_episode
from onlinectrl.stability import certify
from onlinectrl.system import make_system

RNG = np.random.default_rng


def _scalar():
    return make_system(np.array([[0.5]]), np.array([[1.0]]))


def _stage_cost(cost_schedule, t, x, u):
    Q, R = cost_schedule.reveal(t, u)
    return x @ Q @ x + u @ R @ u


def _naive_gain_cost(sys_, K, cost_schedule, ws):
    x = np.zeros(sys_.n_x)
    total, per = 0.0, []
    for t in range(len(ws)):
        u = -K @ x
        c = _stage_cost(cost_schedule, t, x, u)
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
        per.append(_stage_cost(cost_schedule, t, x, u))
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
    # zero blocks: the same gain on the same noise, through the same recursion
    assert res.per_step_costs.tobytes() == base.per_step_costs.tobytes()
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
    """Fixed and per-step random costs; the random ones check that dap_t,
    u_t and c_t line up step by step."""
    sys_, K, K_star, gamma = plant()
    ws = RNG(13).standard_normal((80, sys_.n_x))
    # reconstruct the induced blocks independently
    blocks = np.stack([(K - K_star) @ np.linalg.matrix_power(
        sys_.A - sys_.B @ K_star, i) for i in range(5)])
    for schedule in (constant_schedule(quadratic_cost(np.eye(sys_.n_x), 2 * np.eye(sys_.n_u)), 80),
                     adversarial_convex_schedule(23, 80, sys_.n_x, sys_.n_u)):
        res = mstar_rollout(sys_, K, K_star, schedule, ws, H=5, kappa=1.0,
                            gamma=gamma)
        per = _naive_dap_costs(sys_, K, blocks, schedule, ws)
        np.testing.assert_allclose(res.per_step_costs, per, atol=1e-10)
        assert res.cumulative_cost == pytest.approx(per.sum())


def test_regret_checkpoints():
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


_HORIZON_CALLERS = {
    "run_episode": lambda sys_, K, cert, sched, ws: run_episode(
        sys_, K, cert, sched, NoiseProcess("gaussian", 1.0, dim=sys_.n_x, seed=1),
        LearningRateSchedule("constant_sqrtT"), len(ws)),
    "best_fixed_K": lambda sys_, K, cert, sched, ws: best_fixed_K(sys_, [K], sched, ws),
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


def _seed_batch(plant, S, T=300):
    """(system, candidates, cost schedules, noise arrays) of S seeds on one plant."""
    if plant == "scalar":
        sys_ = _scalar()
        cands = [np.array([[k]]) for k in np.linspace(0.4, 0.6, 11)]
        schedules = [adversarial_convex_schedule(40 + s, T, 1, 1) for s in range(S)]
        procs = [NoiseProcess("gaussian", 1.0, dim=1, seed=s) for s in range(S)]
    elif plant == "mimo4":
        rng = RNG(6)
        sys_ = make_system(np.diag([0.5, 0.3, -0.2, 0.4]) + 0.05 * rng.standard_normal((4, 4)),
                           np.eye(4) + 0.1 * rng.standard_normal((4, 4)))
        cands = [k * np.eye(4) for k in (0.1, 0.2, 0.3)]
        fixed = constant_schedule(quadratic_cost(np.eye(4), 0.5 * np.eye(4)), T)
        schedules = [adversarial_convex_schedule(s, T, 4, 4) if s % 2 else fixed
                     for s in range(S)]
        procs = [NoiseProcess("gaussian", 1.0, dim=4, seed=s) for s in range(S)]
    else:
        sys_, K, _ = _plant_3x2_certified()
        cands = [K, 0.5 * K, np.zeros((2, 3))]
        schedules = [adversarial_convex_schedule(60 + s, T, 3, 2) for s in range(S)]
        procs = [NoiseProcess("student_t", 1.0, dim=3, seed=s, df=5.0) for s in range(S)]
    return sys_, cands, schedules, [sample_episode(p, T) for p in procs]


@pytest.mark.parametrize("plant", ["scalar", "mimo4", "3x2-student-t"])
@pytest.mark.parametrize("S", [1, 3])
def test_best_fixed_k_over_seeds_equals_per_seed_calls(plant, S):
    sys_, cands, schedules, ws = _seed_batch(plant, S)
    batch = best_fixed_K(sys_, cands, schedules, ws)
    assert isinstance(batch, list) and len(batch) == S
    for schedule, w, got in zip(schedules, ws, batch):
        want = best_fixed_K(sys_, cands, schedule, w)
        assert got.per_step_costs.tobytes() == want.per_step_costs.tobytes()
        assert got.search_meta == want.search_meta  # every candidate's total, bit for bit
        assert (got.cumulative_cost, got.descriptor, got.noise_hash) == (
            want.cumulative_cost, want.descriptor, want.noise_hash)


@pytest.mark.parametrize("plant", ["scalar", "3x2-student-t"])
def test_selection_on_a_prefix_equals_the_shorter_replay(plant):
    """Selecting at T from a T_max rollout gives best_fixed_K on the T-step
    inputs bit for bit, as a batch selects every horizon's comparator from
    one replay at its largest horizon. At T = 1 every candidate costs 0
    (x_0 = 0), a tie that goes to index 0."""
    T_max = 300
    sys_, cands, schedules, ws = _seed_batch(plant, 2, T_max)
    costs = rollout_gains(sys_, cands, schedules, ws)
    assert [c.shape for c in costs] == [(len(cands), T_max)] * 2
    for T in (1, 37, 128, T_max - 1, T_max):
        _, _, short_schedules, short_ws = _seed_batch(plant, 2, T)
        for c, w, want in zip(costs, ws, best_fixed_K(sys_, cands, short_schedules, short_ws)):
            got = select_gain(cands, c, w, T)
            assert got.per_step_costs.tobytes() == want.per_step_costs.tobytes()
            assert got.cumulative_cost == want.cumulative_cost
            assert got.descriptor == want.descriptor
            assert got.search_meta["candidate_costs"] == want.search_meta["candidate_costs"]
            assert got.noise_hash == want.noise_hash
    for T in (0, T_max + 1):  # a prefix the rollout does not hold
        with pytest.raises(ValueError, match=rf"prefix length must lie in \[1, {T_max}\]"):
            select_gain(cands, costs[0], ws[0], T)


def test_best_fixed_k_rejects_unequal_or_empty_seed_lists():
    sys_, cands, schedules, ws = _seed_batch("scalar", 3)
    for bad in ((schedules[:2], ws), (schedules, ws[:2]), (schedules, ws[0]), ([], [])):
        with pytest.raises(ValueError, match="equal-length sequences of both"):
            best_fixed_K(sys_, cands, *bad)
    with pytest.raises(ValueError, match=r"\(T, n_x\)"):
        best_fixed_K(sys_, cands, schedules[0], ws)
    with pytest.raises(ValueError, match="first seed's 300 steps"):
        best_fixed_K(sys_, cands, schedules, [ws[0], ws[1][:200], ws[2]])


def _certified(plant):
    if plant == "3x2":
        return _plant_3x2_certified()
    sys_, K = _scalar(), np.array([[0.5]])
    return sys_, K, certify(sys_, K, 1.0, 0.9)


_NOISE_CALLERS = {name: call for name, call in _HORIZON_CALLERS.items()
                  if name != "run_episode"}  # which draws its own noise
_NOISE_CALLERS["best_fixed_K over seeds"] = lambda sys_, K, cert, sched, ws: best_fixed_K(
    sys_, [K], [sched] * 2, [np.zeros((len(ws), sys_.n_x)), ws])


@pytest.mark.parametrize("caller", sorted(_NOISE_CALLERS))
@pytest.mark.parametrize("plant,shape", [("3x2", (50,)), ("3x2", (50, 2)),
                                         ("scalar", (50, 2)), ("scalar", (50,))])
def test_every_comparator_rejects_mis_shaped_noise(caller, plant, shape):
    """1-D noise on a 3-state plant used to broadcast into every component
    (best_fixed_K) or raise IndexError (mstar_rollout), and a (T, 2) array
    on the scalar plant failed inside numpy."""
    sys_, K, cert = _certified(plant)
    schedule = constant_schedule(quadratic_cost(np.eye(sys_.n_x), np.eye(sys_.n_u)), 50)
    ws = RNG(4).standard_normal(shape)
    with pytest.raises(ValueError, match=rf"\(T, n_x\) = \(T, {sys_.n_x}\) array, got shape"):
        _NOISE_CALLERS[caller](sys_, K, cert, schedule, ws)
