import numpy as np
import pytest

from onlinectrl import costs
from onlinectrl.costs import (CostSchedule, _random_psd,
                              adversarial_convex_schedule, constant_schedule,
                              materialize, quadratic_cost)
from onlinectrl.rng import STREAM_COST, keyed_rng


def _stage_cost(sched, t, x, u):
    Q, R = sched.reveal(t, u)
    return x @ Q @ x + u @ R @ u


def test_quadratic_metadata():
    cost = quadratic_cost(np.eye(2), np.eye(1))
    assert cost.horizon == 1
    assert cost.g_c == 2.0
    assert np.isclose(cost.alpha, 2.0)
    assert np.isclose(cost.beta, 2.0)

    # singular Q: convex but not strongly convex
    flat = quadratic_cost(np.diag([1.0, 0.0]), np.eye(1))
    assert flat.alpha is None
    assert flat.beta is not None


def test_quadratic_rejects_non_psd():
    with pytest.raises(ValueError):
        quadratic_cost(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(1))
    with pytest.raises(ValueError):
        quadratic_cost(np.array([[-0.5]]), np.eye(1))


def test_stage_values_match_loop():
    rng = np.random.default_rng(8)
    sched = adversarial_convex_schedule(8, 9, 2, 1)
    X = rng.standard_normal((9, 2))
    U = rng.standard_normal((9, 1))
    values = sched.stage_values(X, U)
    for t in range(9):
        assert np.isclose(values[t], _stage_cost(sched, t, X[t], U[t]))
    # a leading batch axis per step: X[t, c] is candidate c's state
    Xc, Uc = rng.standard_normal((9, 4, 2)), rng.standard_normal((9, 4, 1))
    batch = sched.stage_values(Xc, Uc)
    assert batch.shape == (9, 4)
    for t in range(9):
        for c in range(4):
            assert np.isclose(batch[t, c], _stage_cost(sched, t, Xc[t, c], Uc[t, c]))


def test_reveal_bounds_and_constant_schedule():
    cost = quadratic_cost(np.eye(1), np.eye(1))
    sched = constant_schedule(cost, 5)
    assert sched.horizon == 5
    u = np.zeros(1)
    for t in (0, 4):
        Q_t, R_t = sched.reveal(t, u)
        np.testing.assert_array_equal(Q_t, cost.Q[0])
        np.testing.assert_array_equal(R_t, cost.R[0])
    with pytest.raises(ValueError):
        sched.reveal(5, u)
    with pytest.raises(ValueError):
        sched.reveal(-1, u)


def test_constant_schedule_stores_zero_copy_view():
    Q = np.array([[2.0, 0.5], [0.5, 1.0]])
    cost = quadratic_cost(Q, np.eye(1))
    sched = constant_schedule(cost, 4096)
    assert sched.Q.shape == (4096, 2, 2) and sched.R.shape == (4096, 1, 1)
    assert sched.Q.strides[0] == 0 and sched.R.strides[0] == 0
    assert np.shares_memory(sched.Q, cost.Q) and np.shares_memory(sched.R, cost.R)
    assert (sched.g_c, sched.alpha, sched.beta) == (cost.g_c, cost.alpha, cost.beta)


def test_adversarial_schedule_determinism_and_bounds():
    a = adversarial_convex_schedule(123, 12, 2, 1)
    b = adversarial_convex_schedule(123, 12, 2, 1)
    other = adversarial_convex_schedule(124, 12, 2, 1)
    np.testing.assert_array_equal(a.Q, b.Q)
    np.testing.assert_array_equal(a.R, b.R)
    assert not np.allclose(a.Q, other.Q)
    # every stage cost keeps its curvature inside the advertised envelope
    assert a.g_c == 2.0
    for stack in (a.Q, a.R):
        eigs = np.linalg.eigvalsh(2.0 * stack)
        assert eigs.max() <= 2.0 + 1e-9
        assert eigs.min() >= -1e-12


def test_adversarial_scalar_strong_convexity_floor():
    sched = adversarial_convex_schedule(7, 40, 1, 1)
    assert sched.alpha == 0.2
    assert (2.0 * sched.Q).min() >= 0.2 - 1e-12
    assert (2.0 * sched.R).min() >= 0.2 - 1e-12


@pytest.mark.parametrize("n_x,n_u", [(1, 1), (2, 1), (3, 2)])
def test_random_stack_equals_per_step_draws(n_x, n_u):
    T = 50
    sched = adversarial_convex_schedule(31, T, n_x, n_u)
    for t in range(T):
        rng = keyed_rng(31, STREAM_COST, t)
        Q_t, R_t = _random_psd(rng, n_x), _random_psd(rng, n_u)
        assert sched.Q[t].tobytes() == Q_t.tobytes()
        assert sched.R[t].tobytes() == R_t.tobytes()


@pytest.mark.parametrize("seed", [0, 3, 19, 2**64 + 7])
def test_scalar_schedule_equals_per_step_draws_at_full_horizon(seed):
    """The vectorized scalar draws are each step's rng.uniform(0.1, 1.0, 2)."""
    T = 4096
    sched = adversarial_convex_schedule(seed, T, 1, 1)
    draws = np.array([keyed_rng(seed, STREAM_COST, t).uniform(0.1, 1.0, 2) for t in range(T)])
    assert sched.Q.shape == sched.R.shape == (T, 1, 1)
    assert sched.Q.tobytes() == np.ascontiguousarray(draws[:, 0]).tobytes()
    assert sched.R.tobytes() == np.ascontiguousarray(draws[:, 1]).tobytes()


@pytest.mark.parametrize("n_x,n_u", [(1, 1), (2, 1)])
def test_empty_schedule_draws_nothing(n_x, n_u, monkeypatch):
    def no_draws(*args):
        raise AssertionError("a T = 0 schedule drew")

    monkeypatch.setattr(costs, "keyed_blocks", no_draws)
    monkeypatch.setattr("onlinectrl.rng.keyed_rng", no_draws)  # what keyed_steps builds
    sched = adversarial_convex_schedule(5, 0, n_x, n_u)
    assert sched.Q.shape == (0, n_x, n_x) and sched.R.shape == (0, n_u, n_u)


def test_schedule_rejects_one_bad_step():
    sched = adversarial_convex_schedule(5, 20, 2, 2)
    indefinite = sched.Q.copy()
    indefinite[13] = np.diag([1.0, -0.5])
    with pytest.raises(ValueError, match="positive semidefinite.*step 13"):
        CostSchedule(Q=indefinite, R=sched.R, g_c=2.0)
    asymmetric = sched.R.copy()
    asymmetric[7, 0, 1] += 1e-3
    with pytest.raises(ValueError, match="symmetric.*step 7"):
        CostSchedule(Q=sched.Q, R=asymmetric, g_c=2.0)
    with pytest.raises(ValueError, match="steps"):
        CostSchedule(Q=sched.Q, R=sched.R[:19], g_c=2.0)


@pytest.mark.parametrize("defect,message", [
    ("asymmetric", "R must be symmetric"), ("indefinite", "R must be positive semidefinite"),
])
def test_seed_stack_error_names_step_and_seed(defect, message):
    # (T, S, n, n) stacks as lockstep episodes build them: 3 steps, 2 seeds
    sched = adversarial_convex_schedule(9, 3, 2, 2)
    Q = np.stack([sched.Q, sched.Q], axis=1)
    R = np.stack([sched.R, sched.R], axis=1)
    if defect == "asymmetric":
        R[1, 1, 0, 1] += 1e-3
    else:
        R[1, 1] = np.diag([1.0, -0.5])
    with pytest.raises(ValueError, match=f"^{message} \\(step 1, seed 1\\)$"):
        CostSchedule(Q=Q, R=R, g_c=2.0)


def test_materialize_pointwise_equal():
    sched = adversarial_convex_schedule(55, 10, 2, 2)
    mat = materialize(sched)
    assert mat is sched
    assert (mat.horizon, mat.g_c, mat.alpha, mat.beta) == (10, 2.0, None, 2.0)
