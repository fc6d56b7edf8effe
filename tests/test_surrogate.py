import numpy as np
import pytest

from onlinectrl.policy import disturbance_action, sample_admissible
from onlinectrl.surrogate import SurrogateKernel, _hankel, psi, state_expansion
from onlinectrl.system import make_system

KAPPA, GAMMA, KAPPA_B = 1.0, 0.5, 1.0


def _random_instance(rng, n_max=3, H_max=4):
    """Stable diagonal loop with B = I and a random small gain."""
    n = int(rng.integers(1, n_max + 1))
    H = int(rng.integers(1, H_max + 1))
    A_K = np.diag(rng.uniform(-0.45, 0.45, size=n))
    K = 0.2 * rng.standard_normal((n, n))
    A = A_K + K
    sys_ = make_system(A, np.eye(n))
    return sys_, K, n, H


def _non_square_instance(rng, H_max=4):
    """n_u != n_x with a dense, non-identity B; A_K stays stable and diagonal."""
    n_x = int(rng.integers(1, 4))
    n_u = int(rng.choice([n for n in range(1, 5) if n != n_x]))
    H = int(rng.integers(1, H_max + 1))
    B = rng.standard_normal((n_x, n_u))
    K = 0.2 * rng.standard_normal((n_u, n_x))
    A = np.diag(rng.uniform(-0.45, 0.45, size=n_x)) + B @ K
    return make_system(A, B), K, n_x, n_u, H


def _simulate(sys_, K, M_seq, ws):
    """Closed-loop rollout under time-varying policies; returns all states."""
    T = len(ws)
    H = M_seq[0].blocks.shape[0]
    xs = [np.zeros(sys_.n_x)]
    for t in range(T):
        u = -K @ xs[t]
        for i in range(1, H + 1):
            if t - i >= 0:
                u = u + M_seq[t].blocks[i - 1] @ ws[t - i]
        xs.append(sys_.A @ xs[t] + sys_.B @ u + ws[t])
    return xs


def _window(ws, t, length):
    """W[m] = w_{t-1-m}, zero before the start of time."""
    n_x = ws[0].shape[0]
    W = np.zeros((length, n_x))
    for m in range(length):
        k = t - 1 - m
        if k >= 0:
            W[m] = ws[k]
    return W


def test_state_expansion_equals_simulation_every_h():
    rng = np.random.default_rng(101)
    for _ in range(8):
        sys_, K, n, H = _random_instance(rng)
        T = int(rng.integers(4, 14))
        M_seq = [sample_admissible(rng, H, n, n, KAPPA, GAMMA, KAPPA_B)
                 for _ in range(T)]
        ws = [rng.standard_normal(n) for _ in range(T)]
        xs = _simulate(sys_, K, M_seq, ws)
        noise = np.stack(ws)
        for t in range(1, T + 1):
            for h in range(t):
                got = state_expansion(sys_, K, M_seq, noise, t, h, H)
                np.testing.assert_allclose(got, xs[t], atol=1e-9,
                                           err_msg=f"t={t} h={h}")


def test_psi_validations():
    rng = np.random.default_rng(5)
    sys_, K, n, H = _random_instance(rng)
    M = [sample_admissible(rng, H, n, n, KAPPA, GAMMA, KAPPA_B)
         for _ in range(3)]
    psi(sys_, K, M[:3], t=5, i=0, h=2, H=H)
    with pytest.raises(ValueError):
        psi(sys_, K, M[:3], t=1, i=0, h=2, H=H)   # h > t
    with pytest.raises(ValueError):
        psi(sys_, K, M[:3], t=5, i=H + 3, h=2, H=H)  # i > H + h
    with pytest.raises(ValueError):
        psi(sys_, K, M[:2], t=5, i=0, h=2, H=H)   # window length mismatch
    with pytest.raises(ValueError):
        # M_seq shorter than t leaves the outer window one policy short
        state_expansion(sys_, K, M[:2], np.zeros((3, n)), t=3, h=1, H=H)


def _frozen_replay(sys_, K, M, ws, t, H):
    """Surrogate (y, v) by simulation: zero the state H+1 steps back and
    run the frozen policy M on the recorded disturbances."""
    x = np.zeros(sys_.n_x)
    for k in range(t - 1 - H, t):
        u = -K @ x
        for i in range(1, H + 1):
            if k - i >= 0:
                u = u + M.blocks[i - 1] @ ws[k - i]
        if k >= 0:
            x = sys_.A @ x + sys_.B @ u + ws[k]
        else:
            x = sys_.A @ x + sys_.B @ u
    v = -K @ x
    for i in range(1, H + 1):
        if t - i >= 0:
            v = v + M.blocks[i - 1] @ ws[t - i]
    return x, v


def test_point_matches_frozen_policy_replay():
    rng = np.random.default_rng(202)
    for _ in range(10):
        sys_, K, n, H = _random_instance(rng)
        T = 2 * H + 6
        M = sample_admissible(rng, H, n, n, KAPPA, GAMMA, KAPPA_B)
        ws = [rng.standard_normal(n) for _ in range(T)]
        kern = SurrogateKernel(sys_, K, H)
        for t in (H + 1, T - 1, T):
            y, v = kern.point(M.blocks, _window(ws, t, 2 * H + 1))
            y_expect, v_expect = _frozen_replay(sys_, K, M, ws, t, H)
            np.testing.assert_allclose(y, y_expect, atol=1e-10)
            np.testing.assert_allclose(v, v_expect, atol=1e-10)


def test_point_matches_frozen_policy_replay_non_square():
    rng = np.random.default_rng(212)
    for _ in range(12):
        sys_, K, n_x, n_u, H = _non_square_instance(rng)
        T = 2 * H + 6
        M = sample_admissible(rng, H, n_u, n_x, KAPPA, GAMMA, KAPPA_B)
        ws = [rng.standard_normal(n_x) for _ in range(T)]
        kern = SurrogateKernel(sys_, K, H)
        for t in (1, H + 1, T - 1, T):
            y, v = kern.point(M.blocks, _window(ws, t, 2 * H + 1))
            y_expect, v_expect = _frozen_replay(sys_, K, M, ws, t, H)
            np.testing.assert_allclose(y, y_expect, atol=1e-10)
            np.testing.assert_allclose(v, v_expect, atol=1e-10)


def test_truncation_error_bounded_by_decay():
    # zeroing the state H+1 steps back costs at most kappa^2 (1-gamma)^{H+1} ||x||
    rng = np.random.default_rng(404)
    sys_, K, n, H = _random_instance(rng)
    T = 2 * H + 9
    M = sample_admissible(rng, H, n, n, KAPPA, GAMMA, KAPPA_B)
    ws = [rng.standard_normal(n) for _ in range(T)]
    xs = _simulate(sys_, K, [M] * T, ws)
    kern = SurrogateKernel(sys_, K, H)
    y, _ = kern.point(M.blocks, _window(ws, T, 2 * H + 1))
    err = np.linalg.norm(xs[T] - y)
    bound = KAPPA ** 2 * (1 - GAMMA) ** (H + 1) * np.linalg.norm(xs[T - 1 - H])
    assert err <= bound + 1e-12


def _grad_fd_error(kern, cost, blocks, W, eps=1e-6):
    """Relative error of kern.grad against central finite differences."""
    G, y, v = kern.grad(cost, blocks, W)
    assert G.shape == blocks.shape
    Q, R = cost
    assert np.isfinite(y @ Q @ y + v @ R @ v)
    fd = np.zeros_like(G)
    for idx in np.ndindex(G.shape):
        up, dn = blocks.copy(), blocks.copy()
        up[idx] += eps
        dn[idx] -= eps
        fd[idx] = (kern.value(cost, up, W) - kern.value(cost, dn, W)) / (2 * eps)
    return np.linalg.norm(G - fd) / max(np.linalg.norm(fd), 1e-12)


def _random_cost(rng, n_x, n_u):
    """A random strongly convex stage cost (Q, R)."""
    Qh = rng.standard_normal((n_x, n_x))
    Rh = rng.standard_normal((n_u, n_u))
    return Qh @ Qh.T + 0.2 * np.eye(n_x), Rh @ Rh.T + 0.2 * np.eye(n_u)


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(505)
    for _ in range(12):
        sys_, K, n, H = _random_instance(rng)
        cost = _random_cost(rng, n, n)
        kern = SurrogateKernel(sys_, K, H)
        W = rng.standard_normal((2 * H + 1, n))
        M = sample_admissible(rng, H, n, n, KAPPA, GAMMA, KAPPA_B)
        assert _grad_fd_error(kern, cost, M.blocks, W) <= 1e-6


def test_grad_matches_finite_differences_non_square():
    rng = np.random.default_rng(515)
    for _ in range(12):
        sys_, K, n_x, n_u, H = _non_square_instance(rng)
        cost = _random_cost(rng, n_x, n_u)
        kern = SurrogateKernel(sys_, K, H)
        W = rng.standard_normal((2 * H + 1, n_x))
        M = sample_admissible(rng, H, n_u, n_x, KAPPA, GAMMA, KAPPA_B)
        assert _grad_fd_error(kern, cost, M.blocks, W) <= 1e-6



def _plant(name):
    """(system, K): a scalar loop with A - B K = 0.2, a 3x2 plant with dense B,
    or a 4x4 plant with an upper-triangular B and a non-diagonal closed loop."""
    if name == "scalar":
        return make_system([[0.6]], [[1.0]]), np.array([[0.4]])
    if name == "4x4":
        B = np.eye(4) + 0.2 * np.triu(np.ones((4, 4)), 1)
        K = 0.3 * np.eye(4) + 0.05 * np.ones((4, 4))
        A_K = np.diag([0.5, 0.3, -0.2, 0.1]) + 0.1 * np.tril(np.ones((4, 4)), -1)
        return make_system(A_K + B @ K, B), K
    B = np.array([[1.0, 0.0], [0.5, 1.0], [0.0, 0.3]])
    K = np.array([[0.2, -0.1, 0.3], [0.1, 0.25, -0.2]])
    return make_system(np.diag([0.3, -0.2, 0.1]) + B @ K, B), K


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


@pytest.mark.parametrize("plant,H,S", [
    ("scalar", 1, 1), ("scalar", 11, 1), ("3x2", 4, 1),
    ("scalar", 1, 3), ("scalar", 4, 3), ("scalar", 11, 3), ("scalar", 19, 3), ("3x2", 4, 3),
    ("3x2", 11, 3)])
def test_lockstep_grad_equals_single_window_calls(plant, H, S):
    """grad on a stack of S windows, as run_episode calls it, returns per seed
    what a single-window call returns: bit for bit as a stack of one, to
    rounding otherwise. point and value agree with its (y, v) bit for bit."""
    sys_, K = _plant(plant)
    n_x, n_u = sys_.n_x, sys_.n_u
    kern = SurrogateKernel(sys_, K, H)
    rng = np.random.default_rng(1000 * H + S)
    W = rng.standard_normal((S, 2 * H + 1, n_x))
    blocks = rng.standard_normal((S, H, n_u, n_x))
    Q, R = (np.stack(m) for m in zip(*[_random_cost(rng, n_x, n_u) for _ in range(S)]))
    hank = np.ascontiguousarray(_hankel(W, H, H + 2)[:, 0])
    G, y, v = kern.grad((Q, R), blocks, W, hank, disturbance_action(blocks, hank))
    assert (G.shape, y.shape, v.shape) == (blocks.shape, (S, n_x), (S, n_u))
    for s in range(S):
        cost = (Q[s], R[s])
        solo = kern.grad(cost, blocks[s], W[s])
        for got, want in zip((G[s], y[s], v[s]), solo):
            assert got.shape == want.shape
            if S == 1:
                assert got.tobytes() == want.tobytes()
            else:
                assert _rel(got, want) <= 1e-12
        _, y_s, v_s = solo
        y_p, v_p = kern.point(blocks[s], W[s])
        assert y_p.tobytes() == y_s.tobytes() and v_p.tobytes() == v_s.tobytes()
        assert kern.value(cost, blocks[s], W[s]) == float(y_s @ Q[s] @ y_s + v_s @ R[s] @ v_s)


@pytest.mark.parametrize("plant,H", [("scalar", 1), ("scalar", 19), ("3x2", 4), ("3x2", 11)])
def test_grad_out_is_the_flat_layout_of_the_blocks_return(plant, H):
    """grad(..., out=) writes the gradient in the blocks' flattened layout
    (S, n_u, H n_x) and returns out with the (y, v) of a call without it, bit
    for bit; one kernel serves stacks of 3, 1 and 3 seeds in turn, and no
    call writes W, hank or dap."""
    sys_, K = _plant(plant)
    n_x, n_u = sys_.n_x, sys_.n_u
    kern = SurrogateKernel(sys_, K, H)
    rng = np.random.default_rng(7 * H + n_x)
    for S in (3, 1, 3):
        W = rng.standard_normal((S, 2 * H + 1, n_x))
        blocks = rng.standard_normal((S, H, n_u, n_x))
        Q, R = (np.stack(m) for m in zip(*[_random_cost(rng, n_x, n_u) for _ in range(S)]))
        hank = np.ascontiguousarray(_hankel(W, H, H + 2)[:, 0])
        dap = disturbance_action(blocks, hank)
        inputs = [a.copy() for a in (W, hank, dap)]
        out = np.full((S, n_u, H * n_x), np.nan)
        got, y_o, v_o = kern.grad((Q, R), blocks, W, hank, dap, out=out)
        G, y, v = kern.grad((Q, R), blocks, W, hank, dap)
        assert got is out
        assert out.tobytes() == G.swapaxes(1, 2).reshape(S, n_u, -1).tobytes()
        assert y_o.tobytes() == y.tobytes() and v_o.tobytes() == v.tobytes()
        for a, before in zip((W, hank, dap), inputs):
            assert a.tobytes() == before.tobytes()


@pytest.mark.parametrize("plant,H", [("scalar", 1), ("scalar", 19), ("3x2", 4), ("3x2", 11),
                                     ("4x4", 31)])
def test_grad_on_prebuilt_rows_equals_the_window_form(plant, H):
    """grad given the views an episode builds once -- each window's rows 0..H
    as one flat row of a strided view of the recovered-noise buffer, and dap's
    row 0 and rows 1..H+1 as views of one dap buffer -- returns the window
    form's bits, with and without out, and at one seed the solo call's. One
    kernel serves 3, 1 and 3 seeds in turn, so its scratch is rebuilt each
    time; no call writes W, hank or dap."""
    sys_, K = _plant(plant)
    n_x, n_u = sys_.n_x, sys_.n_u
    kern = SurrogateKernel(sys_, K, H)
    rng = np.random.default_rng(11 * H + n_x)
    T = 9
    for S in (3, 1, 3):
        buf = np.zeros((S, T + 2 * H + 1, n_x))
        buf[:, :T] = rng.standard_normal((S, T, n_x))
        blocks = rng.standard_normal((S, H, n_u, n_x))
        flatT = blocks.swapaxes(1, 2).reshape(S, n_u, -1).swapaxes(1, 2)
        Q, R = (np.stack(m) for m in zip(*[_random_cost(rng, n_x, n_u) for _ in range(S)]))
        rows = _hankel(buf, H + 1, 1)[:, :, 0]
        hank, dap = np.empty((S, H + 2, H * n_x)), np.empty((S, H + 2, n_u))
        dap0, dap_rest = dap[:, 0], dap[:, 1:].reshape(S, -1)
        for p in (0, T // 2, T):  # p = T: a window wholly in the zero padding
            W = buf[:, p:p + 2 * H + 1]
            np.copyto(hank, _hankel(buf, H, H + 2)[:, p])
            np.matmul(hank, flatT, out=dap)
            inputs = [a.copy() for a in (W, hank, dap)]
            G, y, v = kern.grad((Q, R), blocks, W, hank, dap)
            views = dict(rows=rows[:, p], dap0=dap0, dap_rest=dap_rest)
            out = np.full((S, n_u, H * n_x), np.nan)
            got, y_o, v_o = kern.grad((Q, R), blocks, W, hank, dap, out=out, **views)
            assert got is out
            assert out.tobytes() == G.swapaxes(1, 2).reshape(S, n_u, -1).tobytes()
            G_b, y_b, v_b = kern.grad((Q, R), blocks, W, hank, dap, **views)
            assert G_b.tobytes() == G.tobytes()
            for a, b in ((y_o, y), (v_o, v), (y_b, y), (v_b, v)):
                assert a.tobytes() == b.tobytes()
            if S == 1:
                solo = kern.grad((Q[0], R[0]), blocks[0], W[0])
                for a, b in zip(solo, (G[0], y[0], v[0])):
                    assert a.tobytes() == b.tobytes()
            for a, before in zip((W, hank, dap), inputs):
                assert a.tobytes() == before.tobytes()
