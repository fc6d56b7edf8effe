import numpy as np
import pytest

from onlinectrl.system import (DIVERGENCE_LIMIT, initial_state, make_system,
                               recover_noise, spectral_norm)


def test_make_system_shapes_and_kappa_B():
    sys_ = make_system(np.array([[0.5]]), np.array([[0.5]]))
    assert (sys_.n_x, sys_.n_u) == (1, 1)
    assert sys_.kappa_B == 1.0  # max{||B||, 1} floors at one

    sys2 = make_system(np.eye(2), np.array([[2.0], [0.0]]))
    assert sys2.n_u == 1
    assert sys2.kappa_B == 2.0


def test_make_system_rejections():
    with pytest.raises(ValueError):
        make_system(np.zeros((2, 3)), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        make_system(np.zeros((2, 2)), np.zeros((3, 1)))
    with pytest.raises(ValueError):
        make_system(np.array([[np.nan]]), np.array([[1.0]]))


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(7)
    for _ in range(20):
        mat = rng.standard_normal((rng.integers(1, 5), rng.integers(1, 5)))
        assert np.isclose(spectral_norm(mat), np.linalg.svd(mat, compute_uv=False)[0])


def test_recover_noise_inverts_step():
    rng = np.random.default_rng(13)
    for _ in range(25):
        n_x, n_u = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        sys_ = make_system(rng.standard_normal((n_x, n_x)),
                           rng.standard_normal((n_x, n_u)))
        x = rng.standard_normal(n_x)
        u = rng.standard_normal(n_u)
        w = rng.standard_normal(n_x)
        x_next = sys_.A @ x + sys_.B @ u + w
        np.testing.assert_allclose(recover_noise(x_next, sys_.A @ x, sys_.B @ u), w,
                                   atol=1e-12)


@pytest.mark.parametrize("n_x,n_u", [(1, 1), (3, 2), (4, 4)])
def test_recover_noise_from_products_is_the_full_expression(n_x, n_u):
    """Given A x and B u, the recovery is x_next - x A' - u B', bit for bit."""
    rng = np.random.default_rng(n_x * 10 + n_u)
    A, B = rng.standard_normal((n_x, n_x)), rng.standard_normal((n_x, n_u))
    for lead in [(), (5,)]:  # one state, or a seed axis
        x, u = rng.standard_normal(lead + (n_x,)), rng.standard_normal(lead + (n_u,))
        x_next = rng.standard_normal(lead + (n_x,))
        got = recover_noise(x_next, x @ A.T, u @ B.T)
        assert got.tobytes() == (x_next - x @ A.T - u @ B.T).tobytes()


def test_initial_state_default_and_validation():
    sys_ = make_system(np.array([[0.5]]), np.array([[1.0]]))
    np.testing.assert_array_equal(initial_state(sys_), np.zeros(1))
    np.testing.assert_array_equal(initial_state(sys_, x0=[0.5]), [0.5])
    with pytest.raises(ValueError):
        initial_state(sys_, x0=np.zeros(2))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            initial_state(sys_, x0=np.array([bad]))
    np.testing.assert_array_equal(initial_state(sys_, x0=[-DIVERGENCE_LIMIT]), [-1e12])
    with pytest.raises(ValueError, match="divergence guard"):
        initial_state(sys_, x0=[2.0], limit=1.0)


@pytest.mark.parametrize("n_x,n_u", [(1, 1), (3, 2), (4, 4)])
def test_recover_noise_into_out_is_the_full_expression(n_x, n_u):
    """recover_noise(..., out=) writes x_next - Ax - Bu, bit for bit, into
    out and returns it: a plain array, or a strided column of an (S, L, n_x)
    buffer whose other rows stay as they were."""
    rng = np.random.default_rng(100 + n_x * 10 + n_u)
    A, B = rng.standard_normal((n_x, n_x)), rng.standard_normal((n_x, n_u))
    for lead in [(), (5,)]:  # one state, or a seed axis
        x, u = rng.standard_normal(lead + (n_x,)), rng.standard_normal(lead + (n_u,))
        x_next = rng.standard_normal(lead + (n_x,))
        Ax, Bu = x @ A.T, u @ B.T
        want = (x_next - Ax - Bu).tobytes()
        out = np.full(lead + (n_x,), np.nan)
        assert recover_noise(x_next, Ax, Bu, out=out) is out
        assert out.tobytes() == want
        buf = rng.standard_normal((5, 7, n_x))
        before = buf.copy()
        col = buf[:, 3] if lead else buf[2, 3]
        assert recover_noise(x_next, Ax, Bu, out=col) is col
        assert col.tobytes() == want
        col[...] = before[:, 3] if lead else before[2, 3]
        assert buf.tobytes() == before.tobytes()
