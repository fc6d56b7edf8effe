import numpy as np
import pytest

from onlinectrl.system import (LinearSystem, initial_state, make_system,
                               recover_noise, spectral_norm, system_from_json)


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


def test_system_from_json_round_trip_and_rejections():
    doc = {"A": [[0.5, 0.1], [0.0, 0.3]], "B": [[1.0], [0.5]]}
    sys_ = system_from_json(doc)
    assert isinstance(sys_, LinearSystem)
    np.testing.assert_allclose(sys_.A, doc["A"])
    np.testing.assert_allclose(sys_.B, doc["B"])
    with pytest.raises(ValueError):
        system_from_json({"A": [[0.5, 0.1]], "B": [[1.0]]})
    with pytest.raises(ValueError):
        system_from_json({"A": [[0.1, 0.2], [0.3]], "B": [[1.0], [1.0]]})
    with pytest.raises(ValueError):
        system_from_json({"B": [[1.0]]})
