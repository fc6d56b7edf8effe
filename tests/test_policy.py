import numpy as np
import pytest

from onlinectrl.policy import (PolicyParams, admissible_radii,
                               block_spectral_norms, comparator_params,
                               control_input, horizon_H, is_admissible,
                               policy_class_diameter, project,
                               sample_admissible, zero_policy)

KAPPA, GAMMA, KAPPA_B = 1.0, 0.5, 1.0


def test_horizon_H_values():
    # ceil(2 ln(T) / gamma)
    assert horizon_H(1000, 0.5) == 28
    assert horizon_H(100, 0.5) == 19
    assert horizon_H(3, 0.9) == 3
    with pytest.raises(ValueError):
        horizon_H(2, 0.5)
    with pytest.raises(ValueError):
        horizon_H(100, 0.0)


def test_admissible_radii_geometric():
    np.testing.assert_allclose(admissible_radii(3, KAPPA, GAMMA, KAPPA_B),
                               [2.0, 1.0, 0.5])
    np.testing.assert_allclose(
        admissible_radii(2, 2.0, 0.25, 3.0),
        [2 * 3 * 8, 2 * 3 * 8 * 0.75])


def test_policy_class_diameter_example():
    assert policy_class_diameter(1, 1.0, 0.5, 1.0) == 8.0


def test_block_norms_and_admissibility():
    rng = np.random.default_rng(5)
    for _ in range(20):
        H, n_u, n_x = (int(rng.integers(1, 5)) for _ in range(3))
        blocks = rng.standard_normal((H, n_u, n_x))
        M = PolicyParams(blocks)
        norms = block_spectral_norms(M)
        for i in range(H):
            assert np.isclose(norms[i], np.linalg.norm(blocks[i], 2))
    M0 = zero_policy(4, 2, 3)
    assert is_admissible(M0, KAPPA, GAMMA, KAPPA_B)
    assert M0.frob_norm() == 0.0


def test_project_into_set_and_fixed_point():
    rng = np.random.default_rng(23)
    for _ in range(30):
        H, n_u, n_x = (int(rng.integers(1, 4)) for _ in range(3))
        raw = PolicyParams(5.0 * rng.standard_normal((H, n_u, n_x)))
        proj = project(raw, KAPPA, GAMMA, KAPPA_B)
        assert is_admissible(proj, KAPPA, GAMMA, KAPPA_B)
        again = project(proj, KAPPA, GAMMA, KAPPA_B)
        assert np.max(np.abs(again.blocks - proj.blocks)) <= 1e-12
        inside = sample_admissible(rng, H, n_u, n_x, KAPPA, GAMMA, KAPPA_B)
        kept = project(inside, KAPPA, GAMMA, KAPPA_B)
        np.testing.assert_allclose(kept.blocks, inside.blocks, atol=1e-12)


def test_project_scalar_equals_clip():
    rng = np.random.default_rng(31)
    radii = admissible_radii(6, KAPPA, GAMMA, KAPPA_B)
    for _ in range(20):
        raw = 4.0 * rng.standard_normal((6, 1, 1))
        proj = project(PolicyParams(raw), KAPPA, GAMMA, KAPPA_B)
        clipped = np.clip(raw[:, 0, 0], -radii, radii)
        np.testing.assert_allclose(proj.blocks[:, 0, 0], clipped, atol=1e-14)


def test_project_is_closest_point():
    # projection in Frobenius metric: no sampled admissible point is closer
    rng = np.random.default_rng(41)
    for _ in range(10):
        H, n_u, n_x = 3, 2, 2
        raw = PolicyParams(3.0 * rng.standard_normal((H, n_u, n_x)))
        proj = project(raw, KAPPA, GAMMA, KAPPA_B)
        d_proj = np.linalg.norm(proj.blocks - raw.blocks)
        for _ in range(200):
            other = sample_admissible(rng, H, n_u, n_x, KAPPA, GAMMA, KAPPA_B)
            assert np.linalg.norm(other.blocks - raw.blocks) >= d_proj - 1e-9


def test_project_non_square_fixed_points_and_clipping():
    rng = np.random.default_rng(47)
    for n_u, n_x in ((2, 3), (3, 2), (1, 4), (4, 1)):
        H = 6
        radii = admissible_radii(H, KAPPA, GAMMA, KAPPA_B)
        raw = rng.standard_normal((H, n_u, n_x))
        fro = np.linalg.norm(raw, axis=(1, 2))
        # even blocks sit inside their radius by Frobenius norm, odd ones far out
        target = np.where(np.arange(H) % 2 == 0, 0.9, 3.0) * radii
        raw *= (target / fro)[:, None, None]
        proj = project(PolicyParams(raw), KAPPA, GAMMA, KAPPA_B)
        inside = np.arange(H) % 2 == 0
        assert np.array_equal(proj.blocks[inside], raw[inside])
        U, s, Vt = np.linalg.svd(raw, full_matrices=False)
        full = np.einsum("hij,hj,hjk->hik", U, np.minimum(s, radii[:, None]), Vt)
        np.testing.assert_allclose(proj.blocks[~inside], full[~inside],
                                   rtol=0, atol=1e-12)
        assert is_admissible(proj, KAPPA, GAMMA, KAPPA_B)


def test_control_input_matches_naive_sum():
    rng = np.random.default_rng(53)
    for _ in range(15):
        H, n_u, n_x = (int(rng.integers(1, 4)) for _ in range(3))
        K = rng.standard_normal((n_u, n_x))
        M = PolicyParams(rng.standard_normal((H, n_u, n_x)))
        x = rng.standard_normal(n_x)
        past = [rng.standard_normal(n_x) for _ in range(H + 2)]
        window = np.stack(past[::-1])  # window[m] = w_{t-1-m}
        u = control_input(K, M, x, window)
        expect = -K @ x
        for i in range(1, H + 1):  # u += M^[i-1] w_{t-i}
            expect = expect + M.blocks[i - 1] @ past[-i]
        np.testing.assert_allclose(u, expect, atol=1e-12)


def test_comparator_params_construction():
    A = np.array([[0.5]])
    B = np.array([[1.0]])
    K = np.array([[0.5]])
    K_star = np.array([[0.3]])
    H = 6
    M = comparator_params(K, K_star, A, B, H, kappa=1.0, gamma=0.5)
    for i in range(H):
        # (K - K*) (A - B K*)^i
        np.testing.assert_allclose(M.blocks[i], 0.2 * 0.2 ** i, atol=1e-14)
    assert is_admissible(M, 1.0, 0.5, 1.0)


def test_comparator_params_rejects_inadmissible():
    # large gain gap: block 0 spectral norm exceeds 2 kappa_B kappa^3
    A = np.array([[0.0]])
    B = np.array([[1.0]])
    with pytest.raises(RuntimeError):
        comparator_params(np.array([[2.4]]), np.array([[-0.3]]), A, B, 4,
                          kappa=1.0, gamma=0.5)


def test_sample_admissible_deterministic_per_seed():
    a = sample_admissible(np.random.default_rng(99), 3, 2, 2, KAPPA, GAMMA, KAPPA_B)
    b = sample_admissible(np.random.default_rng(99), 3, 2, 2, KAPPA, GAMMA, KAPPA_B)
    np.testing.assert_array_equal(a.blocks, b.blocks)
