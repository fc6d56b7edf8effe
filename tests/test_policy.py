import contextlib
import io
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from onlinectrl import policy
from onlinectrl.policy import (PolicyParams, admissible_radii, comparator_params,
                               control_input, disturbance_action, horizon_H, is_admissible,
                               policy_class_diameter, project, project_scalar_stack,
                               sample_admissible, scalar_stack_bounds)
from onlinectrl.system import make_system

try:
    from numpy.linalg._umath_linalg import eigh_lo
except ImportError:  # project falls back to np.linalg.eigh
    eigh_lo = None
try:
    from numpy._core._multiarray_umath import c_einsum
except ImportError:  # project and the comparator's replay fall back to np.einsum
    c_einsum = None
try:
    from numpy._core.umath import clip as clip_ufunc
except ImportError:  # both scalar clips fall back to max then min
    clip_ufunc = None

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
        norms = np.linalg.svd(blocks, compute_uv=False)[:, 0]
        for i in range(H):
            assert np.isclose(norms[i], np.linalg.norm(blocks[i], 2))
    M0 = PolicyParams(np.zeros((4, 2, 3)))
    assert is_admissible(M0, KAPPA, GAMMA, KAPPA_B)


@pytest.mark.parametrize("scale,admissible", [(1.0, True), (1.0 + 1e-12, True),
                                              (1.0 + 1e-6, False), (10.0, False)])
def test_is_admissible_tolerance_is_relative(scale, admissible):
    """Radii 10 down to 1e-10: a block at scale times its radius is judged
    the same at either end, so a 10x overshoot of a 1e-10 radius is caught."""
    H, kappa, gamma, kappa_B = 12, 1.0, 0.9, 5.0
    radii = admissible_radii(H, kappa, gamma, kappa_B)
    for i in (0, H - 1):
        blocks = np.zeros((H, 2, 2))
        blocks[i] = scale * radii[i] * np.diag([1.0, 0.5])
        assert is_admissible(PolicyParams(blocks), kappa, gamma, kappa_B) is admissible


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
        assert proj.blocks[:, 0, 0].tobytes() == clipped.tobytes()


def _scalar_entries(rng, S, radii):
    """(S, H, 1, 1) blocks; every seed holds, at shuffled blocks, entries
    inside and outside the block's radius r, exactly +-r, +-inf, NaN and -0.0."""
    H = radii.size
    kinds = np.hstack([np.outer(radii, [0.3, -0.7, 2.5, -3.0, 1.0, -1.0]),
                       np.tile([np.inf, -np.inf, np.nan, -0.0], (H, 1))])  # (H, 10)
    raw = np.empty((S, H, 1, 1))
    for s in range(S):
        raw[s, :, 0, 0] = kinds[np.arange(H), rng.permutation(H) % kinds.shape[1]]
    return raw


@pytest.mark.parametrize("S", [1, 2, 20])
@pytest.mark.parametrize("layout", ["contiguous", "strided"])
def test_project_scalar_stack_equals_per_seed_project(S, layout):
    """One clip of a seed stack writes, bit for bit, what project(..., out=)
    writes seed by seed, and writes nothing but out: not raw, not the bounds,
    and not the memory around a strided out."""
    rng = np.random.default_rng(53 + S)
    H = 20
    radii = admissible_radii(H, KAPPA, GAMMA, KAPPA_B)
    raw = _scalar_entries(rng, S, radii)
    if layout == "strided":  # every other block of a larger stack
        raw = np.repeat(raw, 2, axis=1)[:, ::2]
    want = np.full((S, H, 1, 1), 7.0)
    for s in range(S):
        project(PolicyParams(raw[s]), KAPPA, GAMMA, KAPPA_B, out=want[s])
    low, high = scalar_stack_bounds(S, H, KAPPA, GAMMA, KAPPA_B)
    assert low.shape == high.shape == (S, H, 1, 1)
    assert low.flags.c_contiguous and high.flags.c_contiguous
    assert high.tobytes() == np.tile(radii, S).tobytes()
    assert low.tobytes() == np.tile(-radii, S).tobytes()
    around = np.full((S, H + 2, 1, 1), 7.0)
    out = around[:, 1:-1] if layout == "strided" else np.full((S, H, 1, 1), 7.0)
    before = [a.tobytes() for a in (raw, low, high)]
    assert project_scalar_stack(raw, low, high, out) is out
    assert out.tobytes() == want.tobytes()
    assert [a.tobytes() for a in (raw, low, high)] == before
    if layout == "strided":
        assert np.all(around[:, [0, -1]] == 7.0)
    assert np.isnan(out).any() and np.signbit(out[out == 0.0]).any()


# Scalar blocks at the clip's edge cases, one kind per seed row at every block of
# radius r: ±0, ±inf, NaN of either sign with a payload, subnormals, ±r exactly,
# one ulp beyond and one ulp inside.
_EDGE_BLOCKS = textwrap.dedent("""
    import numpy as np
    from onlinectrl.policy import admissible_radii
    H, radius = 8, (1.0, 0.5, 1.0)
    r = admissible_radii(H, *radius)
    nans = np.array([0x7ff8000000000123, 0xfff8000000000456], dtype=np.uint64).view(float)
    kinds = [0.0, -0.0, np.inf, -np.inf, *nans, 5e-324, -5e-324, 1e-310, -1e-310,
             r, -r, np.nextafter(r, np.inf), np.nextafter(-r, -np.inf),
             np.nextafter(r, 0.0), np.nextafter(-r, 0.0)]
    raw = np.stack([np.broadcast_to(k, (H,)) for k in kinds])[:, :, None, None]
""")
_EDGE_CLIPS = textwrap.dedent("""
    from onlinectrl.policy import PolicyParams, project, project_scalar_stack, scalar_stack_bounds
    low, high = scalar_stack_bounds(len(raw), H, *radius)
    print(project_scalar_stack(raw, low, high, np.empty_like(raw)).tobytes().hex())
    for row in raw:
        print(project(PolicyParams(row), *radius).blocks.tobytes().hex(),
              project(PolicyParams(row), *radius, out=np.empty_like(row)).tobytes().hex())
""")


def test_both_scalar_clips_equal_max_then_min_bitwise():
    """project's 1x1 branch, with and without out, and project_scalar_stack
    give the bits of np.minimum(np.maximum(raw, -r), r) on every edge case,
    and keep a NaN's sign and payload."""
    ns = {}
    exec(_EDGE_BLOCKS, ns)
    raw, H, radius = ns["raw"], ns["H"], ns["radius"]
    if clip_ufunc is not None:
        assert policy._clip is clip_ufunc
    r = admissible_radii(H, *radius)[:, None, None]
    want = np.minimum(np.maximum(raw, -r), r)
    low, high = scalar_stack_bounds(len(raw), H, *radius)
    out = np.empty_like(raw)
    assert project_scalar_stack(raw, low, high, out) is out
    assert out.tobytes() == want.tobytes()
    for row, want_row in zip(raw, want):
        assert project(PolicyParams(row), *radius).blocks.tobytes() == want_row.tobytes()
        into = np.empty_like(row)
        assert project(PolicyParams(row), *radius, out=into) is into
        assert into.tobytes() == want_row.tobytes()
    assert want[4:6].tobytes() == raw[4:6].tobytes()  # the NaN rows pass through
    assert np.signbit(want[1]).all() and (want[1] == 0.0).all()


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


def _svd_clip(blocks, radii):
    U, s, Vt = np.linalg.svd(blocks, full_matrices=False)
    return np.einsum("hij,hj,hjk->hik", U, np.minimum(s, radii[:, None]), Vt)


def _block_with_spectrum(rng, n_u, n_x, s):
    """U diag(s) V' with random orthonormal U (n_u, k) and V (n_x, k)."""
    k = min(n_u, n_x)
    U = np.linalg.qr(rng.standard_normal((n_u, k)))[0]
    V = np.linalg.qr(rng.standard_normal((n_x, k)))[0]
    return (U * s[:k]) @ V.T


# singular values in units of the block's radius, padded with zeros
SPECTRA = {
    "rank1_inside": [0.5],
    "rank1_on": [1.0],
    "rank1_out": [3.0],
    "rank1_far": [1e3],
    "rank_deficient": [2.0, 1.5],
    "repeated_on": [1.0, 1.0, 1.0, 1.0],
    "repeated_out": [2.0, 2.0, 2.0, 2.0],
    "repeated_straddle": [1.0 + 1e-9, 1.0 + 1e-9, 1.0 - 1e-9, 1.0 - 1e-9],
    "pair_straddle": [1.5, 1.5, 0.5, 0.5],
    "one_out_rest_on": [10.0, 1.0, 1.0, 0.0],
    "all_inside": [0.9, 0.5, 0.1, 0.05],
}


@pytest.mark.parametrize("n_u,n_x", [(2, 4), (4, 2), (3, 3), (1, 3), (3, 1)],
                         ids=["wide", "tall", "square", "row", "column"])
def test_project_matches_full_svd_clipping(n_u, n_x):
    """Radii 10, 1, ..., 1e-10 (mimo4-heavytail's run from 19 to 7e-10);
    each spectrum is placed on every block in units of its radius."""
    rng = np.random.default_rng(59 + 7 * n_u + n_x)
    H, kappa, gamma, kappa_B = 12, 1.0, 0.9, 5.0
    radii = admissible_radii(H, kappa, gamma, kappa_B)
    np.testing.assert_allclose(radii[[0, -1]], [10.0, 1e-10])
    tol = 1e-12 * np.maximum(1.0, radii)[:, None, None]
    n_fixed = 0
    for name, units in SPECTRA.items():
        s = np.zeros(min(n_u, n_x))
        s[:min(len(units), len(s))] = units[:len(s)]
        raw = np.stack([_block_with_spectrum(rng, n_u, n_x, r * s) for r in radii])
        proj = project(PolicyParams(raw), kappa, gamma, kappa_B).blocks
        assert np.all(np.abs(proj - _svd_clip(raw, radii)) <= tol), name
        # ||G||_F < r^2 for the Gram G on the smaller side: returned as is
        gram = raw @ raw.transpose(0, 2, 1) if n_u <= n_x else raw.transpose(0, 2, 1) @ raw
        fixed = np.linalg.norm(gram, axis=(1, 2)) < (1.0 - 1e-9) * radii ** 2
        assert np.array_equal(proj[fixed], raw[fixed]), name
        n_fixed += fixed.sum()
        again = project(PolicyParams(proj), kappa, gamma, kappa_B).blocks
        assert np.all(np.abs(again - proj) <= tol), name
    assert n_fixed >= 2 * H  # rank1_inside and all_inside at least
    # generic blocks far outside, and a mix of inside and outside
    raw = 3.0 * radii[:, None, None] * rng.standard_normal((H, n_u, n_x))
    raw[::2] *= 0.05
    proj = project(PolicyParams(raw), kappa, gamma, kappa_B).blocks
    assert np.all(np.abs(proj - _svd_clip(raw, radii)) <= tol)


def test_control_input_matches_naive_sum():
    """u = -K x + sum_i M^[i-1] w_{t-i} from row 0 of disturbance_action,
    whose row j is the same sum lagged by j, for one seed and over a seed axis."""
    rng = np.random.default_rng(53)
    for _ in range(15):
        H, n_u, n_x = (int(rng.integers(1, 4)) for _ in range(3))
        K = rng.standard_normal((n_u, n_x))
        M = PolicyParams(rng.standard_normal((H, n_u, n_x)))
        x = rng.standard_normal(n_x)
        past = [rng.standard_normal(n_x) for _ in range(2 * H + 2)]
        window = np.stack(past[::-1])  # window[m] = w_{t-1-m}
        hank = np.stack([window[j:j + H].ravel() for j in range(H + 2)])
        dap = disturbance_action(M.blocks, hank)
        u = control_input(K, x, dap[0])
        expect = -K @ x
        for i in range(1, H + 1):  # u += M^[i-1] w_{t-i}
            expect = expect + M.blocks[i - 1] @ past[-i]
        np.testing.assert_allclose(u, expect, atol=1e-12)
        for j in range(H + 2):
            lagged = sum(M.blocks[m] @ past[-1 - j - m] for m in range(H))
            np.testing.assert_allclose(dap[j], lagged, atol=1e-12)
        seeds = disturbance_action(np.stack([M.blocks, -M.blocks]), np.stack([hank, hank]))
        np.testing.assert_allclose(control_input(K, np.stack([x, x]), seeds[:, 0]),
                                   [expect, -expect - 2 * K @ x], atol=1e-12)


def test_comparator_params_construction():
    A = np.array([[0.5]])
    B = np.array([[1.0]])
    K = np.array([[0.5]])
    K_star = np.array([[0.3]])
    H = 6
    M = comparator_params(make_system(A, B), K, K_star, H, kappa=1.0, gamma=0.5)
    for i in range(H):
        # (K - K*) (A - B K*)^i
        np.testing.assert_allclose(M.blocks[i], 0.2 * 0.2 ** i, atol=1e-14)
    assert is_admissible(M, 1.0, 0.5, 1.0)


def _comparator_blocks_per_block(K, K_star, A, B, H):
    """Reference construction: one product per block, powers by recurrence."""
    A_star = A - B @ K_star
    diff = K - K_star
    blocks = np.empty((H, K.shape[0], K.shape[1]))
    P = np.eye(A_star.shape[0])
    for i in range(H):
        blocks[i] = diff @ P
        P = P @ A_star
    return blocks


def test_comparator_params_match_per_block_loop_bitwise():
    rng = np.random.default_rng(41)
    for n_x, n_u in [(1, 1), (1, 3), (3, 1), (2, 2), (4, 4), (3, 2)]:
        B = rng.uniform(-1.0, 1.0, size=(n_x, n_u))
        K_star = 0.3 * rng.standard_normal((n_u, n_x))
        A = np.diag(rng.uniform(-0.8, 0.8, size=n_x)) + B @ K_star
        K = K_star + 0.1 * rng.standard_normal((n_u, n_x))
        for H in (1, 7, 31):
            M = comparator_params(make_system(A, B), K, K_star, H, kappa=10.0, gamma=0.1)
            assert M.blocks.tobytes() == _comparator_blocks_per_block(
                K, K_star, A, B, H).tobytes(), (n_x, n_u, H)


def test_comparator_params_rejects_inadmissible():
    # large gain gap: block 0 spectral norm exceeds 2 kappa_B kappa^3
    A = np.array([[0.0]])
    B = np.array([[1.0]])
    with pytest.raises(RuntimeError):
        comparator_params(make_system(A, B), np.array([[2.4]]), np.array([[-0.3]]), 4,
                          kappa=1.0, gamma=0.5)


@pytest.mark.parametrize("n_u,n_x", [(1, 1), (2, 3), (4, 4)])
def test_control_input_out_equals_the_returned_input(n_u, n_x):
    """control_input(out=) returns out holding the returned form's bits, for
    one seed and for three: into a fresh array and into row t of a (T, S, n_u)
    record, the other rows untouched, from dap's row 0 viewed in its buffer."""
    rng = np.random.default_rng(59 + n_u + n_x)
    K = rng.standard_normal((n_u, n_x))
    for S in (1, 3):
        x = rng.standard_normal((S, n_x))
        dap0 = rng.standard_normal((S, 5, n_u))[:, 0]
        want = control_input(K, x, dap0)
        us = np.full((4, S, n_u), 7.0)
        for out in (np.empty((S, n_u)), us[2]):
            assert control_input(K, x, dap0, out=out) is out
            assert out.tobytes() == want.tobytes()
        assert np.all(us[[0, 1, 3]] == 7.0)
        solo = np.empty(n_u)
        assert control_input(K, x[0], dap0[0], out=solo) is solo
        assert solo.tobytes() == control_input(K, x[0], dap0[0]).tobytes()


def test_sample_admissible_deterministic_per_seed():
    a = sample_admissible(np.random.default_rng(99), 3, 2, 2, KAPPA, GAMMA, KAPPA_B)
    b = sample_admissible(np.random.default_rng(99), 3, 2, 2, KAPPA, GAMMA, KAPPA_B)
    np.testing.assert_array_equal(a.blocks, b.blocks)


def _project_reference(M_raw, kappa, gamma, kappa_B):
    """The projection through np.linalg.eigh on boolean-masked copies: the
    reference project is held to bit for bit."""
    blocks = M_raw.blocks
    radii = admissible_radii(M_raw.H, kappa, gamma, kappa_B)
    if blocks.shape[1] == 1 and blocks.shape[2] == 1:
        return PolicyParams(np.minimum(np.maximum(blocks, -radii[:, None, None]),
                                       radii[:, None, None]))
    wide = blocks if blocks.shape[1] <= blocks.shape[2] else blocks.transpose(0, 2, 1)
    gram = wide @ wide.transpose(0, 2, 1).copy()
    big = np.einsum("hij,hij->h", gram, gram) > radii ** 4
    if not big.any():
        return M_raw
    lam, V = np.linalg.eigh(gram[big])
    root = np.maximum(np.sqrt(np.maximum(lam, 0.0)), 1e-300)
    shrink = np.minimum(1.0, radii[big][:, None] / root) - 1.0
    Mb = wide[big]
    clipped = Mb + (V * shrink[:, None, :]) @ (V.transpose(0, 2, 1) @ Mb)
    out = blocks.copy()
    out[big] = clipped if wide is blocks else clipped.transpose(0, 2, 1)
    return PolicyParams(out)


def _assert_project_matches_reference(raw, kappa, gamma, kappa_B):
    """project equals the reference bit for bit, writes nothing into its
    input and returns the input itself when no block clips. Written into
    out, a fresh array or one seed's strided blocks of a seed-major stack
    as run_episode passes them, it gives the same bits."""
    kept = raw.copy()
    M, M_ref = PolicyParams(raw), PolicyParams(raw.copy())
    got = project(M, kappa, gamma, kappa_B)
    want = _project_reference(M_ref, kappa, gamma, kappa_B)
    assert np.array_equal(got.blocks, want.blocks, equal_nan=True)
    assert np.array_equal(raw, kept, equal_nan=True)
    assert (got is M) == (want is M_ref)
    H, n_u, n_x = raw.shape
    seed_major = np.full((3, n_u, H, n_x), 7.0).swapaxes(1, 2)
    for out in (np.empty_like(raw), seed_major[1]):
        assert project(M, kappa, gamma, kappa_B, out) is out
        assert np.array_equal(out, want.blocks, equal_nan=True)
        assert np.array_equal(raw, kept, equal_nan=True)
    assert np.all(seed_major[[0, 2]] == 7.0)
    return got


@pytest.mark.parametrize("n_u,n_x", [(2, 4), (4, 2), (3, 3), (1, 3), (3, 1), (1, 1)],
                         ids=["wide", "tall", "square", "row", "column", "scalar"])
def test_project_matches_reference_bit_for_bit(n_u, n_x):
    """Every SPECTRA case on every block, then random stacks where no block,
    every block or some blocks clip, in C order and as the strided per-seed
    view the learner passes."""
    rng = np.random.default_rng(71 + 7 * n_u + n_x)
    H, kappa, gamma, kappa_B = 12, 1.0, 0.9, 5.0
    radii = admissible_radii(H, kappa, gamma, kappa_B)[:, None, None]
    for name, units in SPECTRA.items():
        s = np.zeros(min(n_u, n_x))
        s[:min(len(units), len(s))] = units[:len(s)]
        raw = np.stack([_block_with_spectrum(rng, n_u, n_x, r * s) for r in radii[:, 0, 0]])
        _assert_project_matches_reference(raw, kappa, gamma, kappa_B)
    for factor in (0.05, 3.0, None):
        for _ in range(10):
            scale = rng.choice([0.05, 3.0], size=(H, 1, 1)) if factor is None else factor
            raw = scale * radii * rng.standard_normal((H, n_u, n_x)) / np.sqrt(n_u * n_x)
            got = _assert_project_matches_reference(raw, kappa, gamma, kappa_B)
            if factor == 0.05 and n_u * n_x > 1:
                assert got.blocks is raw
            seed_major = np.zeros((2, n_u, H, n_x)).swapaxes(1, 2)  # as in run_episode
            seed_major[1] = raw
            _assert_project_matches_reference(seed_major[1], kappa, gamma, kappa_B)


def test_project_overflow_gives_the_reference_nans_and_warning():
    """A 1e200 entry overflows the block's Gram matrix: the same NaN blocks
    and the same RuntimeWarning as the reference, with or without out."""
    raw = np.tile(np.array([[1.0, 2.0, 0.5], [3.0, 4.0, -1.0]]), (4, 1, 1))
    raw[1, 0, 1] = 1e200
    results = []
    for fn in (project, _project_reference,
               lambda M, *radius: project(M, *radius, np.empty_like(raw))):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = fn(PolicyParams(raw.copy()), KAPPA, GAMMA, KAPPA_B)
        results.append((getattr(out, "blocks", out),
                        [(w.category, str(w.message)) for w in caught]))
    (got, got_warn), (want, want_warn), (into, into_warn) = results
    assert np.isnan(got[1]).any() and not np.isnan(got[[0, 2, 3]]).any()
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(into, want, equal_nan=True)
    assert got_warn == want_warn == into_warn and got_warn
    assert all(category is RuntimeWarning for category, _ in got_warn)


@pytest.mark.skipif(eigh_lo is None, reason="this numpy has no eigh_lo gufunc")
def test_direct_eigh_gufunc_equals_np_linalg_eigh():
    """project calls the gufunc behind np.linalg.eigh directly; a numpy that
    moves or changes it fails here instead of changing results."""
    rng = np.random.default_rng(83)
    for n in range(1, 7):
        for k in (1, 2, 5, 18, 40):
            A = rng.standard_normal((k, n, n + int(rng.integers(0, 3))))
            gram = A @ A.transpose(0, 2, 1)
            lam, V = eigh_lo(gram, signature="d->dd")
            want_lam, want_V = np.linalg.eigh(gram)
            assert np.array_equal(lam, want_lam) and np.array_equal(V, want_V)


@pytest.mark.skipif(c_einsum is None, reason="this numpy has no c_einsum")
def test_direct_einsum_equals_np_einsum():
    """project's Frobenius test and the comparator's replay call np.einsum's C
    entry directly; a numpy that moves or changes it fails here instead of
    changing results. Both subscripts, the replay's written into out."""
    assert policy._einsum is c_einsum
    rng = np.random.default_rng(97)
    for c, n in ((22, 1), (4, 4), (3, 2)):
        A, x = rng.standard_normal((c, n, n)), rng.standard_normal((c, n))
        got, want = np.empty((c, n)), np.empty((c, n))
        assert c_einsum("cxy,cy->cx", A, x, out=got) is got
        np.einsum("cxy,cy->cx", A, x, out=want)
        assert got.tobytes() == want.tobytes()
    for k, n in ((1, 2), (18, 4), (40, 3)):
        gram = rng.standard_normal((k, n, n))
        assert (c_einsum("hij,hij->h", gram, gram).tobytes()
                == np.einsum("hij,hij->h", gram, gram).tobytes())


_CLIPPING_STACKS = textwrap.dedent("""
    import numpy as np
    from onlinectrl.policy import PolicyParams, project
    rng = np.random.default_rng(89)
    for shape in ((12, 3, 3), (12, 2, 4)):
        raw = PolicyParams(30.0 * rng.standard_normal(shape))
        print(project(raw, 1.0, 0.9, 5.0).blocks.tobytes().hex())
""")


@pytest.mark.skipif(eigh_lo is None, reason="every test here already runs the fallback")
def test_project_falls_back_to_np_linalg_eigh_without_the_gufunc():
    """A numpy without the private eigh_lo still imports the package, and
    project on clipping 3x3 and 2x4 stacks gives the in-process bits."""
    src = str(Path(policy.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    # the name is gone while onlinectrl imports, and back for np.linalg.eigh
    removed = ("import numpy.linalg._umath_linalg as gufuncs\n"
               "eigh_lo = gufuncs.eigh_lo\n"
               "del gufuncs.eigh_lo\n"
               "import onlinectrl.policy\n"
               "gufuncs.eigh_lo = eigh_lo\n"
               "assert onlinectrl.policy._eigh is not eigh_lo\n")
    run = subprocess.run([sys.executable, "-c", removed + _CLIPPING_STACKS], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    here = io.StringIO()
    with contextlib.redirect_stdout(here):
        exec(_CLIPPING_STACKS, {})
    assert len(here.getvalue().split()) == 2 and run.stdout == here.getvalue()


_REPLAY = textwrap.dedent("""
    from onlinectrl.comparator import _states
    rng = np.random.default_rng(91)
    for c, n in ((22, 1), (4, 4)):
        A = 0.3 * rng.standard_normal((c, n, n))
        print(_states(A, rng.standard_normal((64, c, n))).tobytes().hex())
""")


@pytest.mark.skipif(c_einsum is None, reason="every test here already runs the fallback")
def test_einsum_falls_back_to_np_einsum_without_the_c_entry():
    """A numpy without the private c_einsum still imports the package, and
    project on clipping stacks and the comparator's state replay give the
    in-process bits through np.einsum."""
    src = str(Path(policy.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    # np.einsum keeps its own reference; the name is gone while onlinectrl imports
    removed = ("import numpy as np\n"
               "import numpy._core._multiarray_umath as umath\n"
               "del umath.c_einsum\n"
               "import onlinectrl.comparator, onlinectrl.policy\n"
               "assert onlinectrl.policy._einsum is np.einsum\n")
    run = subprocess.run([sys.executable, "-c", removed + _CLIPPING_STACKS + _REPLAY],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    here = io.StringIO()
    with contextlib.redirect_stdout(here):
        exec(_CLIPPING_STACKS + _REPLAY, {})
    assert len(here.getvalue().split()) == 4 and run.stdout == here.getvalue()


_SCALAR_EPISODE = textwrap.dedent("""
    from onlinectrl.costs import adversarial_convex_schedule
    from onlinectrl.learner import LearningRateSchedule, run_episode
    from onlinectrl.noise import NoiseProcess
    from onlinectrl.stability import certify
    from onlinectrl.system import make_system
    sys_, K = make_system([[0.6]], [[1.0]]), np.array([[0.4]])
    lr = LearningRateSchedule("strongly_convex", alpha_tilde=0.37)
    for rec in run_episode(sys_, K, certify(sys_, K, 1.0, 0.8),
                           [adversarial_convex_schedule(7 + s, 30, 1, 1) for s in range(3)],
                           [NoiseProcess("laplace", 2.0, dim=1, seed=s) for s in range(3)],
                           lr, 30, H=5):
        print(rec.M_final.blocks.tobytes().hex(), rec.us.tobytes().hex())
""")


@pytest.mark.skipif(clip_ufunc is None, reason="every test here already runs the fallback")
def test_clip_falls_back_to_max_then_min_without_the_ufunc():
    """A numpy without the private clip ufunc still imports the package, and
    both scalar clips on every edge case, and a clipping scalar lockstep
    episode, give the in-process bits through np.maximum and np.minimum."""
    src = str(Path(policy.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    # the name is gone while onlinectrl imports, and back for np.clip
    removed = ("import numpy._core.umath as umath\n"
               "clip = umath.clip\n"
               "del umath.clip\n"
               "import onlinectrl.policy\n"
               "umath.clip = clip\n"
               "assert onlinectrl.policy._clip is not clip\n")
    script = _EDGE_BLOCKS + _EDGE_CLIPS + _SCALAR_EPISODE
    run = subprocess.run([sys.executable, "-c", removed + script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    here = io.StringIO()
    with contextlib.redirect_stdout(here):
        exec(script, {})
    assert len(here.getvalue().splitlines()) == 1 + 16 + 3 and run.stdout == here.getvalue()
