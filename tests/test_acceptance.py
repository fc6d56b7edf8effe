"""Acceptance gate: one test per numbered criterion, stated tolerances only.

The scaling studies (criteria 7-10) share session fixtures so each batch
runs once; everything is single-process and seeded.
"""
import math
import os
import time

import numpy as np
import pytest

from onlinectrl.comparator import best_fixed_K, mstar_rollout
from onlinectrl.costs import constant_schedule, quadratic_cost
from onlinectrl.harness import build_experiment, compute_theory_constants, run_batch
from onlinectrl.noise import NoiseProcess, sample_episode
from onlinectrl.policy import (PolicyParams, admissible_radii,
                               comparator_params, horizon_H, is_admissible,
                               project, sample_admissible)
from onlinectrl.stability import certify, power_decay_check
from onlinectrl.surrogate import SurrogateKernel, psi, state_expansion
from onlinectrl.system import make_system, spectral_norm


# ---------------------------------------------------------------- criterion 1

def test_criterion_01_state_expansion_identity():
    """Truncated-memory expansion reproduces the simulated state exactly."""
    rng = np.random.default_rng(20240101)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(20):
        n_x = int(rng.integers(1, 4))
        n_u = int(rng.integers(1, 4))
        H = int(rng.integers(1, 5))
        T = int(rng.integers(8, 61))
        A_K = np.diag(rng.uniform(-0.45, 0.45, size=n_x))
        B = rng.uniform(-1.0, 1.0, size=(n_x, n_u))
        K = 0.2 * rng.standard_normal((n_u, n_x))
        sys_ = make_system(A_K + B @ K, B)
        M_seq = [sample_admissible(rng, H, n_u, n_x, 2.0, 0.5, sys_.kappa_B)
                 for _ in range(T)]
        ws = [rng.standard_normal(n_x) for _ in range(T)]

        xs = [np.zeros(n_x)]
        for t in range(T):
            u = -K @ xs[t]
            for i in range(1, H + 1):
                if t - i >= 0:
                    u = u + M_seq[t].blocks[i - 1] @ ws[t - i]
            xs.append(sys_.A @ xs[t] + sys_.B @ u + ws[t])

        noise = np.stack(ws)
        for t in range(1, T + 1):
            for h in range(t):
                got = state_expansion(sys_, K, M_seq, noise, t, h, H)
                worst = max(worst, float(np.max(np.abs(got - xs[t]))))
    elapsed = time.monotonic() - t0
    print(f"criterion 1: max abs error {worst:.3e}, {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 10.0


# ---------------------------------------------------------------- criterion 2

def test_criterion_02_gradient_oracle():
    """Analytic surrogate gradient against central differences."""
    rng = np.random.default_rng(20240102)
    t0 = time.monotonic()
    step = 1e-6
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        H = int(rng.integers(1, 7))
        A_K = np.diag(rng.uniform(-0.45, 0.45, size=n))
        K = 0.2 * rng.standard_normal((n, n))
        sys_ = make_system(A_K + K, np.eye(n))
        kern = SurrogateKernel(sys_, K, H)
        S = rng.standard_normal((n, n))
        Q = S @ S.T + 0.1 * np.eye(n)
        S = rng.standard_normal((n, n))
        R = S @ S.T + 0.1 * np.eye(n)
        cost = (Q, R)
        M = sample_admissible(rng, H, n, n, 1.0, 0.5, 1.0)
        W = rng.standard_normal((2 * H + 1, n))

        G, _, _ = kern.grad(cost, M.blocks, W)
        G_fd = np.zeros_like(G)
        for idx in np.ndindex(G.shape):
            d = np.zeros_like(G)
            d[idx] = step
            G_fd[idx] = (kern.value(cost, M.blocks + d, W)
                         - kern.value(cost, M.blocks - d, W)) / (2 * step)
        rel = np.linalg.norm(G - G_fd) / max(np.linalg.norm(G_fd), 1e-12)
        worst = max(worst, float(rel))
    elapsed = time.monotonic() - t0
    print(f"criterion 2: max rel error {worst:.3e}, {elapsed:.1f}s")
    assert worst <= 1e-6
    assert elapsed < 30.0


# ---------------------------------------------------------------- criterion 3

def test_criterion_03_projection_oracle():
    """Blockwise clipping beats dense random search; firm nonexpansiveness."""
    rng = np.random.default_rng(20240103)
    t0 = time.monotonic()
    H, n_u, n_x = 3, 2, 2
    kappa, gamma, kappa_B = 1.2, 0.45, 1.0
    radii = admissible_radii(H, kappa, gamma, kappa_B)
    N = 10_000
    for trial in range(100):
        scale = 10.0 ** rng.uniform(-1.0, 1.0)
        raw = PolicyParams(scale * rng.standard_normal((H, n_u, n_x)))
        proj = project(raw, kappa, gamma, kappa_B)
        d_proj = float(np.linalg.norm(proj.blocks - raw.blocks))

        cand = rng.standard_normal((N, H, n_u, n_x))
        tops = np.linalg.svd(cand, compute_uv=False)[..., 0]      # (N, H)
        frac = rng.uniform(0.0, 1.0, size=(N, H))
        cand *= (radii[None, :] * frac / np.maximum(tops, 1e-300))[..., None, None]
        dists = np.sqrt(((cand - raw.blocks[None]) ** 2).sum(axis=(1, 2, 3)))
        assert dists.min() >= d_proj - 1e-9, f"trial {trial}"

        again = project(proj, kappa, gamma, kappa_B)
        assert float(np.linalg.norm(again.blocks - proj.blocks)) <= 1e-12

    for _ in range(100):
        a = PolicyParams(3.0 * rng.standard_normal((H, n_u, n_x)))
        b = PolicyParams(3.0 * rng.standard_normal((H, n_u, n_x)))
        pa = project(a, kappa, gamma, kappa_B)
        pb = project(b, kappa, gamma, kappa_B)
        lhs = float(np.linalg.norm(pa.blocks - pb.blocks))
        rhs = float(np.linalg.norm(a.blocks - b.blocks))
        assert lhs <= rhs + 1e-12
    elapsed = time.monotonic() - t0
    print(f"criterion 3: {elapsed:.1f}s")
    assert elapsed < 20.0


# ---------------------------------------------------------------- criterion 4

def test_criterion_04_certificates_satisfy_definition():
    """Issued certificates meet every norm bound and the power decay."""
    rng = np.random.default_rng(20240104)
    issued = 0
    while issued < 20:
        n = int(rng.integers(1, 4))
        raw = rng.standard_normal((n, n))
        rho = max(abs(np.linalg.eigvals(raw)))
        A_K = raw * (rng.uniform(0.15, 0.8) / max(rho, 1e-12))
        lam, V = np.linalg.eig(A_K)
        V = V / np.linalg.norm(V, axis=0, keepdims=True)
        if np.linalg.cond(V) > 1e6:
            continue
        B = np.eye(n) + 0.3 * rng.standard_normal((n, n))
        K = 0.3 * rng.standard_normal((n, n))
        sys_ = make_system(A_K + B @ K, B)
        gamma = 0.9 * (1.0 - max(abs(lam)))
        kappa = 1.05 * max(1.0, spectral_norm(K), spectral_norm(V),
                           spectral_norm(np.linalg.inv(V)))
        cert = certify(sys_, K, kappa, gamma)
        issued += 1

        assert spectral_norm(cert.P) <= (1.0 - cert.gamma) + 1e-9
        assert spectral_norm(K) <= cert.kappa + 1e-9
        assert spectral_norm(cert.Q) <= cert.kappa + 1e-9
        assert spectral_norm(cert.Q_inv) <= cert.kappa + 1e-9
        recon = cert.Q @ cert.P @ cert.Q_inv
        assert np.max(np.abs(recon - A_K)) <= 1e-9

        i_max = math.ceil(10.0 / cert.gamma)
        chk = power_decay_check(sys_, K, cert, i_max=i_max)
        assert np.all(chk["norms"] <= chk["bounds"] + 1e-9)
    print(f"criterion 4: {issued} certificates verified")


# ---------------------------------------------------------------- criterion 5

def test_criterion_05_transfer_matrix_norm_bound():
    """Noise-to-state transfer matrices obey the geometric envelope."""
    assert horizon_H(100, 0.5) == 19
    H = 19
    kappa, gamma = 1.0, 0.5
    A_K = np.diag([0.3, -0.45])
    K = np.array([[0.2, 0.1], [0.0, 0.3]])
    sys_ = make_system(A_K + K, np.eye(2))
    cert = certify(sys_, K, kappa, gamma)
    rng = np.random.default_rng(20240105)
    checked = 0
    for _ in range(10):
        seq = [sample_admissible(rng, H, 2, 2, kappa, gamma, sys_.kappa_B)
               for _ in range(H + 1)]
        for t in (25, 60, 99):
            for h in (0, 5, 12, 19):
                for i in range(H + h + 1):
                    mat = psi(sys_, K, seq[:h + 1], t=t, i=i, h=h, H=H)
                    bound = ((2 * H + 1) * sys_.kappa_B ** 2 * cert.kappa ** 5
                             * (1.0 - gamma) ** (i - 1))
                    assert spectral_norm(mat) <= bound + 1e-9, (t, i, h)
                    checked += 1
    print(f"criterion 5: {checked} transfer norms within the envelope")


# ---------------------------------------------------------------- criterion 6

def test_criterion_06_comparator_params_admissible_and_gap_shrinks():
    """Induced comparator blocks stay in the class; truncation gap decays in H."""
    rng = np.random.default_rng(20240106)
    for _ in range(20):
        n = int(rng.integers(1, 3))
        A = np.diag(rng.uniform(-0.9, 0.9, size=n))
        B = np.diag(rng.uniform(0.5, 1.5, size=n))
        A_K1 = np.diag(rng.uniform(-0.8, 0.8, size=n))
        A_K2 = np.diag(rng.uniform(-0.8, 0.8, size=n))
        K = np.linalg.solve(B, A - A_K1)
        K_star = np.linalg.solve(B, A - A_K2)
        rho = max(np.max(np.abs(np.diag(A_K1))), np.max(np.abs(np.diag(A_K2))))
        gamma = 0.9 * (1.0 - rho)
        kappa = 1.05 * max(1.0, spectral_norm(K), spectral_norm(K_star))
        sys_ = make_system(A, B)
        certify(sys_, K, kappa, gamma)
        certify(sys_, K_star, kappa, gamma)
        M_star = comparator_params(sys_, K, K_star, 12, kappa, gamma)
        assert is_admissible(M_star, kappa, gamma, sys_.kappa_B)

    # 1-D gap study: imitation error decays geometrically with the memory H
    sys_ = make_system(np.array([[0.5]]), np.array([[1.0]]))
    K = np.array([[0.5]])
    K_star = np.array([[0.1]])
    kappa, gamma = 1.0, 0.6
    T = 500
    schedule = constant_schedule(quadratic_cost(np.eye(1), np.eye(1)), T)
    medians = {}
    comp_costs = []
    # one draw per seed, shared by every H; bit-identical to sample(proc, t) row by row
    noises = [sample_episode(NoiseProcess("gaussian", 1.0, dim=1, seed=9000 + s), T)
              for s in range(30)]
    for H in (2, 5, 10, 20):
        gaps = []
        for ws in noises:
            mimic = mstar_rollout(sys_, K, K_star, schedule, ws, H, kappa, gamma)
            target = best_fixed_K(sys_, [K_star], schedule, ws)
            gaps.append(abs(mimic.cumulative_cost - target.cumulative_cost))
            if H == 20:
                comp_costs.append(target.cumulative_cost)
        medians[H] = float(np.median(gaps))
    print(f"criterion 6: median gaps {medians}")
    assert medians[2] > medians[5] > medians[10] > medians[20]
    assert medians[20] < 0.01 * float(np.median(comp_costs))


# ------------------------------------------------------- scaling-study setup

def _scaling_doc(cost, noise, kind):
    return {
        "system": {"A": [[0.5]], "B": [[1.0]]},
        "gain": {"K": [[0.5]], "kappa": 1.0, "gamma": 0.9},
        "cost": cost,
        "noise": noise,
        "schedule": {"kind": kind},
        "horizons": [256, 512, 1024, 2048, 4096],
        "seeds": list(range(20)),
        "comparator": {"grid": {"min": 0.4, "max": 0.6, "count": 11}},
        "delta": 0.1,
    }


C7_DOC = _scaling_doc({"family": "random_quadratic", "seed": 7},
                      {"family": "gaussian", "scale": 1.0, "seed": 1234},
                      "constant_sqrtT")
C8_DOC = _scaling_doc({"family": "random_quadratic", "seed": 7},
                      {"family": "student_t", "scale": 1.0, "seed": 1234,
                       "df": 5.0},
                      "constant_sqrtT")
C9_SC_DOC = _scaling_doc({"family": "quadratic", "Q": [[1.0]], "R": [[1.0]]},
                         {"family": "gaussian", "scale": 1.0, "seed": 1234},
                         "strongly_convex")
C9_SQ_DOC = _scaling_doc({"family": "quadratic", "Q": [[1.0]], "R": [[1.0]]},
                         {"family": "gaussian", "scale": 1.0, "seed": 1234},
                         "constant_sqrtT")


@pytest.fixture(scope="session")
def crit7_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("crit7"))
    t0 = time.monotonic()
    report = run_batch(build_experiment(C7_DOC), out_dir=out)
    return report, out, time.monotonic() - t0


@pytest.fixture(scope="session")
def crit8_run():
    return run_batch(build_experiment(C8_DOC))


@pytest.fixture(scope="session")
def crit9_runs():
    sc = run_batch(build_experiment(C9_SC_DOC))
    sq = run_batch(build_experiment(C9_SQ_DOC))
    return sc, sq


def _medians(report):
    return {r["T"]: r["regret_median"] for r in report.rows}


# ---------------------------------------------------------------- criterion 7

def test_criterion_07_sqrt_schedule_scaling(crit7_run):
    report, _, elapsed = crit7_run
    med = _medians(report)
    print(f"criterion 7: medians {med}, slope={report.slope:.4f}, "
          f"{elapsed:.2f}s")
    assert elapsed < 300.0
    assert report.slope is not None
    assert report.slope <= 0.85


# ---------------------------------------------------------------- criterion 8

def test_criterion_08_heavy_tail_scaling(crit8_run):
    report = crit8_run
    med = _medians(report)
    print(f"criterion 8: medians {med}, slope={report.slope:.4f}, "
          f"divergences={len(report.divergences)}")
    assert not report.failed
    assert report.slope is not None
    assert report.slope <= 0.9


# ---------------------------------------------------------------- criterion 9

def test_criterion_09_strongly_convex_scaling(crit9_runs):
    sc, sq = crit9_runs
    med_sc, med_sq = _medians(sc), _medians(sq)
    print(f"criterion 9: strongly-convex medians {med_sc}")
    print(f"criterion 9: sqrt-schedule medians {med_sq}")
    assert all(v > 0 for v in med_sc.values())
    # sublinear at the largest horizon: doubling T must not double regret
    assert med_sc[4096] / med_sc[2048] < 2.0
    # grows slower than the sqrt schedule on the same instances
    for a, b in ((1024, 2048), (2048, 4096)):
        assert med_sc[b] / med_sc[a] < med_sq[b] / med_sq[a], (a, b)
    assert sc.slope is not None
    print(f"criterion 9: fitted slope {sc.slope:.4f}")
    assert sc.slope <= 0.4


# --------------------------------------------------------------- criterion 10

def test_criterion_10_byte_identical_reruns(crit7_run, tmp_path):
    _, first_dir, _ = crit7_run
    second_dir = str(tmp_path / "again")
    run_batch(build_experiment(C7_DOC), out_dir=second_dir)
    with open(os.path.join(first_dir, "scaling.csv"), "rb") as fa, \
         open(os.path.join(second_dir, "scaling.csv"), "rb") as fb:
        a, b = fa.read(), fb.read()
    print(f"criterion 10: {len(a)} CSV bytes compared")
    assert a == b


# --------------------------------------------------------------- criterion 11

def test_criterion_11_theory_constants_exact():
    doc = {
        "system": {"A": [[0.5]], "B": [[1.0]]},
        "gain": {"K": [[0.5]], "kappa": 1.0, "gamma": 0.5},
        "cost": {"family": "quadratic", "Q": [[0.5]], "R": [[0.5]]},
        "noise": {"family": "gaussian", "scale": 1.0, "seed": 0},
        "schedule": {"kind": "constant_sqrtT"},
        "horizons": [100],
        "seeds": [0],
        "comparator": {"candidates": [[[0.5]]]},
    }
    c = compute_theory_constants(build_experiment(doc))
    print(f"criterion 11: D={c.D}, alpha_tilde={c.alpha_tilde}")
    assert c.D == 8.0
    assert c.alpha_tilde == 0.25 / 36.0
