import numpy as np
import pytest

from onlinectrl.stability import (CertificationError, StabilityCertificate,
                                  _certify_stack, build_certificate, certify,
                                  make_closed_loop, power_decay_check)
from onlinectrl.system import make_system, system_from_json


def _scalar_system():
    return make_system(np.array([[0.5]]), np.array([[1.0]]))


def test_certify_scalar_deadbeat():
    sys_ = _scalar_system()
    cert = certify(sys_, np.array([[0.5]]), kappa=1.0, gamma=0.9)
    assert cert.diagonal
    assert cert.kappa == 1.0 and cert.gamma == 0.9
    # A - BK = 0, so P is the zero matrix
    assert np.linalg.norm(cert.P, 2) == 0.0


def test_certify_norm_violations_are_named():
    sys_ = _scalar_system()
    # A - BK = -0.7 passes gamma = 0.25 but ||K|| = 1.2 exceeds kappa = 1
    with pytest.raises(CertificationError) as exc:
        certify(sys_, np.array([[1.2]]), kappa=1.0, gamma=0.25)
    assert any("kappa" in v for v in exc.value.violations)
    with pytest.raises(CertificationError):
        # A - BK = 0.3 needs ||P|| <= 1 - gamma
        certify(sys_, np.array([[0.2]]), kappa=1.0, gamma=0.8)


def test_certify_rejects_bad_gamma():
    sys_ = _scalar_system()
    for gamma in (0.0, 1.5, -0.1):
        with pytest.raises((CertificationError, ValueError)):
            certify(sys_, np.array([[0.5]]), kappa=1.0, gamma=gamma)


def test_certify_defective_closed_loop_fails():
    # Jordan block: diagonalization breaks down, eigenvector matrix singular
    A = np.array([[0.5, 1.0], [0.0, 0.5]])
    sys_ = make_system(A, np.eye(2))
    with pytest.raises(CertificationError) as exc:
        certify(sys_, np.zeros((2, 2)), kappa=10.0, gamma=0.3)
    assert exc.value.reason == "defective"


def test_manual_certificate_for_jordan_block():
    # The defective loop still admits a non-diagonal witness:
    # Q = diag(1, 0.2) conjugates the Jordan block to P = [[.5,.2],[0,.5]]
    A = np.array([[0.5, 1.0], [0.0, 0.5]])
    sys_ = make_system(A, np.eye(2))
    K = np.zeros((2, 2))
    P = np.array([[0.5, 0.2], [0.0, 0.5]])
    Q = np.diag([1.0, 0.2])
    cert = build_certificate(kappa=5.0, gamma=0.35, P=P, Q=Q, A_K=A, K=K)
    assert not cert.diagonal
    np.testing.assert_array_equal(cert.Q_inv, np.linalg.inv(Q))
    cl = make_closed_loop(sys_, K, i_max=200)
    chk = power_decay_check(cl, cert, i_max=200)
    assert chk["ok"]
    assert np.all(chk["norms"] <= chk["bounds"] + 1e-9)


def test_build_certificate_rejects_wrong_witness():
    A = np.array([[0.5, 1.0], [0.0, 0.5]])
    P = np.array([[0.5, 0.2], [0.0, 0.5]])
    Q = np.diag([1.0, 0.25])  # reconstructs a different off-diagonal entry
    with pytest.raises(CertificationError):
        build_certificate(kappa=5.0, gamma=0.35, P=P, Q=Q, A_K=A,
                          K=np.zeros((2, 2)))


def test_build_certificate_lists_each_violation():
    A = np.array([[0.5, 1.0], [0.0, 0.5]])
    P = np.array([[0.5, 0.2], [0.0, 0.5]])
    Q = np.diag([1.0, 0.2])
    build_certificate(kappa=5.0, gamma=0.35, P=P, Q=Q, A_K=A, K=np.zeros((2, 2)))
    with pytest.raises(CertificationError) as exc:
        build_certificate(kappa=5.0, gamma=0.35, P=P, Q=Q, A_K=A + 0.01, K=np.zeros((2, 2)))
    assert exc.value.reason == "bounds"
    assert exc.value.violations == ["Q P Q_inv reconstructs A_K"]
    # kappa = 4 < ||Q^-1|| = 5 and gamma = 0.6 > 1 - ||P||, with a non-diagonal P
    with pytest.raises(CertificationError) as exc:
        build_certificate(kappa=4.0, gamma=0.6, P=P, Q=Q, A_K=A, K=np.zeros((2, 2)),
                          diagonal=True)
    assert exc.value.violations == ["norm_P <= 1 - gamma", "norm_Q_inv <= kappa",
                                    "P diagonal"]


def test_closed_loop_powers_match_matrix_power():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        A = 0.5 * rng.standard_normal((n, n)) / np.sqrt(n)
        sys_ = make_system(A, np.eye(n))
        K = 0.1 * rng.standard_normal((n, n))
        cl = make_closed_loop(sys_, K, i_max=12)
        A_K = A - K
        for i in range(13):
            np.testing.assert_allclose(cl.power(i),
                                       np.linalg.matrix_power(A_K, i),
                                       atol=1e-12)
        with pytest.raises(ValueError):
            cl.power(13)
        stack = cl.power_stack(5)
        assert stack.shape == (5, n, n)
        np.testing.assert_allclose(stack[3], cl.power(3))


def test_random_certificates_satisfy_definition_and_decay():
    # random diagonalizable loops, including complex eigenvalue pairs
    rng = np.random.default_rng(17)
    for trial in range(20):
        n = int(rng.integers(1, 5))
        A_K = rng.standard_normal((n, n)) / np.sqrt(n)
        rho = max(np.abs(np.linalg.eigvals(A_K)))
        A_K *= 0.7 / max(rho, 0.1)
        K = 0.2 * rng.standard_normal((n, n))
        B = np.eye(n)
        A = A_K + B @ K
        sys_ = make_system(A, B)
        rho = max(np.abs(np.linalg.eigvals(A_K)))
        gamma = 0.9 * (1.0 - rho)
        cert = certify(sys_, K, kappa=1e3, gamma=gamma)
        # the issued witness passes the external-witness check as well
        build_certificate(cert.kappa, cert.gamma, cert.P, cert.Q, A_K, K, diagonal=True)
        cl = make_closed_loop(sys_, K, i_max=int(np.ceil(10 / gamma)))
        chk = power_decay_check(cl, cert, i_max=int(np.ceil(10 / gamma)))
        assert chk["ok"], f"trial {trial}: decay bound violated"


def test_certify_tight_kappa_is_sharp():
    rng = np.random.default_rng(29)
    for _ in range(8):
        n = int(rng.integers(2, 4))
        A_K = rng.standard_normal((n, n)) / np.sqrt(n)
        rho = max(np.abs(np.linalg.eigvals(A_K)))
        A_K *= 0.6 / max(rho, 0.1)
        sys_ = make_system(A_K, np.eye(n))
        K = np.zeros((n, n))
        loose = certify(sys_, K, kappa=1e6, gamma=0.2)
        tight = max(np.linalg.norm(loose.Q, 2),
                    np.linalg.norm(loose.Q_inv, 2), 1.0)
        certify(sys_, K, kappa=tight * 1.001, gamma=0.2)
        if tight > 1.0:
            with pytest.raises(CertificationError):
                certify(sys_, K, kappa=tight * 0.98, gamma=0.2)


def _reference_certify(sys_, K, kappa, gamma):
    """Per-gain certification written out one numpy call at a time: the
    certificate, or the (reason, violations) of the refusal."""
    A_K = sys_.A - sys_.B @ K
    lam, V = np.linalg.eig(A_K)
    order = np.lexsort((-lam.imag, -lam.real, -np.abs(lam)))
    lam, V = lam[order], V[:, order]
    V = V / np.linalg.norm(V, axis=0)
    if np.linalg.svd(V, compute_uv=False)[-1] < 1e-10:
        return ("defective", [])
    P, Q, Q_inv = np.diag(lam), V, np.linalg.inv(V)
    if np.all(lam.imag == 0.0):
        P, Q, Q_inv = P.real, Q.real, Q_inv.real
    norm = lambda m: np.linalg.svd(m, compute_uv=False)[0]  # noqa: E731
    violations = [name for name, bad in (
        ("norm_P <= 1 - gamma", norm(P) > 1.0 - gamma + 1e-12),
        ("norm_K <= kappa", norm(K) > kappa + 1e-12),
        ("norm_Q <= kappa", norm(Q) > kappa + 1e-12),
        ("norm_Q_inv <= kappa", norm(Q_inv) > kappa + 1e-12),
        ("Q P Q_inv reconstructs A_K", norm(Q @ P @ Q_inv - A_K) > 1e-8)) if bad]
    return ("bounds", violations) if violations else (P, Q, Q_inv)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _stack_cases(workloads):
    scalar = make_system(np.array([[0.5]]), np.array([[1.0]]))
    mimo4 = workloads["mimo4-heavytail"].base
    rotation = make_system(np.array([[0.5, -0.4], [0.4, 0.5]]), np.eye(2))
    jordan = make_system(np.array([[0.5, 1.0], [0.0, 0.5]]), np.eye(2))
    return {
        # (system, gains, kappa, gamma, how many must certify)
        "c7-grid": (scalar, [[[v]] for v in np.linspace(0.4, 0.6, 11)], 1.0, 0.9, 11),
        "wide-grid": (scalar, [[[v]] for v in np.linspace(0.0, 1.0, 11)], 1.0, 0.9, 3),
        "mimo4": (system_from_json(mimo4["system"]),
                  [mimo4["gain"]["K"], *mimo4["comparator"]["candidates"]], 2.0, 0.55, 5),
        # loops with eigenvalues 0.5 - c +- 0.4i (|0.7 +- 0.4i| > 1 - gamma
        # fails) and one with a real spectrum, in one stack
        "complex-pair": (rotation, [[[0.0, 0.0], [0.0, 0.0]], [[0.1, 0.0], [0.0, 0.1]],
                                    [[-0.2, 0.0], [0.0, -0.2]], [[0.0, -0.4], [0.4, 0.0]]],
                         3.0, 0.2, 3),
        "defective": (jordan, [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                      5.0, 0.3, 1),
    }


@pytest.mark.parametrize("case", ["c7-grid", "wide-grid", "mimo4", "complex-pair",
                                  "defective"])
def test_stacked_certification_matches_per_gain(case, perfbench_workloads):
    sys_, gains, kappa, gamma, certified = _stack_cases(perfbench_workloads)[case]
    Ks = np.array(gains, dtype=float)
    stacked = _certify_stack(sys_, Ks, kappa, gamma)
    assert sum(isinstance(r, StabilityCertificate) for r in stacked) == certified
    for K, got in zip(Ks, stacked):
        want = _reference_certify(sys_, K, kappa, gamma)
        try:
            alone = certify(sys_, K, kappa, gamma)
        except CertificationError as exc:
            alone = exc
        for result in (got, alone):
            if isinstance(want[0], str):
                assert isinstance(result, CertificationError)
                assert (result.reason, result.violations) == want
            else:
                assert result.diagonal
                assert all(_same_bits(a, b) for a, b in
                           zip((result.P, result.Q, result.Q_inv), want))
    if case == "complex-pair":
        assert [np.iscomplexobj(r.P) for r in stacked if not isinstance(
            r, CertificationError)] == [True, True, False]
