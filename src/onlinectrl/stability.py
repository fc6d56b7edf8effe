"""Strong-stability certificates for closed-loop gains.

A gain K is (kappa, gamma)-strongly stable for x' = Ax + Bu when
A - BK = Q P Q^{-1} with ||P|| <= 1 - gamma and ||K||, ||Q||, ||Q^{-1}||
all <= kappa. When P is diagonal the gain is diagonally strongly stable,
which the logarithmic-regret learning-rate schedule requires.

Certification here is constructive: eigendecompose A - BK, use the
eigenvalue matrix as P and the (column-normalized) eigenvector matrix as
Q, and check the four norm bounds against the requested (kappa, gamma).
Defective closed loops cannot be certified by this path; certificates
with non-diagonal P can still be built and validated directly when some
other construction provides one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .system import LinearSystem, spectral_norm

_EQ_SLACK = 1e-12          # absorbs roundoff in the Definition inequalities
_RECON_TOL = 1e-8
_DEFECT_TOL = 1e-10


class CertificationError(ValueError):
    """Raised when no certificate can be issued for the requested (kappa, gamma)."""

    def __init__(self, reason: str, violations: list[str] | None = None):
        self.reason = reason
        self.violations = violations or []
        detail = f"; failed: {', '.join(self.violations)}" if self.violations else ""
        super().__init__(f"certification failed ({reason}){detail}")


@dataclass(frozen=True)
class StabilityCertificate:
    """Witness (P, Q) that A - BK = Q P Q^{-1} meets the (kappa, gamma) bounds."""

    kappa: float
    gamma: float
    P: np.ndarray
    Q: np.ndarray
    diagonal: bool
    Q_inv: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if self.Q_inv is None:
            object.__setattr__(self, "Q_inv", np.linalg.inv(self.Q))

    def summary(self) -> dict:
        return {
            "kappa": self.kappa,
            "gamma": self.gamma,
            "diagonal": self.diagonal,
            "norm_P": spectral_norm(self.P),
            "norm_Q": spectral_norm(self.Q),
            "norm_Q_inv": spectral_norm(self.Q_inv),
        }


@dataclass(frozen=True)
class ClosedLoop:
    """Closed-loop matrix A_K = A - BK with an eagerly filled power cache.

    power_cache[i] = A_K^i for i = 0..i_max; reads never mutate, so the
    cache is safe to share across threads and worker processes.
    """

    K: np.ndarray
    A_K: np.ndarray
    power_cache: np.ndarray

    @property
    def i_max(self) -> int:
        return self.power_cache.shape[0] - 1

    def power(self, i: int) -> np.ndarray:
        if not 0 <= i <= self.i_max:
            raise ValueError(f"power {i} outside cached range [0, {self.i_max}]")
        return self.power_cache[i]

    def power_stack(self, count: int) -> np.ndarray:
        """View of (A_K^0, ..., A_K^{count-1})."""
        if count > self.i_max + 1:
            raise ValueError(f"requested {count} powers, cache holds {self.i_max + 1}")
        return self.power_cache[:count]


def make_closed_loop(sys: LinearSystem, K: np.ndarray, i_max: int) -> ClosedLoop:
    K = np.asarray(K, dtype=float)
    if K.shape != (sys.n_u, sys.n_x):
        raise ValueError(f"K must have shape ({sys.n_u}, {sys.n_x}), got {K.shape}")
    if i_max < 0:
        raise ValueError("i_max must be nonnegative")
    A_K = sys.A - sys.B @ K
    cache = np.empty((i_max + 1, sys.n_x, sys.n_x))
    cache[0] = np.eye(sys.n_x)
    for i in range(1, i_max + 1):
        cache[i] = cache[i - 1] @ A_K
    return ClosedLoop(K=K, A_K=A_K, power_cache=cache)


def validate_certificate(cert: StabilityCertificate, A_K: np.ndarray,
                         K: np.ndarray) -> list[str]:
    """Names of the Definition inequalities / reconstruction checks that fail."""
    violations = []
    if spectral_norm(cert.P) > 1.0 - cert.gamma + _EQ_SLACK:
        violations.append("norm_P <= 1 - gamma")
    if spectral_norm(np.asarray(K)) > cert.kappa + _EQ_SLACK:
        violations.append("norm_K <= kappa")
    if spectral_norm(cert.Q) > cert.kappa + _EQ_SLACK:
        violations.append("norm_Q <= kappa")
    if spectral_norm(cert.Q_inv) > cert.kappa + _EQ_SLACK:
        violations.append("norm_Q_inv <= kappa")
    recon = cert.Q @ cert.P @ cert.Q_inv
    if spectral_norm(recon - A_K) > _RECON_TOL:
        violations.append("Q P Q_inv reconstructs A_K")
    if cert.diagonal and np.any(cert.P != np.diag(np.diag(cert.P))):
        violations.append("P diagonal")
    return violations


def build_certificate(kappa: float, gamma: float, P: np.ndarray, Q: np.ndarray,
                      A_K: np.ndarray, K: np.ndarray,
                      diagonal: bool = False) -> StabilityCertificate:
    """Wrap an externally supplied (P, Q) witness, validating it first."""
    cert = StabilityCertificate(kappa=float(kappa), gamma=float(gamma),
                                P=np.asarray(P), Q=np.asarray(Q),
                                diagonal=diagonal, Q_inv=np.linalg.inv(Q))
    violations = validate_certificate(cert, np.asarray(A_K), np.asarray(K))
    if violations:
        raise CertificationError("bounds", violations)
    return cert


def certify(sys: LinearSystem, K: np.ndarray, kappa: float,
            gamma: float) -> StabilityCertificate:
    """Issue a certificate for K at the requested (kappa, gamma), or fail.

    The eigensolver output is made deterministic by sorting eigenvalues by
    decreasing modulus (ties by real part, then imaginary part) and scaling
    every eigenvector column to unit norm; the unit scaling doubles as the
    balance heuristic for ||Q|| vs ||Q^{-1}||. P is the matrix of
    eigenvalues, so every issued certificate is diagonal. Requested values
    are taken as given: no search over (kappa, gamma) is performed.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    if not 1.0 <= kappa < np.inf:
        raise ValueError(f"kappa must be finite and >= 1, got {kappa}")
    K = np.asarray(K, dtype=float)
    if K.shape != (sys.n_u, sys.n_x):
        raise ValueError(f"K must have shape ({sys.n_u}, {sys.n_x}), got {K.shape}")

    A_K = sys.A - sys.B @ K
    lam, V = np.linalg.eig(A_K)
    order = np.lexsort((-lam.imag, -lam.real, -np.abs(lam)))
    lam = lam[order]
    V = V[:, order]
    V = V / np.linalg.norm(V, axis=0)

    if np.linalg.svd(V, compute_uv=False)[-1] < _DEFECT_TOL:
        raise CertificationError("defective")

    P = np.diag(lam)
    Q = V
    Q_inv = np.linalg.inv(Q)
    if np.all(lam.imag == 0.0):
        P, Q, Q_inv = P.real, Q.real, Q_inv.real

    cert = StabilityCertificate(kappa=float(kappa), gamma=float(gamma),
                                P=P, Q=Q, diagonal=True, Q_inv=Q_inv)
    violations = validate_certificate(cert, A_K, K)
    if violations:
        raise CertificationError("bounds", violations)
    return cert


def power_decay_check(cl: ClosedLoop, cert: StabilityCertificate,
                      i_max: int, slack: float = 1e-9) -> dict:
    """Check ||A_K^i|| <= kappa^2 (1-gamma)^i for i = 0..i_max.

    Powers are recomputed here rather than read from the cache so the
    check stays valid beyond the cached range.
    """
    norms = np.empty(i_max + 1)
    bounds = np.empty(i_max + 1)
    X = np.eye(cl.A_K.shape[0])
    for i in range(i_max + 1):
        norms[i] = spectral_norm(X)
        bounds[i] = cert.kappa ** 2 * (1.0 - cert.gamma) ** i
        X = X @ cl.A_K
    ok = bool(np.all(norms <= bounds + slack))
    return {"ok": ok, "norms": norms, "bounds": bounds, "i_max": i_max}
