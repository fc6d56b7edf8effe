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
    Q_inv: np.ndarray = field(repr=False)

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


_CHECKS = ("norm_P <= 1 - gamma", "norm_K <= kappa", "norm_Q <= kappa",
           "norm_Q_inv <= kappa", "Q P Q_inv reconstructs A_K", "P diagonal")


def _violations(P, Q, Q_inv, A_K, K, kappa, gamma, diagonal) -> list[list[str]]:
    """Failed check names per witness; P, Q, Q_inv, A_K are (k, n_x, n_x), K (k, n_u, n_x)."""
    norms = np.linalg.svd(np.stack([P, Q, Q_inv, Q @ P @ Q_inv - A_K], axis=1),
                          compute_uv=False)[..., 0]
    off_diagonal = diagonal & (P[:, ~np.eye(P.shape[-1], dtype=bool)] != 0).any(-1)
    values = np.column_stack([norms[:, 0], np.linalg.svd(K, compute_uv=False)[:, 0],
                              norms[:, 1:], off_diagonal])
    limits = [1.0 - gamma + _EQ_SLACK] + [kappa + _EQ_SLACK] * 3 + [_RECON_TOL, 0.0]
    return [[name for name, bad in zip(_CHECKS, row) if bad] for row in values > limits]


def build_certificate(kappa: float, gamma: float, P: np.ndarray, Q: np.ndarray,
                      A_K: np.ndarray, K: np.ndarray,
                      diagonal: bool = False) -> StabilityCertificate:
    """Wrap an externally supplied (P, Q) witness, validating it first; a
    failing witness raises CertificationError naming every failed check."""
    kappa, gamma, P, Q = float(kappa), float(gamma), np.asarray(P), np.asarray(Q)
    Q_inv = np.linalg.inv(Q)
    violations = _violations(P[None], Q[None], Q_inv[None], np.asarray(A_K)[None],
                             np.asarray(K)[None], kappa, gamma, diagonal)[0]
    if violations:
        raise CertificationError("bounds", violations)
    return StabilityCertificate(kappa=kappa, gamma=gamma, P=P, Q=Q, diagonal=diagonal,
                                Q_inv=Q_inv)


def _certify_stack(sys: LinearSystem, Ks: np.ndarray, kappa: float,
                   gamma: float) -> list:
    """certify for each gain of a (k, n_u, n_x) stack: its certificate or the
    CertificationError certify raises. After one batched eig, loops with a
    real spectrum and the others run apart, so a real loop gets the real
    (P, Q, Q_inv) it gets alone; only non-defective loops reach the inverse."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    if not 1.0 <= kappa < np.inf:
        raise ValueError(f"kappa must be finite and >= 1, got {kappa}")
    A_K = sys.A - sys.B @ Ks
    lam, V = np.linalg.eig(A_K)
    order = np.lexsort((-lam.imag, -lam.real, -np.abs(lam)), axis=-1)
    lam, V = np.take_along_axis(lam, order, -1), np.take_along_axis(V, order[:, None, :], -1)
    real = (lam.imag == 0.0).all(-1)
    out = [CertificationError("defective") for _ in Ks]
    for group, part in ((real, np.real), (~real, np.asarray)):
        if not group.any():
            continue
        Q = part(V[group])
        Q = Q / np.linalg.norm(Q, axis=-2, keepdims=True)
        ok = np.linalg.svd(Q, compute_uv=False)[:, -1] >= _DEFECT_TOL
        idx, Q = np.flatnonzero(group)[ok], Q[ok]
        P = np.zeros_like(Q)
        np.einsum("kii->ki", P)[...] = part(lam[idx])  # a view of the diagonals
        Q_inv = np.linalg.inv(Q)
        bad = _violations(P, Q, Q_inv, A_K[idx], Ks[idx], kappa, gamma, True)
        for i, P_i, Q_i, Q_inv_i, v in zip(idx, P, Q, Q_inv, bad):
            out[i] = CertificationError("bounds", v) if v else StabilityCertificate(
                kappa=float(kappa), gamma=float(gamma), P=P_i, Q=Q_i, diagonal=True, Q_inv=Q_inv_i)
    return out


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
    K = np.asarray(K, dtype=float)
    if K.shape != (sys.n_u, sys.n_x):
        raise ValueError(f"K must have shape ({sys.n_u}, {sys.n_x}), got {K.shape}")
    cert = _certify_stack(sys, K[None], kappa, gamma)[0]
    if isinstance(cert, CertificationError):
        raise cert
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
