"""Difference penalties and their spectral calculus.

The estimator's pre-treatment metric is built from the order-q difference
penalty ``K_q = D_q' D_q``.  Working in the eigenbasis of ``K_q`` turns the
smoother ``S = (I + lam*K_q)^{-1}`` and the matching metric
``W = (1/rho)*(I - S)`` into diagonal gain functions of the eigenvalues:

    s(mu; rho) = (1 - rho) / ((1 - rho) + rho*mu)
    w(mu; rho) = mu / ((1 - rho) + rho*mu)

with exact endpoint branches ``S=I, W=K_q`` at rho=0 and ``S=P0,
W=I-P0`` at rho=1 (P0 projects onto the penalty's null space: constants for
q=1, constants plus linear trends for q=2).

Eigendecomposition runs through LAPACK (``numpy.linalg.eigh``) for q=1 and
q=2 alike; bases are cached per (length, order) since they are
data-independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

#: Relative threshold below which an eigenvalue is treated as null space.
NULL_SPACE_RTOL = 1e-9


class EigenSolverError(RuntimeError):
    """The eigendecomposition failed or its spectrum did not pass the checks."""


def _check_order(q: int) -> int:
    if q not in (1, 2):
        raise ValueError(f"smoothness order q must be 1 or 2, got {q!r}")
    return int(q)


def difference_operator(n: int, q: int) -> np.ndarray:
    """Order-q difference operator of shape (n-q, n).

    Row t maps x to ``x[t+1] - x[t]`` for q=1 and to
    ``x[t+2] - 2*x[t+1] + x[t]`` for q=2.
    """
    q = _check_order(q)
    if n < q + 1:
        raise ValueError(f"need n >= {q + 1} for order {q} differences, got n={n}")
    return np.diff(np.eye(n), n=q, axis=0)


def penalty_matrix(n: int, q: int) -> np.ndarray:
    """Symmetric PSD penalty ``K_q = D_q' D_q`` with a q-dimensional null space."""
    d = difference_operator(n, q)
    return d.T @ d


@dataclass(frozen=True)
class SpectralBasis:
    """Eigenstructure of a penalty matrix ``K_q`` of size n.

    ``eigenvalues`` ascend; the first ``null_dim`` (= q) are exactly zero
    after separation is verified, and the eigenvector columns are
    orthonormal.
    """

    n: int
    q: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    null_dim: int

    def project_null(self, r: np.ndarray) -> np.ndarray:
        """Project onto the penalty null space (P0 r)."""
        vn = self.eigenvectors[:, : self.null_dim]
        return vn @ (vn.T @ r)

    def project_perp(self, r: np.ndarray) -> np.ndarray:
        """Project onto the orthogonal complement of the null space."""
        return np.asarray(r, dtype=float) - self.project_null(r)


def eigendecompose(k: np.ndarray, q: int) -> SpectralBasis:
    """Spectral basis of a penalty matrix, with null-space separation checks.

    ``k`` must be an order-q difference penalty, whose null space is the
    polynomials of degree < q.  LAPACK fixes that null space only to about
    eps*|k|/mu_q, where mu_q is the smallest nonzero eigenvalue (3e-7 for
    q=2 at n=200, where a linear trend then leaks 2e-6 through P0).  So the
    computed null vectors are replaced by the exact orthonormal polynomials
    and their component is taken out of the other eigenvectors.  That step
    uses elementwise sums only, so the bytes do not depend on the BLAS
    thread count.

    Raises
    ------
    EigenSolverError
        If LAPACK reports a failure to converge, if the eigenvector matrix
        loses orthonormality, or if the spectrum does not separate cleanly
        into q null eigenvalues below the relative threshold and n-q
        eigenvalues above it, with the polynomials of degree < q in the
        null space.
    """
    q = _check_order(q)
    k = np.asarray(k, dtype=float)
    n = k.shape[0]
    try:
        eigvals, vecs = np.linalg.eigh(k)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(
            f"eigh failed on the n={n} order-{q} penalty: {exc}"
        ) from exc
    order = np.argsort(eigvals, kind="stable")
    eigvals = eigvals[order]
    vecs = vecs[:, order]

    t = np.arange(n, dtype=float) - (n - 1) / 2.0
    null = np.column_stack([np.ones(n), t])[:, :q]
    null /= np.sqrt(np.sum(null * null, axis=0))
    thr = NULL_SPACE_RTOL * max(eigvals[-1], 0.0)
    null_resid = np.max(np.abs(k @ null))
    if not (abs(eigvals[q - 1]) <= thr < eigvals[q] and null_resid <= thr):
        raise EigenSolverError(
            "null-space separation failed: expected exactly "
            f"{q} eigenvalues below {thr:.3e}, spectrum starts "
            f"{eigvals[: q + 2]}, polynomial residual {null_resid:.3e}"
        )

    rest = vecs[:, q:]
    for col in null.T:
        rest = rest - np.outer(col, np.sum(col[:, None] * rest, axis=0))
    vecs = np.hstack([null, rest])
    ortho_err = np.max(np.abs(vecs.T @ vecs - np.eye(n)))
    if ortho_err > 1e-10:
        raise EigenSolverError(
            f"eigenvector orthonormality drift {ortho_err:.3e} exceeds 1e-10"
        )
    eigvals[:q] = 0.0
    return SpectralBasis(n=n, q=q, eigenvalues=eigvals, eigenvectors=vecs, null_dim=q)


@lru_cache(maxsize=None)
def spectral_basis(n: int, q: int) -> SpectralBasis:
    """Cached basis for the size-n order-q penalty (data independent)."""
    return eigendecompose(penalty_matrix(n, q), q)


def gains(mu, rho: float):
    """Spectral gains ``(s, w)`` of the smoother and the matching metric.

    For rho in (0, 1): ``s = (1-rho)/((1-rho)+rho*mu)`` and
    ``w = mu/((1-rho)+rho*mu)``.  Endpoints use the exact conventions
    s(.;0)=1, w(mu;0)=mu and s(mu;1)=1{mu==0}, w(mu;1)=1{mu>0}, with the
    null-space cutoff detected at tolerance 1e-9.

    Accepts a scalar or an array of nonnegative eigenvalues; returns a pair
    of the same shape.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    mu_arr = np.asarray(mu, dtype=float)
    if np.any(mu_arr < -1e-12):
        raise ValueError("eigenvalues must be nonnegative")
    if rho == 0.0:
        s = np.ones_like(mu_arr)
        w = mu_arr.copy()
    elif rho == 1.0:
        null = mu_arr <= 1e-9
        s = np.where(null, 1.0, 0.0)
        w = np.where(null, 0.0, 1.0)
    else:
        denom = (1.0 - rho) + rho * mu_arr
        s = (1.0 - rho) / denom
        w = mu_arr / denom
    if np.isscalar(mu) or np.ndim(mu) == 0:
        return float(s), float(w)
    return s, w


@dataclass(frozen=True)
class RhoMetric:
    """A point on the smoothing path: gains of S and W at one rho.

    ``shrink_gains[j]`` and ``match_gains[j]`` are the eigenvalue-wise
    multipliers of the smoother and the matching metric in the penalty
    eigenbasis.
    """

    rho: float
    basis: SpectralBasis
    shrink_gains: np.ndarray
    match_gains: np.ndarray


def rho_metric(basis: SpectralBasis, rho: float) -> RhoMetric:
    """Bind a spectral basis to a mixing weight rho."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    if rho == 1.0:
        # Exact endpoint branch: the indicator runs on the verified null
        # dimension, not on a floating-point eigenvalue test.
        s = np.zeros(basis.n)
        s[: basis.null_dim] = 1.0
        w = 1.0 - s
    else:
        s, w = gains(basis.eigenvalues, rho)
    return RhoMetric(rho=float(rho), basis=basis, shrink_gains=s, match_gains=w)


def smoother_apply(metric: RhoMetric, r: np.ndarray) -> np.ndarray:
    """Apply the smoother: ``S r = V diag(s) V' r`` in the eigenbasis."""
    v = metric.basis.eigenvectors
    return v @ (metric.shrink_gains * (v.T @ np.asarray(r, dtype=float)))


def metric_apply(metric: RhoMetric, r: np.ndarray) -> np.ndarray:
    """Apply the matching metric: ``W r = V diag(w) V' r``."""
    v = metric.basis.eigenvectors
    return v @ (metric.match_gains * (v.T @ np.asarray(r, dtype=float)))


def metric_quadform(metric: RhoMetric, r: np.ndarray) -> float:
    """Quadratic form ``r' W r`` = sum_j w_j (v_j' r)^2 (nonnegative)."""
    coef = metric.basis.eigenvectors.T @ np.asarray(r, dtype=float)
    return float(np.sum(metric.match_gains * coef * coef))


def sqrt_factor(metric: RhoMetric) -> np.ndarray:
    """Rectangular square root ``F = diag(sqrt(w)) V'`` with ``F'F = W``.

    Any such factor induces the same quadratic form; this one skips the
    final n^3 product and is the cheap path for building design matrices.
    """
    root = np.sqrt(metric.match_gains)
    return root[:, None] * metric.basis.eigenvectors.T
