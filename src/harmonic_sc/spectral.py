"""Difference penalties and their spectral calculus.

The estimator's pre-treatment metric is built from the order-q difference
penalty ``K_q = D_q' D_q``.  Working in the eigenbasis of ``K_q`` turns the
smoother ``S = (I + lam*K_q)^{-1}`` and the matching metric
``W = (1/rho)*(I - S)`` into diagonal gain functions of the eigenvalues:

    s(mu; rho) = (1 - rho) / ((1 - rho) + rho*mu)
    w(mu; rho) = mu / ((1 - rho) + rho*mu)

with exact endpoint branches ``S=I, W=K_q`` at rho=0 and ``S=P0,
W=I-P0`` at rho=1 (P0 projects onto the penalty's null space: constants for
q=1, constants plus linear trends for q=2).  :func:`path_gains` is the one
implementation of these gains; CV, the fit and the decomposition all read
their rows from it.

For q=1 the eigenpairs are known exactly: ``K_1`` is the path-graph
(Neumann) second-difference matrix, whose eigenvectors are the DCT-II
cosines ``v_k(t) ~ cos(pi*k*(t+1/2)/n)`` with eigenvalues
``4*sin(pi*k/(2n))**2`` (Strang 1999, "The Discrete Cosine Transform").  q=2
has no closed form and runs through LAPACK (``numpy.linalg.eigh``).  Bases
are cached per (length, order) since they are data-independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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

    ``eigenvalues`` ascend; the first ``q`` (the null-space dimension) are
    exactly zero after separation is verified, and the eigenvector columns are
    orthonormal.
    """

    n: int
    q: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def project_null(self, r: np.ndarray) -> np.ndarray:
        """Project onto the penalty null space (P0 r)."""
        vn = self.eigenvectors[:, : self.q]
        return vn @ (vn.T @ r)

    def project_perp(self, r: np.ndarray) -> np.ndarray:
        """Project onto the orthogonal complement of the null space."""
        return np.asarray(r, dtype=float) - self.project_null(r)


def _cosine_basis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of the size-n order-1 penalty.

    Entry (t, k) is ``cos(pi*k*(2t+1)/(2n))``, scaled to unit norm.  The
    argument is reduced exactly in integers: ``k*(2t+1) mod 4n`` indexes a
    table of the 4n values ``cos(pi*j/(2n))``, so every entry is accurate to
    rounding whatever n, and the constant column is exact.
    """
    k = np.arange(n)
    table = np.cos(np.pi * np.arange(4 * n) / (2 * n))
    norm = np.full(n, np.sqrt(2.0 / n))
    norm[0] = 1.0 / np.sqrt(n)
    vecs = table[np.outer(2 * k + 1, k) % (4 * n)] * norm
    return 4.0 * np.sin(np.pi * k / (2 * n)) ** 2, vecs


def eigendecompose(k: np.ndarray, q: int) -> SpectralBasis:
    """Spectral basis of a penalty matrix, with null-space separation checks.

    ``k`` must be an order-q difference penalty, whose null space is the
    polynomials of degree < q.  For q=1 the basis is the closed-form cosine
    basis (:func:`_cosine_basis`), which does not read ``k``; it is verified
    against ``k`` by its residual ``max|k V - V diag(mu)|``.  For q=2 LAPACK
    fixes the null space only to about eps*|k|/mu_q, where mu_q is the
    smallest nonzero eigenvalue (3e-7 at n=200, where a linear trend then
    leaks 2e-6 through P0).  So the computed null vectors are replaced by the
    exact orthonormal polynomials and their component is taken out of the
    other eigenvectors.  That step uses elementwise sums only, so the bytes
    do not depend on the BLAS thread count.  The other eigenvectors stay
    orthonormal only to second order in the leak (1e-10 at n=1600).

    Raises
    ------
    EigenSolverError
        If LAPACK reports a failure to converge, if the eigenvector matrix
        drifts from orthonormal by more than ``1e4 * n * eps``, if the
        spectrum does not separate cleanly into q null eigenvalues at most
        ``n * eps * max(mu)`` (the rounding of ``eigh``) and n-q eigenvalues
        above it, with the polynomials of degree < q in the null space, or
        if the q=1 residual exceeds ``1e-10 * max|k|`` (``k`` is not the
        order-1 penalty).
    """
    q = _check_order(q)
    k = np.asarray(k, dtype=float)
    n = k.shape[0]
    if q == 1:
        eigvals, vecs = _cosine_basis(n)
    else:
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
    thr = n * np.finfo(float).eps * max(eigvals[-1], 0.0)
    null_resid = np.max(np.abs(k @ null))
    if not (abs(eigvals[q - 1]) <= thr < eigvals[q] and null_resid <= thr):
        raise EigenSolverError(
            "null-space separation failed: expected exactly "
            f"{q} eigenvalues below {thr:.3e}, spectrum starts "
            f"{eigvals[: q + 2]}, polynomial residual {null_resid:.3e}"
        )

    if q == 1:
        resid = np.max(np.abs(k @ vecs - vecs * eigvals))
        if resid > 1e-10 * np.max(np.abs(k)):
            raise EigenSolverError(
                f"cosine basis residual max|kV - V diag(mu)| = {resid:.3e} "
                f"exceeds 1e-10 * max|k|: k is not the n={n} order-1 penalty"
            )
    else:
        rest = vecs[:, q:]
        for col in null.T:
            rest = rest - np.outer(col, np.sum(col[:, None] * rest, axis=0))
        vecs = np.hstack([null, rest])
    ortho_err = np.max(np.abs(vecs.T @ vecs - np.eye(n)))
    if ortho_err > 1e4 * n * np.finfo(float).eps:
        raise EigenSolverError(
            f"eigenvector orthonormality drift {ortho_err:.3e} exceeds 1e4 * n * eps"
        )
    eigvals[:q] = 0.0
    return SpectralBasis(n=n, q=q, eigenvalues=eigvals, eigenvectors=vecs)


@lru_cache(maxsize=None)
def spectral_basis(n: int, q: int) -> SpectralBasis:
    """Cached basis for the size-n order-q penalty (data independent)."""
    return eigendecompose(penalty_matrix(n, q), q)


def check_grid(rho_grid) -> np.ndarray:
    """``rho_grid`` as a float vector; ``ValueError`` unless it is nonempty,
    inside [0, 1] (NaN is outside) and strictly increasing.  The one check
    of a rho: :func:`path_gains` makes it, and so do ``HscConfig`` and
    ``CvPlan`` at construction."""
    grid = np.asarray(rho_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise ValueError("rho_grid must be a nonempty vector")
    inside = (grid >= 0.0) & (grid <= 1.0)
    if not inside.all():
        raise ValueError(f"rho must lie in [0, 1], got {grid[~inside][0]}")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("rho_grid must be strictly increasing")
    return grid


def path_gains(basis: SpectralBasis, rho_grid) -> tuple[np.ndarray, np.ndarray]:
    """Gains of the smoother S and the matching metric W along ``rho_grid``:
    one row per rho, one column per eigenvalue mu of ``basis``.

    For rho in (0, 1) they are

        s(mu; rho) = (1 - rho) / ((1 - rho) + rho*mu)
        w(mu; rho) = mu / ((1 - rho) + rho*mu)

    and the endpoints take the exact conventions: at rho = 0, s = 1 and
    w = mu; at rho = 1, s = 1 and w = 0 on the null columns, s = 0 and w = 1
    elsewhere.  The formula is broadcast over the grid on the positive
    eigenvalues, where it is exact at both endpoints (``0 / mu = 0`` and
    ``mu / mu = 1`` at rho = 1).  The null columns are ``s = 1``, ``w = 0``
    at every rho, so the indicator runs on the verified null dimension q,
    not on a floating-point eigenvalue test.

    Raises
    ------
    ValueError
        If ``rho_grid`` fails :func:`check_grid`.
    """
    rho = check_grid(rho_grid)[:, None]
    q = basis.q
    mu = basis.eigenvalues[q:]
    keep = 1.0 - rho
    denom = keep + rho * mu
    shrink = np.ones((rho.size, basis.n))
    match = np.zeros((rho.size, basis.n))
    shrink[:, q:] = keep / denom
    match[:, q:] = mu / denom
    return shrink, match
