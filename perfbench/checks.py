"""Correctness checks on the outputs of each workload.

Every check is computed apart from the package: the matching metric is
rebuilt from dense matrices (``np.diff`` of the identity, a dense inverse, a
QR projector), the selection rule is re-applied to the written CV table, and
the decomposition identities are tested on the returned arrays.  A failed
check raises :class:`CheckFailed` with a message naming the quantity.
"""

from __future__ import annotations

import math

import numpy as np

#: Relative KKT residual the dense certificate accepts.
KKT_RTOL = 5e-10
#: Relative tolerance of the additive identities (round-off only).
IDENTITY_RTOL = 1e-9


class CheckFailed(AssertionError):
    """An output of the program violates a property it must have."""


def penalty(n: int, q: int) -> np.ndarray:
    """Dense difference penalty ``K_q = D' D`` with ``D = diff(I, n=q)``."""
    d = np.diff(np.eye(n), n=q, axis=0)
    return d.T @ d


def metric(n: int, q: int, rho: float) -> np.ndarray:
    """Dense matching metric ``W_rho``.

    ``K_q`` at rho=0, ``I - P0`` at rho=1 (P0 projects onto polynomials of
    degree < q), and ``(I - (I + lam K)^-1) / rho`` with lam = rho/(1-rho)
    in between.
    """
    eye = np.eye(n)
    if rho == 0.0:
        return penalty(n, q)
    if rho == 1.0:
        basis, _ = np.linalg.qr(np.vander(np.arange(n, dtype=float), q, increasing=True))
        return eye - basis @ basis.T
    lam = rho / (1.0 - rho)
    return (eye - np.linalg.solve(eye + lam * penalty(n, q), eye)) / rho


def auto_zeta(x_pre: np.ndarray, t_post: int) -> float:
    """The documented ridge default ``t_post**0.25 * sd(diff(X_pre))``."""
    return float(t_post) ** 0.25 * float(np.std(np.diff(x_pre, axis=0), ddof=1))


def simplex(w: np.ndarray, what: str) -> None:
    w = np.asarray(w, dtype=float)
    if not np.all(np.isfinite(w)) or np.any(w < 0.0) or abs(w.sum() - 1.0) > 1e-10:
        raise CheckFailed(f"{what}: weights are off the simplex (sum {w.sum()!r})")


def kkt_residual(w, y, x, w_metric, ridge) -> float:
    """Relative KKT residual of ``min (y-Xw)'W(y-Xw) + ridge |w|^2`` on the simplex.

    On the support the gradient equals a common multiplier; off it the
    gradient must not undercut the multiplier.  The gradient is a difference
    of terms much larger than itself, so the residual is scaled by the size
    of those terms, ``2 (|X'Wy| + |X'WXw| + ridge |w|)``: that is the scale
    of its round-off, and of the error a metric built from a different but
    equally accurate eigenbasis introduces.
    """
    w = np.asarray(w, dtype=float)
    wy = x.T @ (w_metric @ y)
    wxw = x.T @ (w_metric @ (x @ w))
    grad = 2.0 * (wxw + ridge * w - wy)
    support = w > 0.0
    nu = float(np.mean(grad[support]))
    res = float(np.max(np.abs(grad[support] - nu)))
    if not np.all(support):
        res = max(res, float(np.max(nu - grad[~support])))
    scale = 2.0 * (np.linalg.norm(wy) + np.linalg.norm(wxw) + ridge * np.linalg.norm(w))
    return res / max(float(scale), np.finfo(float).tiny)


def kkt(w, y, x, q: int, rho: float, zeta: float, what: str) -> float:
    """Certify simplex weights against the dense program at (q, rho, zeta)."""
    simplex(w, what)
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    n = y.size
    res = kkt_residual(w, y, x, metric(n, q, rho), zeta * zeta * n)
    if not res <= KKT_RTOL:
        raise CheckFailed(
            f"{what}: KKT residual {res:.3e} exceeds {KKT_RTOL:.0e} "
            f"(q={q}, rho={rho!r})"
        )
    return res


def close(a, b, what: str, rtol: float = IDENTITY_RTOL) -> None:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = 1.0 + max(float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    gap = float(np.max(np.abs(a - b)))
    if a.shape != b.shape or not gap <= rtol * scale:
        raise CheckFailed(f"{what}: differs by {gap:.3e} (scale {scale:.3e})")


# ---------------------------------------------------------------------------
# applied-cold


def expected_selection(rows, y_pre, x_pre) -> tuple[float, int, str]:
    """Argmin of a CV table under the documented tie rule.

    ``rows`` are (rho, q, forecaster, value) in table order.  Values within
    ``(1e-10 * (1 + max|y| + max|x|))**2`` of a candidate's minimum tie, and
    a tie goes to the larger rho; a later candidate displaces an earlier one
    only by beating it by more than the same floor.  Candidates with a
    non-finite value were excluded and cannot win.
    """
    scale = 1.0 + float(np.max(np.abs(y_pre))) + float(np.max(np.abs(x_pre)))
    floor = (1e-10 * scale) ** 2
    by_candidate: dict[tuple[int, str], list[tuple[float, float]]] = {}
    for rho, q, rule, value in rows:
        by_candidate.setdefault((q, rule), []).append((rho, value))
    best = None
    for cand, points in by_candidate.items():
        values = [v for _, v in points]
        if not all(math.isfinite(v) for v in values):
            continue
        low = min(values)
        rho = max(r for r, v in points if v <= low + floor)
        if best is None or low < best[0] - floor:
            best = (low, rho, cand)
    if best is None:
        raise CheckFailed("cv table: every candidate was excluded")
    return best[1], best[2][0], best[2][1]


def selection(rows, chosen: tuple[float, int, str], y_pre, x_pre) -> None:
    expected = expected_selection(rows, y_pre, x_pre)
    if tuple(chosen) != expected:
        raise CheckFailed(f"cv selection {chosen} is not the table's argmin {expected}")


def estimate_outputs(counterfactual_rows, component_rows, weights, view) -> None:
    """``counterfactual.csv`` and ``components.csv`` describe one fit.

    Rows are dicts as read by ``csv.DictReader``; ``weights`` are in the
    donor order of ``view``.
    """
    if [r["period"] for r in counterfactual_rows] != [r["period"] for r in component_rows]:
        raise CheckFailed("estimate: counterfactual and components periods differ")
    def col(rows, key):
        return np.array([float(r[key]) for r in rows])

    fitted = col(counterfactual_rows, "counterfactual")
    close(fitted, col(component_rows, "counterfactual"), "estimate: counterfactual columns", 0.0)
    close(col(counterfactual_rows, "actual"), view["y_post"], "estimate: actual outcomes", 0.0)
    close(
        col(counterfactual_rows, "gap"),
        col(counterfactual_rows, "actual") - fitted,
        "estimate: gap = actual - counterfactual",
    )
    donor = col(component_rows, "donor_component")
    close(donor, view["x_post"] @ weights, "estimate: donor component = X_post w")
    close(
        donor + col(component_rows, "adjustment"),
        fitted,
        "estimate: donor component + adjustment = counterfactual",
    )


# ---------------------------------------------------------------------------
# study-warm


def pooled_identity(table) -> None:
    """``pooled_rmse**2 == pooled_bias**2 + pooled_variance`` per method."""
    for token in table.method_tokens:
        rmse2 = table.pooled_rmse[token] ** 2
        split = table.pooled_bias[token] ** 2 + table.pooled_variance[token]
        if not abs(rmse2 - split) <= IDENTITY_RTOL * (1.0 + abs(rmse2)):
            raise CheckFailed(
                f"study {token}: rmse^2 {rmse2!r} != bias^2 + variance {split!r}"
            )


def on_grid(samples, grid) -> None:
    grid = np.asarray(grid, dtype=float)
    for rho in np.asarray(samples, dtype=float):
        if not np.any(grid == rho):
            raise CheckFailed(f"study: rho_hat {rho!r} is not a grid point")


# ---------------------------------------------------------------------------
# decompose-q2


def decomposition(report, zeta: float) -> None:
    """Error split, envelope and curvature bound at every grid point."""
    close(
        report.term_a + report.term_b,
        report.realized_error,
        "decompose: term_a + term_b = realized_error",
    )
    norm_a = np.linalg.norm(report.term_a, axis=1)
    short = np.nonzero(report.envelope < norm_a * (1.0 - IDENTITY_RTOL))[0]
    if short.size:
        g = int(short[0])
        raise CheckFailed(
            f"decompose: envelope {report.envelope[g]!r} < |term_a| {norm_a[g]!r} "
            f"at rho={report.rho_grid[g]!r}"
        )
    cap = 1.0 / (zeta * zeta)
    over = np.nonzero(report.q_max_inv_eig > cap * (1.0 + IDENTITY_RTOL))[0]
    if over.size:
        g = int(over[0])
        raise CheckFailed(
            f"decompose: q_max_inv_eig {report.q_max_inv_eig[g]!r} > 1/zeta^2 "
            f"{cap!r} at rho={report.rho_grid[g]!r}"
        )
