"""Comparison estimators: SC, SC with intercept/trend, differenced SC, SDID.

These are the standard points of reference the main estimator is measured
against.  They are deliberately built from first principles — demeaning and
trend removal happen through explicit least-squares residualization rather
than through the eigenbasis machinery — so agreement with the corresponding
endpoint configurations of the main estimator is a genuine cross-check, not
a tautology.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from harmonic_sc import hsc, qp
from harmonic_sc.panel import PrePostView, check_levels

METHODS = ("sc", "sc_int", "sc_int_trend", "diff_sc", "sdid")


@dataclass(frozen=True)
class BaselineFit:
    """Weights, method-specific extras, and the implied counterfactual.

    ``aux`` holds whatever the method estimates beyond donor weights: the
    intercept for sc_int, intercept and slope for sc_int_trend, the anchor
    level for diff_sc, and the time weights for sdid.  ``solution`` is the
    donor-weight solver output, kept so degenerate instances (flat
    objectives, duplicated donors) stay diagnosable via its KKT residual.
    """

    method: str
    weights: np.ndarray
    aux: dict
    counterfactual: np.ndarray
    solution: qp.QPSolution


def _polynomial_design(start: int, length: int, order: int) -> np.ndarray:
    """Columns 1, t, ... t^(order-1) on the index range [start, start+length)."""
    t = np.arange(start, start + length, dtype=float)
    return np.vander(t, order, increasing=True)


def _zero_if_dust(stripped: np.ndarray, original: np.ndarray) -> np.ndarray:
    """Replace pure projection round-off with exact zeros.

    Residualizing a series the design explains exactly leaves ~1e-16 dust,
    and a weight problem built from dust alone is decided by rounding noise
    (the step size is the reciprocal of a dust-scale curvature).  Flattening
    it keeps such degenerate problems exactly flat, where the solver returns
    its uniform starting point.
    """
    if np.max(np.abs(stripped)) <= 1e-12 * np.max(np.abs(original)):
        return np.zeros_like(stripped)
    return stripped


def fit_sc(view: PrePostView, ridge: float = 0.0) -> BaselineFit:
    """Plain synthetic control: simplex weights matching pre-period levels."""
    sol = qp.solve(qp.build(view.y_pre, view.x_pre, ridge))
    return BaselineFit(
        method="sc",
        weights=sol.weights,
        aux={},
        counterfactual=view.x_post @ sol.weights,
        solution=sol,
    )


def fit_sc_int(
    view: PrePostView, ridge: float = 0.0, with_trend: bool = False
) -> BaselineFit:
    """Synthetic control matched on demeaned (or detrended) outcomes.

    Weights minimize the squared residual after a constant — or, with
    ``with_trend``, a constant plus linear trend — has been regressed out of
    the treated series and every donor column.  The fitted polynomial of the
    final residual is continued into the post-period and added back to the
    donor combination.
    """
    order = 2 if with_trend else 1
    design = _polynomial_design(0, view.t0, order)

    def strip(z: np.ndarray) -> np.ndarray:
        coef, *_ = np.linalg.lstsq(design, z, rcond=None)
        return _zero_if_dust(z - design @ coef, z)

    sol = qp.solve(qp.build(strip(view.y_pre), strip(view.x_pre), ridge))
    residual = view.y_pre - view.x_pre @ sol.weights
    coef, *_ = np.linalg.lstsq(design, residual, rcond=None)
    continued = _polynomial_design(view.t0, view.t_post, order) @ coef
    aux = {"intercept": float(coef[0])}
    if with_trend:
        aux["slope"] = float(coef[1])
    return BaselineFit(
        method="sc_int_trend" if with_trend else "sc_int",
        weights=sol.weights,
        aux=aux,
        counterfactual=view.x_post @ sol.weights + continued,
        solution=sol,
    )


def fit_diff_sc(view: PrePostView, ridge: float = 0.0) -> BaselineFit:
    """Synthetic control on first differences, anchored at the last level.

    Weights are fitted to one-period changes, so the counterfactual level is
    pinned down by carrying the final pre-period matching discrepancy
    forward: X_post·w + (y_T0 - x_T0·w).
    """
    sol = qp.solve(
        qp.build(np.diff(view.y_pre), np.diff(view.x_pre, axis=0), ridge)
    )
    anchor = float(view.y_pre[-1] - view.x_pre[-1] @ sol.weights)
    return BaselineFit(
        method="diff_sc",
        weights=sol.weights,
        aux={"anchor": anchor},
        counterfactual=view.x_post @ sol.weights + anchor,
        solution=sol,
    )


def fit_sdid(view: PrePostView, ridge_policy: float | str = "auto") -> BaselineFit:
    """Synthetic difference-in-differences with per-period counterfactuals.

    Unit weights come from the intercept-plus-ridge simplex problem (ridge
    strength ``zeta**2 * t0`` with the data-driven zeta unless a number is
    given); time weights from a simplex regression of average post-period
    donor levels on the pre-period donor columns, with an intercept and no
    ridge.  Each post period is counterfactually predicted as
    X_post,t·w + lam·(y_pre - X_pre·w).
    """
    if view.t0 < 3:
        raise ValueError(
            f"sdid needs at least 3 pre-treatment periods, got {view.t0}"
        )
    hsc.check_zeta(ridge_policy)
    zeta = hsc.resolve_zeta(ridge_policy, view.x_pre, view.t_post)

    def demean(z: np.ndarray) -> np.ndarray:
        return _zero_if_dust(z - z.mean(axis=0), z)

    unit_sol = qp.solve(
        qp.build(demean(view.y_pre), demean(view.x_pre), zeta * zeta * view.t0)
    )
    w = unit_sol.weights
    residual = view.y_pre - view.x_pre @ w

    # Time weights: rows are donors, columns the pre-treatment periods.
    levels = view.x_pre.T
    target = view.x_post.mean(axis=0)
    time_sol = qp.solve(qp.build(demean(target), demean(levels), 0.0))
    lam = time_sol.weights

    return BaselineFit(
        method="sdid",
        weights=w,
        aux={
            "intercept": float(residual.mean()),
            "zeta": float(zeta),
            "time_weights": lam,
            "time_kkt_residual": time_sol.kkt_residual,
        },
        counterfactual=view.x_post @ w + float(lam @ residual),
        solution=unit_sol,
    )


def fit(method: str, view: PrePostView) -> BaselineFit:
    """Fit the baseline ``method`` (one of :data:`METHODS`) at its defaults.

    The fitters are looked up on this module at call time, so a patched
    ``fit_*`` attribute is the one that runs.  A block of the view that is
    not finite or exceeds ``panel.MAX_LEVEL`` is rejected by name first.
    """
    fitters = {
        "sc": fit_sc,
        "sc_int": fit_sc_int,
        "sc_int_trend": lambda v: fit_sc_int(v, with_trend=True),
        "diff_sc": fit_diff_sc,
        "sdid": fit_sdid,
    }
    if method not in fitters:
        raise ValueError(f"unknown baseline method {method!r}")
    check_levels(
        y_pre=view.y_pre, x_pre=view.x_pre, y_post=view.y_post, x_post=view.x_post
    )
    return fitters[method](view)
