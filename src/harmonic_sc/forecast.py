"""Admissible forecast continuation of pre-treatment residual paths.

Admissibility means polynomials of degree < q are continued exactly: the
composed operator routes the penalty's null-space component through the
closed-form continuation (constants stay constant, lines stay lines) and
hands only the orthogonal remainder to a data-driven rule,

    forecast(r) = continue(P0 r) + rule(Pperp r).

Whatever the rule does to the remainder, the polynomial part is reproduced
without error, so any of the rules below — holding the last value, an
ARIMA(1,1,0) on differences, a stationary AR(p), or Hamilton-style direct
h-step regressions — becomes admissible once composed.

Fitting and application are split: :func:`fit_rule` estimates coefficients
once and freezes them in a :class:`ForecastRule` as an explicit affine
operator ``matrix @ z[-p:] + offset`` on the last p values of its input
(for ``ar``, the companion recursion run once on unit inputs; for
``hamilton``, its coefficient table).  :func:`apply_rule` is then one
product, on a single path or on a stack of paths, which downstream error
accounting relies on.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from harmonic_sc.spectral import SpectralBasis, _check_order

RULE_KINDS = ("last_constant", "arima110", "ar", "hamilton")


class ForecastError(ValueError):
    """Raised on unusable inputs: series too short, bad rule token, etc."""


@dataclass(frozen=True)
class ForecastRule:
    """A fitted forecast rule, frozen as an affine operator.

    The forecast of a path ``z`` is ``matrix @ z[-p:] + offset``, where
    ``matrix`` has shape ``(horizon, p)`` for the fitted horizon and the
    ``p`` tail values the rule reads.  ``fitted_params`` layout by kind:

    - ``last_constant``: empty tuple.
    - ``arima110``: ``(phi,)`` from the no-intercept difference regression.
    - ``ar``: ``(intercept, a_1, …, a_p)``.
    - ``hamilton``: one coefficient tuple ``(b_0, b_1, …, b_lags)`` per
      horizon, fitted by a separate direct regression each.
    """

    kind: str
    q: int
    fitted_params: tuple
    matrix: np.ndarray
    offset: np.ndarray


def null_continuation(x: np.ndarray, q: int, horizon: int) -> np.ndarray:
    """Continue a null-space path: constant level (q=1) or straight line (q=2).

    ``x`` is one path of shape (n,) or a stack of paths of shape (n, m), and
    each path must lie in the penalty null space (verified to 1e-6 of its
    scale).  The continuation evaluates the same polynomial at the next
    ``horizon`` periods: ``x[-1]`` repeated for q=1,
    ``x[-1] + h*(x[-1]-x[-2])`` for q=2.
    """
    q = _check_order(q)
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[0] < q + 1:
        raise ForecastError(f"null path must have length > {q}")
    if horizon < 1:
        raise ForecastError(f"horizon must be positive, got {horizon}")
    if not np.all(np.isfinite(x)):
        raise ForecastError("null path must be finite")
    slack = np.abs(np.diff(x, n=q, axis=0)).max(axis=0)
    if (slack > 1e-6 * (1.0 + np.abs(x).max(axis=0))).any():
        raise ForecastError(
            f"input is not in the order-{q} null space "
            f"(difference residual {slack.max():.3e})"
        )
    slope = (q - 1) * (x[-1] - x[-2])  # a constant level has no slope
    return x[-1] + np.multiply.outer(np.arange(1.0, horizon + 1), slope)


def _fit_arima110(z: np.ndarray, horizon: int) -> tuple:
    dz = np.diff(z)
    prev, curr = dz[:-1], dz[1:]
    denom = float(prev @ prev)
    # An exactly flat difference path carries no slope information; the
    # continuation degenerates to a constant rather than failing, which
    # keeps heavily smoothed inputs usable.
    phi = float(prev @ curr) / denom if denom > 0.0 else 0.0
    if abs(phi) >= 1.0:
        warnings.warn(
            f"arima110 difference coefficient {phi:.4f} is nonstationary; "
            "forecasts proceed over the finite horizon",
            RuntimeWarning,
            stacklevel=3,
        )
    # z[-1] + g_h (z[-1] - z[-2]) with g_h = phi + ... + phi^h, as weights
    # on z[-2:].
    matrix = np.empty((horizon, 2))
    g = (phi ** np.arange(1, horizon + 1)).cumsum()
    matrix[:, 0] = -g
    matrix[:, 1] = 1.0 + g
    return (phi,), matrix, np.zeros(horizon)


def _solve_regression(design: np.ndarray, target: np.ndarray, kind: str) -> np.ndarray:
    coef, _, _, _ = np.linalg.lstsq(design, target, rcond=None)
    if not np.all(np.isfinite(coef)):
        raise ForecastError(f"{kind} regression is singular")
    return coef


def _fit_ar(z: np.ndarray, order: int, horizon: int) -> tuple:
    n = z.size
    rows = n - order
    design = np.ones((rows, order + 1))
    for lag in range(1, order + 1):
        design[:, lag] = z[order - lag : n - lag]
    coef = _solve_regression(design, z[order:], "ar")
    # Stationarity check on lambda^p - a_1 lambda^{p-1} - ... - a_p.
    roots = np.roots(np.concatenate([[1.0], -coef[1:]]))
    if roots.size and np.max(np.abs(roots)) >= 1.0 - 1e-12:
        warnings.warn(
            f"ar({order}) fit is nonstationary (max root modulus "
            f"{np.max(np.abs(roots)):.4f}); forecasts proceed",
            RuntimeWarning,
            stacklevel=3,
        )
    # Companion recursion on the unit functionals of (z[-p:], 1): the first
    # p rows are the tail values themselves, row p + h - 1 holds the
    # weights of the h-step forecast on the tail values and the constant.
    rows = np.zeros((order + horizon, order + 1))
    rows[:order, :order] = np.eye(order)
    lag_coefs = coef[:0:-1]  # a_p, ..., a_1 against chronological rows
    intercept = float(coef[0])
    for t in range(order, order + horizon):
        np.matmul(lag_coefs, rows[t - order : t], out=rows[t])
        rows[t, order] += intercept
    return tuple(coef), rows[order:, :order], rows[order:, order]


def _fit_hamilton(z: np.ndarray, horizon: int, lags: int) -> tuple:
    n = z.size
    all_coefs = []
    for h in range(1, horizon + 1):
        rows = n - h - lags + 1
        design = np.ones((rows, lags + 1))
        for lag in range(lags):
            design[:, lag + 1] = z[lags - 1 - lag : n - h - lag]
        target = z[lags - 1 + h :]
        all_coefs.append(tuple(_solve_regression(design, target, "hamilton")))
    table = np.array(all_coefs)
    return tuple(all_coefs), table[:, :0:-1], table[:, 0]


def fit_rule(
    rule_kind: str,
    q: int,
    z: np.ndarray,
    horizon: int,
    order: int = 4,
    lags: int = 4,
) -> ForecastRule:
    """Estimate a forecast rule on ``z`` and freeze it for ``horizon`` steps.

    ``hamilton`` fits one direct regression per step ahead; the other kinds
    fit one regression and iterate it.  ``order`` is the ar lag order;
    ``lags`` the hamilton predictor count.
    """
    if rule_kind not in RULE_KINDS:
        raise ForecastError(
            f"unknown forecast rule {rule_kind!r}; choose from {', '.join(RULE_KINDS)}"
        )
    q = _check_order(q)
    z = np.asarray(z, dtype=float)
    if z.ndim != 1:
        raise ForecastError("remainder series must be a vector")
    n = z.size
    if horizon < 1:
        raise ForecastError(f"horizon must be positive, got {horizon}")

    if rule_kind == "last_constant":
        if n < 1:
            raise ForecastError("last_constant needs at least 1 observation")
        params: tuple = ()
        matrix, offset = np.ones((horizon, 1)), np.zeros(horizon)
    elif rule_kind == "arima110":
        if n < 3:
            raise ForecastError(f"arima110 needs at least 3 observations, got {n}")
        params, matrix, offset = _fit_arima110(z, horizon)
    elif rule_kind == "ar":
        if order < 1:
            raise ForecastError(f"ar order must be positive, got {order}")
        if n < order + 2:
            raise ForecastError(
                f"ar({order}) needs at least {order + 2} observations, got {n}"
            )
        params, matrix, offset = _fit_ar(z, order, horizon)
    else:
        if lags < 1:
            raise ForecastError(f"hamilton lag count must be positive, got {lags}")
        if n < horizon + lags + 1:
            raise ForecastError(
                f"hamilton with horizon {horizon} needs at least "
                f"{horizon + lags + 1} observations, got {n}"
            )
        params, matrix, offset = _fit_hamilton(z, horizon, lags)
    return ForecastRule(
        kind=rule_kind, q=q, fitted_params=params, matrix=matrix, offset=offset
    )


def apply_rule(rule: ForecastRule, z: np.ndarray, horizon: int) -> np.ndarray:
    """Forecast ``horizon`` steps from ``z``: ``matrix @ z[-p:] + offset``.

    ``z`` is one path of shape (n,) or a stack of paths of shape (n, m),
    forecast column by column.  Affine in ``z`` by construction, so
    superposition (up to the constant term) holds exactly for any fitted
    rule.
    """
    z = np.asarray(z, dtype=float)
    fitted, p = rule.matrix.shape
    if not 1 <= horizon <= fitted:
        raise ForecastError(
            f"{rule.kind} rule was fitted for horizons 1..{fitted}, asked for {horizon}"
        )
    if z.ndim not in (1, 2) or z.shape[0] < p:
        raise ForecastError(f"{rule.kind} application needs at least {p} observations")
    offset = rule.offset[:horizon]
    out = rule.matrix[:horizon] @ z[z.shape[0] - p :]
    return out + (offset if z.ndim == 1 else offset[:, None])


@dataclass(frozen=True)
class ComposedForecaster:
    """Null-route continuation plus a frozen data-driven rule on the rest.

    With the rule's coefficients fixed, applying the composed operator is
    affine in the input path, which is what makes it reusable on paths other
    than the one it was fitted on.
    """

    rule: ForecastRule
    basis: SpectralBasis

    def apply(self, r: np.ndarray, horizon: int) -> np.ndarray:
        """Forecast a path of shape (n,) or each column of an (n, m) stack."""
        r = np.asarray(r, dtype=float)
        if r.ndim not in (1, 2) or r.shape[0] != self.basis.n:
            raise ForecastError(
                f"path length {r.shape} does not match basis size {self.basis.n}"
            )
        null_part = self.basis.project_null(r)
        rest = r - null_part
        return null_continuation(null_part, self.rule.q, horizon) + apply_rule(
            self.rule, rest, horizon
        )


def fit_composed(
    rule_kind: str,
    q: int,
    basis: SpectralBasis,
    r_pre: np.ndarray,
    horizon: int,
    order: int = 4,
    lags: int = 4,
) -> ComposedForecaster:
    """Fit the data-driven rule on ``Pperp r_pre`` and freeze the composition."""
    r_pre = np.asarray(r_pre, dtype=float)
    if r_pre.shape != (basis.n,):
        raise ForecastError(
            f"path length {r_pre.shape} does not match basis size {basis.n}"
        )
    rest = basis.project_perp(r_pre)
    # Projection of a path that already lies in the null space leaves only
    # floating-point dust; fitting an autoregression to that dust produces
    # arbitrary coefficients (and spurious nonstationarity warnings), so a
    # negligible remainder is treated as exactly zero.
    if np.abs(rest).max() <= 1e-12 * (1.0 + np.abs(r_pre).max()):
        rest = np.zeros_like(rest)
    rule = fit_rule(rule_kind, q, rest, horizon, order=order, lags=lags)
    return ComposedForecaster(rule=rule, basis=basis)


def compose(
    rule_kind: str,
    q: int,
    basis: SpectralBasis,
    r_pre: np.ndarray,
    horizon: int,
    order: int = 4,
    lags: int = 4,
) -> np.ndarray:
    """Admissible forecast of ``r_pre``: exact null continuation + fitted rule."""
    forecaster = fit_composed(
        rule_kind, q, basis, r_pre, horizon, order=order, lags=lags
    )
    return forecaster.apply(r_pre, horizon)
