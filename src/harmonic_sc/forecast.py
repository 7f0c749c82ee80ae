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
once and freezes them in a :class:`ForecastRule`; :func:`apply_rule` is then
an affine map of its input series, which downstream error accounting relies
on.
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
    """A fitted forecast rule; application is affine in the input series.

    ``fitted_params`` layout by kind:

    - ``last_constant``: empty tuple.
    - ``arima110``: ``(phi,)`` from the no-intercept difference regression.
    - ``ar``: ``(intercept, a_1, …, a_p)``.
    - ``hamilton``: one coefficient tuple ``(b_0, b_1, …, b_lags)`` per
      horizon, fitted by a separate direct regression each.
    """

    kind: str
    q: int
    fitted_params: tuple

    @property
    def order(self) -> int:
        """Autoregressive order (ar) or lag count (hamilton)."""
        if self.kind == "ar":
            return len(self.fitted_params) - 1
        if self.kind == "hamilton":
            return len(self.fitted_params[0]) - 1
        raise AttributeError(f"rule kind {self.kind!r} has no lag order")


def null_continuation(x: np.ndarray, q: int, horizon: int) -> np.ndarray:
    """Continue a null-space path: constant level (q=1) or straight line (q=2).

    The input must lie in the penalty null space (verified to 1e-6); the
    continuation evaluates the same polynomial at the next ``horizon``
    periods: ``x[-1]`` repeated for q=1, ``x[-1] + h*(x[-1]-x[-2])`` for q=2.
    """
    q = _check_order(q)
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < q + 1:
        raise ForecastError(f"null path must be a vector of length > {q}")
    if horizon < 1:
        raise ForecastError(f"horizon must be positive, got {horizon}")
    slack = float(np.max(np.abs(np.diff(x, n=q))))
    if slack > 1e-6 * (1.0 + float(np.max(np.abs(x)))):
        raise ForecastError(
            f"input is not in the order-{q} null space "
            f"(difference residual {slack:.3e})"
        )
    h = np.arange(1, horizon + 1, dtype=float)
    if q == 1:
        return np.full(horizon, x[-1])
    return x[-1] + h * (x[-1] - x[-2])


def _fit_arima110(z: np.ndarray) -> tuple:
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
    return (phi,)


def _solve_regression(design: np.ndarray, target: np.ndarray, kind: str) -> np.ndarray:
    coef, _, _, _ = np.linalg.lstsq(design, target, rcond=None)
    if not np.all(np.isfinite(coef)):
        raise ForecastError(f"{kind} regression is singular")
    return coef


def _fit_ar(z: np.ndarray, order: int) -> tuple:
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
    return tuple(coef)


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
    return tuple(all_coefs)


def fit_rule(
    rule_kind: str,
    q: int,
    z: np.ndarray,
    horizon: int,
    order: int = 4,
    lags: int = 4,
) -> ForecastRule:
    """Estimate a forecast rule on the remainder series ``z``.

    ``horizon`` matters only for ``hamilton``, which fits one direct
    regression per step ahead.  ``order`` is the ar lag order; ``lags`` the
    hamilton predictor count.
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
    elif rule_kind == "arima110":
        if n < 3:
            raise ForecastError(f"arima110 needs at least 3 observations, got {n}")
        params = _fit_arima110(z)
    elif rule_kind == "ar":
        if order < 1:
            raise ForecastError(f"ar order must be positive, got {order}")
        if n < order + 2:
            raise ForecastError(
                f"ar({order}) needs at least {order + 2} observations, got {n}"
            )
        params = _fit_ar(z, order)
    else:
        if lags < 1:
            raise ForecastError(f"hamilton lag count must be positive, got {lags}")
        if n < horizon + lags + 1:
            raise ForecastError(
                f"hamilton with horizon {horizon} needs at least "
                f"{horizon + lags + 1} observations, got {n}"
            )
        params = _fit_hamilton(z, horizon, lags)
    return ForecastRule(kind=rule_kind, q=q, fitted_params=params)


def apply_rule(rule: ForecastRule, z: np.ndarray, horizon: int) -> np.ndarray:
    """Forecast ``horizon`` steps from ``z`` with frozen coefficients.

    Affine in ``z`` by construction, so superposition (up to the constant
    term) holds exactly for any fitted rule.
    """
    z = np.asarray(z, dtype=float)
    n = z.size
    if horizon < 1:
        raise ForecastError(f"horizon must be positive, got {horizon}")

    if rule.kind == "last_constant":
        if n < 1:
            raise ForecastError("last_constant needs at least 1 observation")
        return np.full(horizon, z[-1])

    if rule.kind == "arima110":
        if n < 2:
            raise ForecastError("arima110 application needs at least 2 observations")
        (phi,) = rule.fitted_params
        level = z[-1]
        step = z[-1] - z[-2]
        out = np.empty(horizon)
        for h in range(horizon):
            step *= phi
            level += step
            out[h] = level
        return out

    if rule.kind == "ar":
        coef = np.asarray(rule.fitted_params)
        p = coef.size - 1
        if n < p:
            raise ForecastError(f"ar({p}) application needs at least {p} observations")
        history = list(z[n - p :])
        out = np.empty(horizon)
        for h in range(horizon):
            nxt = coef[0] + float(coef[1:] @ np.asarray(history[::-1]))
            out[h] = nxt
            history.append(nxt)
            history.pop(0)
        return out

    if rule.kind == "hamilton":
        per_horizon = rule.fitted_params
        lags = len(per_horizon[0]) - 1
        if n < lags:
            raise ForecastError(
                f"hamilton application needs at least {lags} observations"
            )
        if horizon > len(per_horizon):
            raise ForecastError(
                f"hamilton rule was fitted for horizons 1..{len(per_horizon)}, "
                f"asked for {horizon}"
            )
        predictors = np.concatenate([[1.0], z[n - lags :][::-1]])
        return np.array(
            [float(np.asarray(per_horizon[h]) @ predictors) for h in range(horizon)]
        )

    raise ForecastError(f"unknown forecast rule {rule.kind!r}")


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
        r = np.asarray(r, dtype=float)
        if r.shape != (self.basis.n,):
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
    if np.max(np.abs(rest)) <= 1e-12 * (1.0 + np.max(np.abs(r_pre))):
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
