"""Admissible forecast continuation of pre-treatment residual paths.

Admissibility means polynomials of degree < q, the order of the spectral
basis, are continued exactly: the composed operator routes the penalty's
null-space component through the closed-form continuation (constants stay
constant, lines stay lines) and hands only the remainder to a rule,

    forecast(r) = continue(P0 r) + rule(Pperp r).

Whatever the rule does to the remainder, the polynomial part is reproduced
without error, so any of the rules below — holding the last value, an
ARIMA(1,1,0) on differences, an AR(4), or Hamilton-style direct h-step
regressions on four lags — becomes admissible once composed.

Every rule is fitted column-wise: :func:`fit_composed` takes one path of
shape (n,) or a stack of paths of shape (n, m), such as the smooth residual
parts along a rho grid, and estimates one rule per column in one pass
(column sums for ``arima110``, one batched least-squares solve for ``ar``
and for each ``hamilton`` horizon, stacked companion eigenvalues for the
``ar`` stationarity check).  A forecaster fitted on a stack holds m rules
and applies each of them to every input path, which adds a leading axis of
length m to the forecasts; :func:`compose` splits a stack once and applies
each rule only to its own column.

A fitted rule is frozen in a :class:`ForecastRule` as an explicit affine
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
#: The ``ar`` lag order and the ``hamilton`` predictor count: the p = 4 of
#: Hamilton's (2018, *REStat* 100(5)) regression rule.
AR_ORDER = HAMILTON_LAGS = 4


class ForecastError(ValueError):
    """Raised on unusable inputs: series too short, bad rule token, etc."""


@dataclass(frozen=True)
class ForecastRule:
    """A fitted forecast rule, frozen as an affine operator.

    The forecast of a path ``z`` is ``matrix @ z[-p:] + offset``, where
    ``matrix`` has shape ``(horizon, p)`` for the fitted horizon and the
    ``p`` tail values the rule reads.  A rule fitted on a stack of m paths
    holds m such operators, ``matrix`` (m, horizon, p) and ``offset``
    (m, horizon).
    """

    kind: str
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
    if not np.isfinite(x).all():
        raise ForecastError("null path must be finite")
    slack = np.abs(np.diff(x, n=q, axis=0)).max(axis=0)
    if (slack > 1e-6 * np.abs(x).max(axis=0)).any():
        raise ForecastError(
            f"input is not in the order-{q} null space "
            f"(difference residual {slack.max():.3e})"
        )
    slope = (q - 1) * (x[-1] - x[-2])  # a constant level has no slope
    return x[-1] + np.multiply.outer(np.arange(1.0, horizon + 1), slope)


def _fit_arima110(z: np.ndarray, horizon: int) -> tuple:
    dz = np.diff(z, axis=0)
    prev, curr = dz[:-1], dz[1:]
    denom = (prev * prev).sum(axis=0)
    # An exactly flat difference path carries no slope information; the
    # continuation degenerates to a constant rather than failing, which
    # keeps heavily smoothed inputs usable.
    phi = np.divide(
        (prev * curr).sum(axis=0), denom, out=np.zeros_like(denom), where=denom > 0.0
    )
    for value in phi[np.abs(phi) >= 1.0]:
        warnings.warn(
            f"arima110 difference coefficient {value:.4f} is nonstationary; "
            "forecasts proceed over the finite horizon",
            RuntimeWarning,
            stacklevel=3,
        )
    # z[-1] + g_h (z[-1] - z[-2]) with g_h = phi + ... + phi^h, as weights
    # on z[-2:].
    g = (phi[:, None] ** np.arange(1, horizon + 1)).cumsum(axis=1)
    return np.stack([-g, 1.0 + g], axis=2), np.zeros(g.shape)


def _solve_regressions(design: np.ndarray, target: np.ndarray, kind: str) -> np.ndarray:
    """Least-squares coefficients of a stack of regressions, one per column.

    ``design`` has shape (m, rows, p) and ``target`` (m, rows).  One batched
    SVD gives each minimum-norm solution, with the singular-value cutoff of
    ``np.linalg.lstsq(..., rcond=None)``.
    """
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    keep = s > np.finfo(float).eps * max(design.shape[1:]) * s[:, :1]
    inverse = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    projected = np.matmul(target[:, None, :], u)[:, 0] * inverse
    coef = np.matmul(projected[:, None, :], vt)[:, 0]
    if not np.isfinite(coef).all():
        raise np.linalg.LinAlgError(f"{kind} regression is singular")
    return coef


def _fit_ar(z: np.ndarray, horizon: int) -> tuple:
    order = AR_ORDER
    n, m = z.shape
    design = np.ones((m, n - order, order + 1))
    for lag in range(1, order + 1):
        design[:, :, lag] = z[order - lag : n - lag].T
    coef = _solve_regressions(design, z[order:].T, "ar")
    # Stationarity check on lambda^p - a_1 lambda^{p-1} - ... - a_p, whose
    # roots are the eigenvalues of its companion matrix.
    companion = np.zeros((m, order, order))
    companion[:, 0] = coef[:, 1:]
    companion[:, 1:, :-1] = np.eye(order - 1)
    modulus = np.abs(np.linalg.eigvals(companion)).max(axis=1)
    for value in modulus[modulus >= 1.0 - 1e-12]:
        warnings.warn(
            f"ar({order}) fit is nonstationary (max root modulus "
            f"{value:.4f}); forecasts proceed",
            RuntimeWarning,
            stacklevel=3,
        )
    # Companion recursion on the unit functionals of (z[-p:], 1): the first
    # p rows are the tail values themselves, row p + h - 1 holds the
    # weights of the h-step forecast on the tail values and the constant.
    rows = np.zeros((m, order + horizon, order + 1))
    rows[:, :order, :order] = np.eye(order)
    lag_coefs = coef[:, None, :0:-1]  # a_p, ..., a_1 against chronological rows
    for t in range(order, order + horizon):
        np.matmul(lag_coefs, rows[:, t - order : t], out=rows[:, t : t + 1])
        rows[:, t, order] += coef[:, 0]
    return rows[:, order:, :order], rows[:, order:, order]


def _fit_hamilton(z: np.ndarray, horizon: int) -> tuple:
    lags = HAMILTON_LAGS
    n, m = z.shape
    table = np.empty((m, horizon, lags + 1))
    for h in range(1, horizon + 1):
        design = np.ones((m, n - h - lags + 1, lags + 1))
        for lag in range(lags):
            design[:, :, lag + 1] = z[lags - 1 - lag : n - h - lag].T
        table[:, h - 1] = _solve_regressions(design, z[lags - 1 + h :].T, "hamilton")
    return table[:, :, :0:-1], table[:, :, 0]


def check_length(rule_kind: str, n: int, horizon: int) -> None:
    """Raise :class:`ForecastError` unless ``horizon`` is positive and ``n``
    observations fit ``rule_kind`` (one of :data:`RULE_KINDS`) for
    ``horizon`` steps: each rule's minimum, written once."""
    if horizon < 1:
        raise ForecastError(f"horizon must be positive, got {horizon}")
    name, need = {
        "last_constant": ("last_constant", 1),
        "arima110": ("arima110", 3),
        "ar": (f"ar({AR_ORDER})", AR_ORDER + 2),
        "hamilton": (f"hamilton with horizon {horizon}", horizon + HAMILTON_LAGS + 1),
    }[rule_kind]
    if n < need:
        raise ForecastError(f"{name} needs at least {need} observations, got {n}")


def fit_rule(rule_kind: str, z: np.ndarray, horizon: int) -> ForecastRule:
    """Estimate a forecast rule on ``z`` and freeze it for ``horizon`` steps.

    ``hamilton`` fits one direct regression per step ahead; the other kinds
    fit one regression and iterate it.  ``z`` is one series (n,) or a stack
    (n, m), which gets one rule per column in one pass.  A regression with
    no finite solution raises ``numpy.linalg.LinAlgError``.
    """
    if rule_kind not in RULE_KINDS:
        raise ForecastError(
            f"unknown forecast rule {rule_kind!r}; choose from {', '.join(RULE_KINDS)}"
        )
    z = np.asarray(z, dtype=float)
    if z.ndim not in (1, 2):
        raise ForecastError("remainder series must be a vector or an (n, m) stack")
    stack = z.reshape(z.shape[0], -1)
    n, m = stack.shape
    check_length(rule_kind, n, horizon)
    if rule_kind == "last_constant":
        fitted = np.ones((m, horizon, 1)), np.zeros((m, horizon))
    else:
        fit = {"arima110": _fit_arima110, "ar": _fit_ar, "hamilton": _fit_hamilton}
        fitted = fit[rule_kind](stack, horizon)
    matrix, offset = fitted if z.ndim == 2 else [part[0] for part in fitted]
    return ForecastRule(kind=rule_kind, matrix=matrix, offset=offset)


def apply_rule(rule: ForecastRule, z: np.ndarray, horizon: int) -> np.ndarray:
    """Forecast ``horizon`` steps from ``z``: ``matrix @ z[-p:] + offset``.

    ``z`` is one path of shape (n,) or a stack of paths of shape (n, k),
    forecast column by column; a rule holding m operators forecasts with
    each of them, in a leading axis of length m.  Affine in ``z`` by
    construction, so superposition (up to the constant term) holds exactly
    for any fitted rule.
    """
    z = np.asarray(z, dtype=float)
    fitted, p = rule.matrix.shape[-2:]
    if not 1 <= horizon <= fitted:
        raise ForecastError(
            f"{rule.kind} rule was fitted for horizons 1..{fitted}, asked for {horizon}"
        )
    if z.ndim not in (1, 2) or z.shape[0] < p:
        raise ForecastError(f"{rule.kind} application needs at least {p} observations")
    offset = rule.offset[..., :horizon]
    out = rule.matrix[..., :horizon, :] @ z[z.shape[0] - p :]
    return out + (offset if z.ndim == 1 else offset[..., None])


@dataclass(frozen=True)
class ComposedForecaster:
    """Null-route continuation plus a frozen data-driven rule on the rest.

    With the rule's coefficients fixed, applying the composed operator is
    affine in the input path, which is what makes it reusable on paths other
    than the one it was fitted on.  A forecaster fitted on a stack of m
    paths holds m rules (see :class:`ForecastRule`).
    """

    rule: ForecastRule
    basis: SpectralBasis

    def apply(self, r: np.ndarray, horizon: int) -> np.ndarray:
        """Forecast a path of shape (n,) or each column of an (n, k) stack.

        Returns (horizon,) or (horizon, k) forecasts, with a leading axis of
        length m when the forecaster holds m rules.
        """
        null_part, rest = _split(self.basis, r)
        return null_continuation(null_part, self.basis.q, horizon) + apply_rule(
            self.rule, rest, horizon
        )


def _split(basis: SpectralBasis, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Null part of each column of a path (n,) or stack (n, m) and its
    remainder, zero where the remainder is negligible against the column:
    dust is fitted and forecast as zero, so every rule continues a path in
    the null space alike, to the bit."""
    r = np.asarray(r, dtype=float)
    if r.ndim not in (1, 2) or r.shape[0] != basis.n:
        raise ForecastError(
            f"path length {r.shape} does not match basis size {basis.n}"
        )
    null_part = basis.project_null(r)
    rest = r - null_part
    return null_part, np.where(
        np.abs(rest).max(axis=0) <= 1e-12 * np.abs(r).max(axis=0), 0.0, rest
    )


def fit_composed(
    rule_kind: str, basis: SpectralBasis, r_pre: np.ndarray, horizon: int
) -> ComposedForecaster:
    """Fit the data-driven rule on ``Pperp r_pre`` and freeze the composition.

    ``r_pre`` is one path (n,) or a stack (n, m) with one rule per column;
    the null-space route continues polynomials of degree < ``basis.q``.
    Projecting a path that already lies in the null space leaves only
    floating-point dust, and an autoregression fitted to dust has arbitrary
    coefficients (and spurious nonstationarity warnings), so a column whose
    remainder is negligible against the column is fitted as exactly zero.
    """
    rule = fit_rule(rule_kind, _split(basis, r_pre)[1], horizon)
    return ComposedForecaster(rule=rule, basis=basis)


def compose(
    rule_kind: str, basis: SpectralBasis, r_pre: np.ndarray, horizon: int
) -> np.ndarray:
    """Admissible forecast of ``r_pre``: exact null continuation + fitted rule.

    ``r_pre`` is one path of shape (n,) or a stack of shape (n, m); each
    column gets its own rule, fitted on that column's remainder, and the
    forecasts come back as (horizon,) or (horizon, m): the
    :func:`fit_composed` forecaster applied to ``r_pre``, each column
    forecast by its own rule only, from one split of the stack.
    """
    null_part, rest = _split(basis, r_pre)
    rule = fit_rule(rule_kind, rest, horizon)
    tail = rest[rest.shape[0] - rule.matrix.shape[-1] :]
    own = np.einsum("...hp,p...->h...", rule.matrix, tail) + rule.offset.T
    return null_continuation(null_part, basis.q, horizon) + own
