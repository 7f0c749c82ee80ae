"""The harmonic synthetic control estimator.

For a mixing weight rho in [0, 1], donor weights solve the profiled program

    min_{w in simplex}  r(w)' W_rho r(w) + zeta^2 T0 ||w||^2,
    r(w) = y_pre - X_pre w,

where W_rho interpolates between the squared-difference metric at rho=0 and
the demeaning/detrending projector at rho=1.  The fitted residual is then
split into a smooth component ``e_pre = S_rho r`` and a rough remainder, and
the counterfactual continues the smooth component with an admissible
forecast rule:

    counterfactual = X_post w + forecast(e_pre).

Everything here works in the penalty eigenbasis, so the smoother and metric
are diagonal rescalings; no T0 x T0 system is ever solved per candidate rho.
:func:`programs` assembles the profiled program of every rho of a grid in
one batched product, and :func:`fit_path` solves them as one stack of
simplex QPs and returns the weights and smooth parts (:func:`smooth_parts`)
as arrays (one row, respectively column, per rho); :func:`fit` and the
oracle weights (one rho) and the cross-validation of ``tuning`` (each fold
started from the previous fold's weights) go through ``fit_path``, and
``decomp.decompose`` solves its grid's programs and the oracle's as one
stack.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from harmonic_sc import forecast, qp, spectral
from harmonic_sc.panel import PrePostView, check_levels


@dataclass(frozen=True)
class HscConfig:
    """Estimator settings: mixing weight, smoothness order, forecast rule.

    ``zeta`` is the ridge strength; the string ``"auto"`` selects the
    data-driven default ``t_post**0.25 * sd(diff(X_pre))`` at fit time.
    """

    rho: float
    q: int = 1
    rule_kind: str = "last_constant"
    zeta: float | str = "auto"

    def __post_init__(self) -> None:
        spectral.check_grid((self.rho,))
        check_candidate(self.q, self.rule_kind)
        check_zeta(self.zeta)


@dataclass(frozen=True)
class HscFit:
    """Fitted estimator state.

    The additive identities ``r_pre = e_pre + u_pre`` and
    ``counterfactual = donor_component + forecast_component`` hold exactly
    (the right-hand sides are how the left-hand sides are computed).
    """

    config: HscConfig
    zeta: float
    weights: np.ndarray
    r_pre: np.ndarray
    e_pre: np.ndarray
    u_pre: np.ndarray
    counterfactual: np.ndarray
    donor_component: np.ndarray
    forecast_component: np.ndarray
    forecaster: forecast.ComposedForecaster
    solution: qp.QPSolution


#: Numerical failures of a fit past :func:`check_window`.  Callers catch these
#: and nothing broader, so a ``ValueError`` from array code (a bug) propagates.
NUMERICAL_FAILURES = (qp.SolverStall, spectral.EigenSolverError, np.linalg.LinAlgError)


def check_candidate(q, rule_kind) -> None:
    """Raise ``ValueError`` unless ``q`` is a penalty order (1 or 2) and
    ``rule_kind`` one of :data:`forecast.RULE_KINDS`."""
    spectral._check_order(q)
    if rule_kind not in forecast.RULE_KINDS:
        raise ValueError(
            f"unknown forecast rule {rule_kind!r}; choose from "
            f"{', '.join(forecast.RULE_KINDS)}"
        )


def check_window(n: int, q: int, rule_kind: str, horizon: int) -> None:
    """Raise ``ValueError`` unless ``n`` pre-treatment periods fit a checked
    candidate: ``n >= q + 2``, and :func:`forecast.check_length` at ``horizon``."""
    if n < q + 2:
        raise ValueError(f"q={q} needs q+2 = {q + 2} pre-treatment periods, got {n}")
    forecast.check_length(rule_kind, n, horizon)


def check_zeta(zeta) -> None:
    """Raise ``ValueError`` unless ``zeta`` is ``"auto"`` or a finite
    nonnegative number."""
    if isinstance(zeta, str):
        if zeta != "auto":
            raise ValueError(f'zeta must be a number or "auto", got {zeta!r}')
    elif not np.isfinite(zeta) or zeta < 0:
        raise ValueError(f"zeta must be finite and nonnegative, got {zeta}")


def resolve_zeta(zeta, x_pre: np.ndarray, t_post: int) -> float:
    """The ridge strength a checked ``zeta`` names: :func:`auto_zeta` of
    ``x_pre`` and ``t_post`` for ``"auto"``, else the number itself."""
    return auto_zeta(x_pre, t_post) if isinstance(zeta, str) else float(zeta)


def auto_zeta(x_pre: np.ndarray, t_post: int) -> float:
    """Default ridge strength ``t_post**0.25 * sd(vec(diff(X_pre, axis=0)))``.

    The standard deviation uses the sample convention (denominator
    ``count - 1``).  A donor matrix constant in time yields zero and is
    flagged with a warning, since the ridge then vanishes.
    """
    x = np.asarray(x_pre, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("x_pre must be a matrix with at least 2 rows")
    if t_post < 1:
        raise ValueError(f"t_post must be positive, got {t_post}")
    sigma = float(np.std(np.diff(x, axis=0), ddof=1))
    if sigma == 0.0:
        warnings.warn(
            "donor matrix is constant in time; auto zeta degenerates to 0",
            RuntimeWarning,
            stacklevel=2,
        )
    return float(t_post) ** 0.25 * sigma


def programs(
    y: np.ndarray, x: np.ndarray, basis: spectral.SpectralBasis, match: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The profiled programs of ``y`` on ``x`` at each row of metric gains
    ``match`` (from :func:`spectral.path_gains`).

    The series enter once, as their eigen-coordinates ``U = V'[X, y]``.
    Scaling the rows of ``U`` by sqrt(match_gains) turns the metric
    objective into least squares, so one batched product ``A'A`` with
    ``A = sqrt(w_g) U`` (exactly symmetric, as NumPy computes it by syrk)
    holds every program's gram, ``-linear`` and offset.

    Returns ``(U, gram, linear, offset)``, the coefficients with the leading
    axes of ``match``: a :class:`qp.SimplexQP` stack once a ridge is added.
    """
    n = x.shape[1]
    u = basis.eigenvectors.T @ np.column_stack([x, y])
    a = np.einsum("...t,tk->...tk", np.sqrt(match), u)
    ax, ay = a[..., :n], a[..., n]
    gram = np.matmul(ax.swapaxes(-1, -2), ax)
    linear = -np.matmul(ay[..., None, :], ax)[..., 0, :]
    return u, gram, linear, np.einsum("...t,...t->...", ay, ay)


def smooth_parts(
    basis: spectral.SpectralBasis,
    u: np.ndarray,
    shrink: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """Smooth parts ``E[:, g] = V diag(s_g) (V'y - V'X w_g)`` (T0 x G) of the
    residuals under weights ``weights`` (G x n), from ``U`` of
    :func:`programs` and the smoother gains ``shrink`` (G x T0)."""
    n = weights.shape[1]
    return basis.eigenvectors @ (shrink.T * (u[:, n:] - u[:, :n] @ weights.T))


def fit_path(
    y: np.ndarray,
    x: np.ndarray,
    basis: spectral.SpectralBasis,
    rho_grid,
    ridge: float,
    init: np.ndarray | None = None,
) -> tuple[qp.QPSolution, np.ndarray]:
    """Profiled donor weights and smooth residual parts along ``rho_grid``.

    The programs come from :func:`programs` and :func:`qp.solve` solves
    them as one stack from ``init`` (one start per rho; by default each
    program starts at its best vertex).

    Returns ``(solution, smooth)``: the stacked :class:`qp.QPSolution`,
    whose weights ``W`` hold one row per rho, and the smooth parts ``E``
    (T0 x G) of the residuals (:func:`smooth_parts`).  A scalar rho gives
    one program and unstacked results.
    """
    shape = np.shape(rho_grid)
    shrink, match = spectral.path_gains(basis, np.atleast_1d(rho_grid))
    u, gram, linear, offset = programs(y, x, basis, match.reshape(*shape, -1))
    solution = qp.solve(qp.SimplexQP(gram, linear, offset, float(ridge)), init=init)
    weights = solution.weights.reshape(-1, x.shape[1])
    return solution, smooth_parts(basis, u, shrink, weights).reshape(basis.n, *shape)


def fit(view: PrePostView, cfg: HscConfig) -> HscFit:
    """Estimate weights, extract the smooth component, build the counterfactual.

    Raises
    ------
    ValueError
        If a block of the view is not finite or exceeds
        ``panel.MAX_LEVEL``, or the pre-period fails :func:`check_window`.
    NUMERICAL_FAILURES
        Propagated from the basis, the weight solver and the forecast rule.
    """
    check_levels(
        y_pre=view.y_pre, x_pre=view.x_pre, y_post=view.y_post, x_post=view.x_post
    )
    y = np.asarray(view.y_pre, dtype=float)
    x = np.asarray(view.x_pre, dtype=float)
    t0 = y.shape[0]
    if x.shape[0] != t0:
        raise ValueError("y_pre and x_pre disagree on the pre-period length")
    t_post = view.y_post.shape[0]
    check_window(t0, cfg.q, cfg.rule_kind, t_post)

    zeta = resolve_zeta(cfg.zeta, x, t_post)
    basis = spectral.spectral_basis(t0, cfg.q)
    solution, e_pre = fit_path(y, x, basis, cfg.rho, zeta * zeta * t0)
    w_hat = solution.weights
    r_pre = y - x @ w_hat
    u_pre = r_pre - e_pre

    forecaster = forecast.fit_composed(cfg.rule_kind, basis, e_pre, t_post)
    forecast_component = forecaster.apply(e_pre, t_post)
    donor_component = np.asarray(view.x_post, dtype=float) @ w_hat

    return HscFit(
        config=cfg,
        zeta=zeta,
        weights=w_hat,
        r_pre=r_pre,
        e_pre=e_pre,
        u_pre=u_pre,
        counterfactual=donor_component + forecast_component,
        donor_component=donor_component,
        forecast_component=forecast_component,
        forecaster=forecaster,
        solution=solution,
    )
