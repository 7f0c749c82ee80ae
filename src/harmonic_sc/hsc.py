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
:func:`fit_path` is the one weight path: it solves the profiled program
along a rho grid, and :func:`fit` (a grid of one), the oracle weights of
``decomp`` and the cross-validation of ``tuning`` all go through it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from harmonic_sc import forecast, qp, spectral
from harmonic_sc.panel import PrePostView


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
    ar_order: int = 4
    hamilton_lags: int = 4

    def __post_init__(self) -> None:
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must lie in [0, 1], got {self.rho}")
        spectral._check_order(self.q)
        if self.rule_kind not in forecast.RULE_KINDS:
            raise ValueError(
                f"unknown forecast rule {self.rule_kind!r}; choose from "
                f"{', '.join(forecast.RULE_KINDS)}"
            )
        if isinstance(self.zeta, str):
            if self.zeta != "auto":
                raise ValueError(f'zeta must be a number or "auto", got {self.zeta!r}')
        elif not np.isfinite(self.zeta) or self.zeta < 0:
            raise ValueError(f"zeta must be finite and nonnegative, got {self.zeta}")


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


def fit_path(
    y: np.ndarray,
    x: np.ndarray,
    basis: spectral.SpectralBasis,
    rho_grid,
    ridge: float,
):
    """Profiled donor weights along ``rho_grid``, one grid point at a time.

    ``V'y`` and ``V'X`` (the series in the penalty eigenbasis) are formed
    once; at each rho their rows are rescaled by sqrt(match_gains), which
    turns the metric objective into an ordinary least-squares program, and
    the solve starts from the previous rho's weights (neighbouring grid
    points share, or nearly share, the optimal face).

    Yields ``(solution, r, e)`` per rho: the :class:`qp.QPSolution`, the
    residual ``r = y - X w`` and its smooth part
    ``e = V diag(s) (V'y - V'X w)``.
    """
    v = basis.eigenvectors
    u_y = v.T @ y
    u_x = v.T @ x
    weights = None
    for rho in rho_grid:
        metric = spectral.rho_metric(basis, rho)
        root = np.sqrt(metric.match_gains)
        problem = qp.build(root * u_y, root[:, None] * u_x, ridge)
        solution = qp.solve(problem, init=weights)
        weights = solution.weights
        e = v @ (metric.shrink_gains * (u_y - u_x @ weights))
        yield solution, y - x @ weights, e


def fit(view: PrePostView, cfg: HscConfig) -> HscFit:
    """Estimate weights, extract the smooth component, build the counterfactual.

    Raises
    ------
    ValueError
        If the pre-period is shorter than q+2.
    harmonic_sc.qp.SolverStall, harmonic_sc.forecast.ForecastError
        Propagated from the weight solver and the forecast rule.
    """
    y = np.asarray(view.y_pre, dtype=float)
    x = np.asarray(view.x_pre, dtype=float)
    t0 = y.shape[0]
    if x.shape[0] != t0:
        raise ValueError("y_pre and x_pre disagree on the pre-period length")
    if t0 < cfg.q + 2:
        raise ValueError(
            f"need at least q+2 = {cfg.q + 2} pre-treatment periods, got {t0}"
        )
    t_post = view.y_post.shape[0]

    zeta = auto_zeta(x, t_post) if cfg.zeta == "auto" else float(cfg.zeta)
    basis = spectral.spectral_basis(t0, cfg.q)
    solution, r_pre, e_pre = next(
        fit_path(y, x, basis, (cfg.rho,), zeta * zeta * t0)
    )
    w_hat = solution.weights
    u_pre = r_pre - e_pre

    forecaster = forecast.fit_composed(
        cfg.rule_kind,
        cfg.q,
        basis,
        e_pre,
        t_post,
        order=cfg.ar_order,
        lags=cfg.hamilton_lags,
    )
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
