"""Error anatomy for fits on panels with known latent structure.

When the outcome panel is simulated, its systematic (smooth, donor-spanned)
and idiosyncratic (rough) components are available separately, and the
post-period error of a fit can be split exactly into

* a *weight-gap* term: the infeasible best weights minus the fitted ones,
  routed through the donor cross-section, and
* a *continuation* term: what the smoother-plus-forecast pipeline leaves
  behind even with the best weights.

The two add up to the realized error path.  On top of the split, each
channel of the weight gap gets a computable bound (``channels``), which
multiplies out to an envelope on the weight-gap term itself.

Everything here requires the latent truth and is meant for simulation
studies; none of it runs on observed data alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import forecast, hsc, spectral
from .panel import PrePostView

__all__ = [
    "LatentPanel",
    "AbTerms",
    "ChannelReport",
    "DecompReport",
    "DEFAULT_RHO_GRID",
    "oracle_weights",
    "ab_decompose",
    "gradient_channels",
    "channels",
    "decompose",
]

#: Default evaluation grid: dense near 1 where the fits change fastest.
DEFAULT_RHO_GRID = (
    0.0,
    0.05,
    0.1,
    0.2,
    0.3,
    0.4,
    0.5,
    0.6,
    0.7,
    0.8,
    0.85,
    0.9,
    0.93,
    0.95,
    0.97,
    0.98,
    0.99,
    0.995,
    1.0,
)


@dataclass(frozen=True)
class LatentPanel:
    """An outcome panel together with its simulated decomposition.

    ``signal`` holds the systematic component (treated unit in column 0,
    donors after it), ``remainder`` the idiosyncratic one; the observed
    outcome is their sum.  ``t0`` is the number of pre-treatment rows.
    """

    signal: np.ndarray
    remainder: np.ndarray
    t0: int

    def __post_init__(self) -> None:
        sig = np.asarray(self.signal, dtype=float)
        rem = np.asarray(self.remainder, dtype=float)
        if sig.ndim != 2 or rem.ndim != 2:
            raise ValueError("signal and remainder must be 2-D arrays")
        if sig.shape != rem.shape:
            raise ValueError(
                f"signal shape {sig.shape} != remainder shape {rem.shape}"
            )
        if sig.shape[1] < 2:
            raise ValueError("need a treated column plus at least one donor")
        if not (np.all(np.isfinite(sig)) and np.all(np.isfinite(rem))):
            raise ValueError("latent components must be finite")
        if not 0 < self.t0 < sig.shape[0]:
            raise ValueError(
                f"t0 must split the {sig.shape[0]} rows into two non-empty blocks"
            )
        object.__setattr__(self, "signal", sig)
        object.__setattr__(self, "remainder", rem)

    @property
    def observed(self) -> np.ndarray:
        return self.signal + self.remainder

    @property
    def t_post(self) -> int:
        return self.signal.shape[0] - self.t0

    @property
    def n_donors(self) -> int:
        return self.signal.shape[1] - 1

    def to_view(self) -> PrePostView:
        obs = self.observed
        return PrePostView(
            y_pre=obs[: self.t0, 0],
            x_pre=obs[: self.t0, 1:],
            y_post=obs[self.t0 :, 0],
            x_post=obs[self.t0 :, 1:],
        )


def oracle_weights(latent: LatentPanel, q: int, zeta: float) -> np.ndarray:
    """Infeasible best weights: fit the signal panel at full matching.

    Runs the same ridge-penalized simplex program as the estimator at
    ``rho = 1``, but on the systematic component only, so the weights are
    untouched by the idiosyncratic part.
    """
    basis = spectral.spectral_basis(latent.t0, q)
    sig = latent.signal[: latent.t0]
    _, weights, _ = hsc.fit_path(
        sig[:, 0], sig[:, 1:], basis, (1.0,), zeta * zeta * latent.t0
    )
    return weights[0]


@dataclass(frozen=True)
class _OracleParts:
    """Residual pieces under the oracle weights, reused across diagnostics."""

    weights: np.ndarray
    e_signal: np.ndarray  # pre-period signal mismatch
    e_remainder: np.ndarray  # pre-period idiosyncratic mismatch
    r_pre: np.ndarray  # observed pre residual (= e_signal + e_remainder)
    r_post: np.ndarray  # observed post residual
    eta_pre: np.ndarray  # r_pre minus its null-space part
    eta_post: np.ndarray  # r_post minus the null continuation


def _oracle_parts(latent: LatentPanel, q: int, zeta: float) -> _OracleParts:
    w = oracle_weights(latent, q, zeta)
    t0 = latent.t0
    sig, rem = latent.signal, latent.remainder
    e_signal = sig[:t0, 0] - sig[:t0, 1:] @ w
    e_remainder = rem[:t0, 0] - rem[:t0, 1:] @ w
    view = latent.to_view()
    r_pre = view.y_pre - view.x_pre @ w
    r_post = view.y_post - view.x_post @ w
    basis = spectral.spectral_basis(t0, q)
    null_part = basis.project_null(r_pre)
    eta_pre = r_pre - null_part
    eta_post = r_post - forecast.null_continuation(null_part, q, latent.t_post)
    return _OracleParts(
        weights=w,
        e_signal=e_signal,
        e_remainder=e_remainder,
        r_pre=r_pre,
        r_post=r_post,
        eta_pre=eta_pre,
        eta_post=eta_post,
    )


def _materialize_map(
    forecaster: forecast.ComposedForecaster,
    metric: spectral.RhoMetric,
    horizon: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Linear part and offset of path -> forecast-of-smoothed-path.

    The composed forecaster with frozen coefficients is affine, so the whole
    pipeline is pinned down by its action on the smoother's columns, applied
    as one stack, minus its value at zero.  Returns ``(pi, offset)`` with
    the map being ``r -> pi @ r + offset``.
    """
    v = metric.basis.eigenvectors
    smoother = (v * metric.shrink_gains) @ v.T
    offset = forecaster.apply(np.zeros(metric.basis.n), horizon)
    return forecaster.apply(smoother, horizon) - offset[:, None], offset


@dataclass(frozen=True)
class AbTerms:
    """Exact two-way split of a fit's post-period error.

    ``term_a + term_b`` reproduces ``realized_error`` (the treated unit's
    counterfactual outcome minus the fitted one) up to round-off.
    """

    term_a: np.ndarray
    term_b: np.ndarray
    realized_error: np.ndarray
    oracle_weights: np.ndarray
    eta_pre: np.ndarray
    eta_post: np.ndarray


def ab_decompose(latent: LatentPanel, fit: hsc.HscFit) -> AbTerms:
    """Split the fit's error into weight-gap and continuation terms.

    The smoothing level, penalty order, forecast rule, and ridge level all
    come from the fit itself, so the split always describes the estimator
    that was actually run.
    """
    if fit.weights.shape != (latent.n_donors,) or fit.r_pre.shape != (latent.t0,):
        raise ValueError("fit dimensions do not match the latent panel")
    cfg = fit.config
    parts = _oracle_parts(latent, cfg.q, fit.zeta)
    basis = spectral.spectral_basis(latent.t0, cfg.q)
    metric = spectral.rho_metric(basis, cfg.rho)
    pi, _ = _materialize_map(fit.forecaster, metric, latent.t_post)
    return _ab_terms(latent, fit, parts, metric, pi)


def _ab_terms(
    latent: LatentPanel,
    fit: hsc.HscFit,
    parts: _OracleParts,
    metric: spectral.RhoMetric,
    pi: np.ndarray,
) -> AbTerms:
    """:func:`ab_decompose` given the oracle parts and the fit's forecast map."""
    view = latent.to_view()
    term_a = (view.x_post - pi @ view.x_pre) @ (parts.weights - fit.weights)
    smoothed = spectral.smoother_apply(metric, parts.r_pre)
    term_b = parts.r_post - fit.forecaster.apply(smoothed, latent.t_post)
    realized = view.y_post - fit.counterfactual
    return AbTerms(
        term_a=term_a,
        term_b=term_b,
        realized_error=realized,
        oracle_weights=parts.weights,
        eta_pre=parts.eta_pre,
        eta_post=parts.eta_post,
    )


def gradient_channels(
    latent: LatentPanel, rho: float, q: int, zeta: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three gradient pieces that separate the fitted program from the
    infeasible one, evaluated at the oracle weights.

    Returned unscaled; half their negative sum is the gradient difference
    between the feasible objective and the oracle one.
    """
    parts = _oracle_parts(latent, q, zeta)
    basis = spectral.spectral_basis(latent.t0, q)
    metric = spectral.rho_metric(basis, rho)
    return _gradient_channels(latent, metric, parts)


def _gradient_channels(
    latent: LatentPanel, metric: spectral.RhoMetric, parts: _OracleParts
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`gradient_channels` given the metric and the oracle parts."""
    t0 = latent.t0
    l0 = latent.signal[:t0, 1:]
    r0 = latent.remainder[:t0, 1:]
    x_pre = latent.to_view().x_pre
    w_e_signal = spectral.metric_apply(metric, parts.e_signal)
    perp_e_signal = metric.basis.project_perp(parts.e_signal)
    g1 = l0.T @ (w_e_signal - perp_e_signal)
    g2 = r0.T @ w_e_signal
    g3 = x_pre.T @ spectral.metric_apply(metric, parts.e_remainder)
    return g1, g2, g3


@dataclass(frozen=True)
class ChannelReport:
    """Per-channel bounds on the weight gap and their envelope.

    ``a1`` tracks smoothing distortion of the signal mismatch, ``a2`` its
    leakage through the rough donor paths, ``a3`` the rough mismatch seen
    through the matching metric.  ``transfer`` is the operator norm that
    carries weight-space error into the post period; ``envelope`` is their
    product bound on the weight-gap term.  When the ridge level is zero the
    curvature matrix may be singular; ``pseudo_inverse`` flags that the
    rank-truncated inverse was used, and ``condition`` reports the spread of
    the retained spectrum.
    """

    a1: float
    a2: float
    a3: float
    q_max_inv_eig: float
    transfer: float
    envelope: float
    pseudo_inverse: bool
    condition: float


def channels(
    latent: LatentPanel,
    rho: float,
    q: int,
    zeta: float,
    forecaster: forecast.ComposedForecaster | None = None,
) -> ChannelReport:
    """Bound each route by which the fitted weights can drift from the
    oracle ones, and combine the routes into an envelope.

    The envelope multiplies the summed channel bounds by the transfer norm
    of the post-period design, so it dominates the weight-gap term of
    :func:`ab_decompose` whenever both use the same forecaster.  Passing no
    ``forecaster`` uses the parameter-free constant continuation.
    """
    basis = spectral.spectral_basis(latent.t0, q)
    metric = spectral.rho_metric(basis, rho)
    if forecaster is None:
        rule = forecast.fit_rule("last_constant", q, np.zeros(basis.n), latent.t_post)
        forecaster = forecast.ComposedForecaster(rule=rule, basis=basis)
    parts = _oracle_parts(latent, q, zeta)
    pi, _ = _materialize_map(forecaster, metric, latent.t_post)
    return _channel_report(latent, metric, zeta, parts, pi)


def _channel_report(
    latent: LatentPanel,
    metric: spectral.RhoMetric,
    zeta: float,
    parts: _OracleParts,
    pi: np.ndarray,
) -> ChannelReport:
    """:func:`channels` given the oracle parts and the forecast map."""
    t0 = latent.t0
    view = latent.to_view()
    g1, g2, g3 = _gradient_channels(latent, metric, parts)

    design = spectral.sqrt_factor(metric) @ view.x_pre
    q_mat = design.T @ design / t0 + zeta * zeta * np.eye(latent.n_donors)
    q_mat = (q_mat + q_mat.T) / 2.0
    evals, evecs = np.linalg.eigh(q_mat)
    cutoff = 1e-12 * max(evals[-1], 0.0)
    keep = evals > cutoff
    if not np.any(keep):
        raise ValueError("curvature matrix is numerically zero; nothing to invert")
    inv = np.where(keep, 1.0 / np.where(keep, evals, 1.0), 0.0)
    pseudo = bool(np.any(~keep))
    q_max_inv_eig = float(np.max(inv))
    condition = float(evals[-1] * q_max_inv_eig)

    def dual_norm(g: np.ndarray) -> float:
        coef = evecs.T @ g
        return float(np.sqrt(np.sum(inv * coef * coef)))

    a1 = dual_norm(g1) / t0
    a2 = dual_norm(g2) / t0
    a3 = float(
        np.sqrt(spectral.metric_quadform(metric, parts.e_remainder) / t0)
    )

    c_mat = view.x_post - pi @ view.x_pre
    transfer = float(np.linalg.norm((c_mat @ evecs) * np.sqrt(inv), 2))
    envelope = transfer * (a1 + a2 + a3)
    return ChannelReport(
        a1=a1,
        a2=a2,
        a3=a3,
        q_max_inv_eig=q_max_inv_eig,
        transfer=transfer,
        envelope=envelope,
        pseudo_inverse=pseudo,
        condition=condition,
    )


@dataclass(frozen=True)
class DecompReport:
    """Grid sweep of the error split and channel bounds.

    Row ``g`` of every array belongs to ``rho_grid[g]``.  The oracle pieces
    are grid-independent and stored once.
    """

    rho_grid: np.ndarray
    q: int
    rule_kind: str
    zeta: float
    oracle_weights: np.ndarray
    e_signal: np.ndarray
    e_remainder: np.ndarray
    eta_pre: np.ndarray
    eta_post: np.ndarray
    weights: np.ndarray  # (grid, donors)
    term_a: np.ndarray  # (grid, post)
    term_b: np.ndarray  # (grid, post)
    realized_error: np.ndarray  # (grid, post)
    rmse: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    a3: np.ndarray
    q_max_inv_eig: np.ndarray
    transfer: np.ndarray
    envelope: np.ndarray
    pseudo_inverse: np.ndarray
    condition: np.ndarray = field(repr=False)


def decompose(
    latent: LatentPanel,
    q: int = 1,
    rule_kind: str = "last_constant",
    zeta: float | str = "auto",
    rho_grid=None,
) -> DecompReport:
    """Fit across a smoothing grid and split every fit's error.

    The ridge level is resolved once up front (the data-driven default uses
    the observed donor block) and shared by every grid point and by the
    oracle, so differences along the grid isolate the smoothing level.
    """
    view = latent.to_view()
    if rho_grid is None:
        grid = np.array(DEFAULT_RHO_GRID, dtype=float)
    else:
        grid = np.asarray(rho_grid, dtype=float)
        if grid.ndim != 1 or grid.size == 0:
            raise ValueError("rho_grid must be a non-empty 1-D array")
        if np.any(~np.isfinite(grid)) or np.any(grid < 0.0) or np.any(grid > 1.0):
            raise ValueError("rho_grid values must lie in [0, 1]")
        if np.any(np.diff(grid) <= 0.0):
            raise ValueError("rho_grid must be strictly increasing")
    if zeta == "auto":
        zeta_val = hsc.auto_zeta(view.x_pre, view.t_post)
    else:
        zeta_val = float(zeta)
        if zeta_val < 0.0 or not np.isfinite(zeta_val):
            raise ValueError(f"zeta must be finite and nonnegative, got {zeta_val}")

    parts = _oracle_parts(latent, q, zeta_val)
    n_grid = grid.size
    weights = np.empty((n_grid, latent.n_donors))
    term_a = np.empty((n_grid, latent.t_post))
    term_b = np.empty((n_grid, latent.t_post))
    realized = np.empty((n_grid, latent.t_post))
    rmse = np.empty(n_grid)
    a1 = np.empty(n_grid)
    a2 = np.empty(n_grid)
    a3 = np.empty(n_grid)
    q_max_inv = np.empty(n_grid)
    transfer = np.empty(n_grid)
    envelope = np.empty(n_grid)
    pseudo = np.zeros(n_grid, dtype=bool)
    condition = np.empty(n_grid)

    basis = spectral.spectral_basis(latent.t0, q)
    for g, rho in enumerate(grid):
        cfg = hsc.HscConfig(rho=float(rho), q=q, rule_kind=rule_kind, zeta=zeta_val)
        fit = hsc.fit(view, cfg)
        # One oracle solve and one forecast map per grid point serve both
        # the error split and the channel bounds.
        metric = spectral.rho_metric(basis, cfg.rho)
        pi, _ = _materialize_map(fit.forecaster, metric, latent.t_post)
        ab = _ab_terms(latent, fit, parts, metric, pi)
        ch = _channel_report(latent, metric, zeta_val, parts, pi)
        weights[g] = fit.weights
        term_a[g] = ab.term_a
        term_b[g] = ab.term_b
        realized[g] = ab.realized_error
        rmse[g] = float(np.sqrt(np.mean(ab.realized_error**2)))
        a1[g] = ch.a1
        a2[g] = ch.a2
        a3[g] = ch.a3
        q_max_inv[g] = ch.q_max_inv_eig
        transfer[g] = ch.transfer
        envelope[g] = ch.envelope
        pseudo[g] = ch.pseudo_inverse
        condition[g] = ch.condition

    return DecompReport(
        rho_grid=grid,
        q=q,
        rule_kind=rule_kind,
        zeta=zeta_val,
        oracle_weights=parts.weights,
        e_signal=parts.e_signal,
        e_remainder=parts.e_remainder,
        eta_pre=parts.eta_pre,
        eta_post=parts.eta_post,
        weights=weights,
        term_a=term_a,
        term_b=term_b,
        realized_error=realized,
        rmse=rmse,
        a1=a1,
        a2=a2,
        a3=a3,
        q_max_inv_eig=q_max_inv,
        transfer=transfer,
        envelope=envelope,
        pseudo_inverse=pseudo,
        condition=condition,
    )
