"""Error anatomy for fits on panels with known latent structure.

When the outcome panel is simulated, its systematic (smooth, donor-spanned)
and idiosyncratic (rough) components are available separately, and the
post-period error of a fit can be split exactly into

* a *weight-gap* term: the infeasible best weights minus the fitted ones,
  routed through the donor cross-section, and
* a *continuation* term: what the smoother-plus-forecast pipeline leaves
  behind even with the best weights.

The two add up to the realized error path.  On top of the split, each
channel of the weight gap gets a computable bound, which multiplies out to
an envelope on the weight-gap term itself.

``decompose`` runs a replication in one pass (see there); a single fit is
its grid of one.

Everything here requires the latent truth and is meant for simulation
studies; none of it runs on observed data alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import forecast, hsc, qp, spectral
from .panel import PrePostView, check_levels

__all__ = [
    "LatentPanel",
    "DecompReport",
    "DEFAULT_RHO_GRID",
    "oracle_weights",
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
        check_levels(signal=sig, remainder=rem)
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
    untouched by the idiosyncratic part.  ``zeta`` must be finite and
    nonnegative.
    """
    if isinstance(zeta, str):  # no data-driven default without a view
        raise ValueError(f"zeta must be a number, got {zeta!r}")
    hsc.check_zeta(zeta)
    basis = spectral.spectral_basis(latent.t0, q)
    sig = latent.signal[: latent.t0]
    ridge = zeta * zeta * latent.t0
    return hsc.fit_path(sig[:, 0], sig[:, 1:], basis, 1.0, ridge)[0].weights


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


def _oracle_parts(
    latent: LatentPanel, basis: spectral.SpectralBasis, w: np.ndarray
) -> _OracleParts:
    t0 = latent.t0
    sig, rem = latent.signal, latent.remainder
    e_signal = sig[:t0, 0] - sig[:t0, 1:] @ w
    e_remainder = rem[:t0, 0] - rem[:t0, 1:] @ w
    view = latent.to_view()
    r_pre = view.y_pre - view.x_pre @ w
    r_post = view.y_post - view.x_post @ w
    null_part = basis.project_null(r_pre)
    eta_pre = r_pre - null_part
    eta_post = r_post - forecast.null_continuation(null_part, basis.q, latent.t_post)
    return _OracleParts(
        weights=w,
        e_signal=e_signal,
        e_remainder=e_remainder,
        r_pre=r_pre,
        r_post=r_post,
        eta_pre=eta_pre,
        eta_post=eta_post,
    )


def _forecasts(
    forecaster: forecast.ComposedForecaster,
    basis: spectral.SpectralBasis,
    shrink: np.ndarray,
    horizon: int,
    *paths: np.ndarray,
) -> tuple[np.ndarray, list]:
    """Forecast maps ``pi`` (G, h, n) and each grid point's own forecasts.

    Grid point g smooths with the gains ``shrink[g]`` and forecasts with
    rule g of ``forecaster`` (its only rule, for a grid of one).  With its
    coefficients frozen the forecaster is affine, so one application to
    ``[0 | I | *paths]`` gives its value at zero, its action on the identity
    and every path's forecast.  The linear part (identity minus zero) times
    ``V diag(s_g) V'`` is ``pi[g]``; column g of each stack in ``paths``
    (n, G), forecast by rule g, is row g of its (G, h) forecasts.
    """
    n, g = basis.n, shrink.shape[0]
    v = basis.eigenvectors
    inputs = np.column_stack([np.zeros(n), np.eye(n), *paths])
    out = forecaster.apply(inputs, horizon).reshape(g, horizon, -1)
    pi = ((out[:, :, 1 : n + 1] - out[:, :, :1]) @ v * shrink[:, None, :]) @ v.T
    own = [np.diagonal(out[:, :, k : k + g], axis1=0, axis2=2).T
           for k in range(n + 1, out.shape[2], g)]
    return pi, own


def _split(
    latent: LatentPanel,
    parts: _OracleParts,
    basis: spectral.SpectralBasis,
    shrink: np.ndarray,
    weights: np.ndarray,
    smooth: np.ndarray,
    forecaster: forecast.ComposedForecaster,
) -> tuple[np.ndarray, dict]:
    """The forecast maps ``pi`` and ``term_a``, ``term_b`` and
    ``realized_error`` along a grid, (G, h) each, for the fits with weights
    ``weights`` (G, donors), smooth parts ``smooth`` (n, G) and forecast
    rules ``forecaster``: one :func:`_forecasts` application."""
    view = latent.to_view()
    v = basis.eigenvectors
    smoothed = v @ (shrink.T * (v.T @ parts.r_pre)[:, None])  # S_g r_pre
    pi, (own, own_smoothed) = _forecasts(
        forecaster, basis, shrink, latent.t_post, smooth, smoothed
    )
    gap = (parts.weights - weights)[:, :, None]
    return pi, {
        "term_a": ((view.x_post - pi @ view.x_pre) @ gap)[:, :, 0],
        "term_b": parts.r_post - own_smoothed,
        "realized_error": view.y_post - (weights @ view.x_post.T + own),
    }


def _gradients(
    latent: LatentPanel,
    basis: spectral.SpectralBasis,
    match: np.ndarray,
    parts: _OracleParts,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three gradient pieces that separate the fitted program from the
    infeasible one, evaluated at the oracle weights of ``parts``, at each
    row of metric gains ``match``: (G, donors) each.

    Returned unscaled; half their negative sum is the gradient difference
    between the feasible objective and the oracle one.
    """
    t0 = latent.t0
    v = basis.eigenvectors

    def metric_apply(r: np.ndarray) -> np.ndarray:  # row g is W_g r
        return (match * (v.T @ r)) @ v.T

    w_e_signal = metric_apply(parts.e_signal)
    g1 = (w_e_signal - basis.project_perp(parts.e_signal)) @ latent.signal[:t0, 1:]
    g2 = w_e_signal @ latent.remainder[:t0, 1:]
    g3 = metric_apply(parts.e_remainder) @ latent.to_view().x_pre
    return g1, g2, g3


def _channel_bounds(
    latent: LatentPanel,
    parts: _OracleParts,
    basis: spectral.SpectralBasis,
    match: np.ndarray,
    zeta: float,
    gram: np.ndarray,
    pi: np.ndarray,
) -> dict:
    """The channel fields of :class:`DecompReport` at each row of metric
    gains ``match``, program grams ``gram`` (:func:`hsc.programs` on the
    observed panel, exactly symmetric) and forecast maps ``pi``, one (G,)
    array per field.  The curvature is ``gram / T0 + zeta^2 I``."""
    t0 = latent.t0
    view = latent.to_view()
    v = basis.eigenvectors
    g1, g2, g3 = _gradients(latent, basis, match, parts)

    q_mat = gram / t0 + zeta * zeta * np.eye(latent.n_donors)
    evals, evecs = np.linalg.eigh(q_mat)
    keep = evals > 1e-12 * np.maximum(evals[:, -1:], 0.0)
    if not keep.any(axis=1).all():
        raise ValueError("curvature matrix is numerically zero; nothing to invert")
    inv = np.where(keep, 1.0 / np.where(keep, evals, 1.0), 0.0)
    q_max_inv_eig = inv.max(axis=1)

    def dual_norm(g: np.ndarray) -> np.ndarray:
        coef = (g[:, None, :] @ evecs)[:, 0]
        return np.sqrt(np.sum(inv * coef * coef, axis=1))

    a1 = dual_norm(g1) / t0
    a2 = dual_norm(g2) / t0
    coef = v.T @ parts.e_remainder
    a3 = np.sqrt(np.sum(match * coef * coef, axis=1) / t0)

    scaled = ((view.x_post - pi @ view.x_pre) @ evecs) * np.sqrt(inv)[:, None, :]
    transfer = np.linalg.norm(scaled, 2, axis=(1, 2))
    return dict(
        a1=a1, a2=a2, a3=a3, q_max_inv_eig=q_max_inv_eig, transfer=transfer,
        envelope=transfer * (a1 + a2 + a3), pseudo_inverse=~keep.all(axis=1),
        condition=evals[:, -1] * q_max_inv_eig,
    )


@dataclass(frozen=True)
class DecompReport:
    """Grid sweep of the error split and channel bounds.

    Row ``g`` of every array belongs to ``rho_grid[g]``.  The oracle pieces
    are grid-independent and stored once.

    ``term_a + term_b`` reproduces ``realized_error`` (the treated unit's
    counterfactual outcome minus the fitted one) up to round-off.  ``a1``
    tracks smoothing distortion of the signal mismatch, ``a2`` its leakage
    through the rough donor paths, ``a3`` the rough mismatch seen through
    the matching metric.  ``transfer`` is the operator norm that carries
    weight-space error into the post period; ``envelope`` is their product
    bound on ``term_a``.  When the ridge level is zero the curvature matrix
    may be singular; ``pseudo_inverse`` flags that the rank-truncated
    inverse was used, and ``condition`` reports the spread of the retained
    spectrum.
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
    oracle, so differences along the grid isolate the smoothing level.  The
    replication is one pass: the grid's programs on the observed panel and
    the oracle's (rho = 1 on the signal panel, same basis and ridge), both
    from :func:`hsc.programs`, solve as one :func:`qp.solve` stack; one
    forecaster is fitted on the stack of smooth parts (one rule per rho)
    and applied once (:func:`_forecasts`); the split and channel bounds
    carry a leading grid axis, the curvature taken from the programs' grams.
    """
    hsc.check_candidate(q, rule_kind)
    hsc.check_zeta(zeta)
    if latent.t0 < q + 2:
        raise ValueError(
            f"need at least q+2 = {q + 2} pre-treatment periods, got {latent.t0}"
        )
    grid = np.asarray(DEFAULT_RHO_GRID if rho_grid is None else rho_grid, dtype=float)
    basis = spectral.spectral_basis(latent.t0, q)
    shrink, match = spectral.path_gains(basis, grid)  # checks the grid
    view = latent.to_view()
    zeta_val = hsc.resolve_zeta(zeta, view.x_pre, view.t_post)

    sig = latent.signal[: latent.t0]
    u, *grid_program = hsc.programs(view.y_pre, view.x_pre, basis, match)
    _, *oracle_program = hsc.programs(
        sig[:, 0], sig[:, 1:], basis, spectral.path_gains(basis, (1.0,))[1]
    )
    problem = qp.SimplexQP(
        *map(np.concatenate, zip(grid_program, oracle_program)),
        ridge=zeta_val * zeta_val * latent.t0,
    )
    solution = qp.solve(problem)
    weights = solution.weights[:-1]
    parts = _oracle_parts(latent, basis, solution.weights[-1])
    smooth = hsc.smooth_parts(basis, u, shrink, weights)
    forecaster = forecast.fit_composed(rule_kind, basis, smooth, latent.t_post)
    pi, split = _split(latent, parts, basis, shrink, weights, smooth, forecaster)
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
        rmse=np.sqrt(np.mean(split["realized_error"] ** 2, axis=1)),
        **split,
        **_channel_bounds(
            latent, parts, basis, match, zeta_val, problem.gram[:-1], pi
        ),
    )
