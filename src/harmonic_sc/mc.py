"""Simulation harnesses with deterministic, component-keyed seeding.

Two panel designs are provided.  The *grid* design builds outcomes from
three latent factors plus a unit-specific integrated disturbance whose
innovations mix a common and an idiosyncratic shock; its cross-sectional
structure (loadings, treated combination, unit effects) is frozen across
replications while every path is redrawn.  The *simple* design is a single
common random-walk factor plus unit random walks and short-run noise, with
everything redrawn per replication.

Every random draw comes from a counter-based generator keyed by
``(master_seed, scenario, replication, component)``, so any single
replication — or any single component of it — can be reproduced in
isolation, and results never depend on execution order or worker count.
"""

from __future__ import annotations

import contextlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import baselines, hsc, tuning
from .decomp import LatentPanel
from .panel import Panel

__all__ = [
    "GridDgpConfig",
    "SimpleDgpConfig",
    "MetricTable",
    "simulate_grid",
    "simulate_simple",
    "run_study",
    "frozen_stream",
    "rep_stream",
]

# Component tags for stream derivation.  Frozen draws share one stream keyed
# by the master seed alone; each redrawn component gets its own per-rep
# stream so adding or skipping one draw never shifts another.
_TAG_FROZEN = 90
_REP_TAGS = {"factors": 1, "trend": 2, "noise": 3, "time_effects": 4}
_TAG_SIMPLE = 10


def _milli(x: float) -> int:
    return int(round(1000.0 * float(x)))


def _generator(words) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(words)))


def frozen_stream(master_seed: int) -> np.random.Generator:
    """Stream for quantities held fixed across replications."""
    return _generator([master_seed, _TAG_FROZEN])


def rep_stream(
    master_seed: int, kappa: float, rho_u: float, rep: int, component: str
) -> np.random.Generator:
    """Stream for one redrawn component of one replication.

    The key is a pure function of its arguments, which is the whole
    reproducibility contract: any component of any replication can be
    regenerated without running anything else.
    """
    try:
        tag = _REP_TAGS[component]
    except KeyError:
        raise ValueError(
            f"unknown component {component!r}; expected one of {sorted(_REP_TAGS)}"
        ) from None
    return _generator([master_seed, _milli(kappa), _milli(rho_u), rep, tag])


# The grid design's magnitudes (factor innovation variances and AR
# coefficients, loading sd and clip, unit-effect range) and the most donors
# the treated unit combines.
SIGMA_RW2 = 4.0
PHI_F = 0.5
SIGMA_ARIMA2 = 4.0
RHO_S = 0.6
SIGMA_S2 = 1.0
PHI_E = 0.25
LOADING_SD = 0.5
LOADING_CLIP = 2.0
ALPHA_RANGE = (5.0, 15.0)
SUPPORT_SIZE = 8


@dataclass(frozen=True)
class GridDgpConfig:
    """Factor-structure design: three latent factors, frozen cross-section.

    ``kappa`` scales the unit-specific integrated disturbance and ``rho_u``
    sets how much of its innovation is a common shock.  The sizes default
    to the study's; the magnitudes are the module constants above, and the
    treated unit combines ``min(SUPPORT_SIZE, n0)`` donors.
    """

    kappa: float
    rho_u: float
    master_seed: int = 0
    t0: int = 200
    t_post: int = 20
    n0: int = 50

    def __post_init__(self) -> None:
        if self.kappa < 0.0:
            raise ValueError("kappa must be nonnegative")
        if not 0.0 <= self.rho_u <= 1.0:
            raise ValueError("rho_u must lie in [0, 1]")
        if min(self.t0, self.t_post) < 1 or self.n0 < 2:
            raise ValueError("panel dimensions too small")


@dataclass(frozen=True)
class SimpleDgpConfig:
    """Single-factor design: common random walk, unit random walks, noise.

    Nothing is frozen across replications.  ``loading_mean``/``loading_sd``
    and ``noise_sd`` are exposed because the illustration variants change
    them.
    """

    kappa: float
    master_seed: int = 0
    n0: int = 10
    t0: int = 80
    t_post: int = 5
    loading_mean: float = 1.0
    loading_sd: float = 0.5
    noise_sd: float = 0.5

    def __post_init__(self) -> None:
        if self.kappa < 0.0:
            raise ValueError("kappa must be nonnegative")
        if min(self.t0, self.t_post) < 1 or self.n0 < 2:
            raise ValueError("panel dimensions too small")
        if self.loading_sd < 0.0 or self.noise_sd < 0.0:
            raise ValueError("scale parameters must be nonnegative")


def _truncated_normal(
    rng: np.random.Generator, shape, sd: float, clip: float
) -> np.ndarray:
    """Rejection-sampled N(0, sd^2) conditioned on |x| <= clip."""
    out = rng.normal(0.0, sd, size=shape)
    bad = np.abs(out) > clip
    while np.any(bad):
        out[bad] = rng.normal(0.0, sd, size=int(bad.sum()))
        bad = np.abs(out) > clip
    return out


def _ar1_path(innov: np.ndarray, phi: float, init) -> np.ndarray:
    """AR(1) recursion along axis 0, started at ``init`` before the sample."""
    out = np.empty_like(innov)
    prev = init
    for t in range(innov.shape[0]):
        prev = phi * prev + innov[t]
        out[t] = prev
    return out


def _grid_cross_section(cfg: GridDgpConfig):
    """Frozen draws: loadings, treated combination, unit effects.

    Draw order (loadings, support, combination weights, unit effects) is
    fixed; changing it would silently re-randomize every study.
    """
    rng = frozen_stream(cfg.master_seed)
    lam = _truncated_normal(rng, (cfg.n0, 3), LOADING_SD, LOADING_CLIP)
    size = min(SUPPORT_SIZE, cfg.n0)
    support = np.sort(rng.choice(cfg.n0, size=size, replace=False))
    w_star = rng.dirichlet(np.ones(size))
    alpha_donors = rng.uniform(*ALPHA_RANGE, cfg.n0)
    lam_treated = w_star @ lam[support]
    loadings = np.vstack([lam_treated, lam])
    alpha = np.concatenate([[0.0], alpha_donors])
    return loadings, alpha, support, w_star


def _panels(signal, remainder, t0: int) -> tuple[Panel, LatentPanel]:
    """The simulated panel (treated unit first, then ``donor_01``...; times
    1..T) and its latent split."""
    latent = LatentPanel(signal=signal, remainder=remainder, t0=t0)
    t_total, n_units = signal.shape
    labels = ["treated"] + [f"donor_{j:02d}" for j in range(1, n_units)]
    panel = Panel(
        outcomes=latent.observed,
        t0=t0,
        unit_labels=labels,
        time_labels=list(range(1, t_total + 1)),
    )
    return panel, latent


def simulate_grid(cfg: GridDgpConfig, rep: int) -> tuple[Panel, LatentPanel]:
    """One replication of the factor-structure design.

    The systematic block of the returned :class:`LatentPanel` collects the
    factor component plus both fixed effects; the remainder collects the
    scaled integrated disturbance plus the short-run noise.
    """
    if rep < 1:
        raise ValueError("rep must be >= 1")
    loadings, alpha, _, _ = _grid_cross_section(cfg)
    t_total = cfg.t0 + cfg.t_post
    n_units = cfg.n0 + 1
    key = (cfg.master_seed, cfg.kappa, cfg.rho_u, rep)

    rng_f = rep_stream(*key, "factors")
    factors = np.empty((t_total, 3))
    factors[:, 0] = np.cumsum(rng_f.normal(0.0, np.sqrt(SIGMA_RW2), t_total))
    diffs = _ar1_path(rng_f.normal(0.0, np.sqrt(SIGMA_ARIMA2), t_total), PHI_F, 0.0)
    factors[:, 1] = np.cumsum(diffs)
    init = rng_f.normal(0.0, np.sqrt(SIGMA_S2 / (1.0 - RHO_S**2)))
    innov = rng_f.normal(0.0, np.sqrt(SIGMA_S2), t_total)
    factors[:, 2] = _ar1_path(innov, RHO_S, init)

    rng_e = rep_stream(*key, "trend")
    innov_sd = np.sqrt(1.0 - PHI_E**2)
    common = rng_e.normal(0.0, innov_sd, t_total)
    own = rng_e.normal(0.0, innov_sd, (t_total, n_units))
    mixed = np.sqrt(cfg.rho_u) * common[:, None] + np.sqrt(1.0 - cfg.rho_u) * own
    trend = np.cumsum(_ar1_path(mixed, PHI_E, np.zeros(n_units)), axis=0)

    noise = rep_stream(*key, "noise").normal(0.0, 1.0, (t_total, n_units))
    delta = rep_stream(*key, "time_effects").normal(0.0, 1.0, t_total)

    signal = factors @ loadings.T + alpha[None, :] + delta[:, None]
    return _panels(signal, cfg.kappa * trend + noise, cfg.t0)


def simulate_simple(cfg: SimpleDgpConfig, rep: int) -> tuple[Panel, LatentPanel]:
    """One replication of the single-factor design (everything redrawn).

    Draw order within the replication stream: loadings, factor innovations,
    unit random-walk innovations, then noise.
    """
    if rep < 1:
        raise ValueError("rep must be >= 1")
    rng = _generator([cfg.master_seed, _milli(cfg.kappa), rep, _TAG_SIMPLE])
    t_total = cfg.t0 + cfg.t_post
    n_units = cfg.n0 + 1
    loadings = rng.normal(cfg.loading_mean, cfg.loading_sd, n_units)
    factor = np.cumsum(rng.normal(0.0, 1.0, t_total))
    walks = np.cumsum(rng.normal(0.0, 1.0, (t_total, n_units)), axis=0)
    noise = rng.normal(0.0, cfg.noise_sd, (t_total, n_units))
    return _panels(np.outer(factor, loadings), cfg.kappa * walks + noise, cfg.t0)


# ---------------------------------------------------------------------------
# Study harness


def parse_method(token: str) -> tuple[str, int, str]:
    """Resolve a method token to (family, q, rule).

    Baselines are bare names; estimator configurations are
    ``hsc:<q>:<rule>`` (the smoothing level itself is cross-validated, so
    it is not part of the token).
    """
    if token in baselines.METHODS:
        return token, 0, ""
    parts = token.split(":")
    if len(parts) == 3 and parts[0] == "hsc":
        with contextlib.suppress(ValueError):
            hsc.check_candidate(int(parts[1]), parts[2])
            return "hsc", int(parts[1]), parts[2]
    raise ValueError(
        f"unknown method token {token!r}; expected one of "
        f"{sorted(baselines.METHODS)} or hsc:<q>:<rule>"
    )


def _run_one_method(view, family: str, q: int, rule: str, plan) -> tuple:
    """Counterfactual and (for cross-validated fits) the selected rho."""
    if family == "hsc":
        result = tuning.cross_validate(view.y_pre, view.x_pre, plan)
        cfg = hsc.HscConfig(rho=result.best_rho, q=q, rule_kind=rule)
        return hsc.fit(view, cfg).counterfactual, result.best_rho
    return baselines.fit(family, view).counterfactual, np.nan


def map_replications(one_rep, reps: int, threads: int) -> list:
    """``[one_rep(rep) for rep in 1..reps]``, on ``threads`` worker threads.

    Results come back in replication order, and every replication draws
    from its own keyed streams, so they do not depend on ``threads``.  The
    work holds the GIL, so one thread is usually fastest.
    """
    rep_ids = range(1, reps + 1)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(one_rep, rep_ids))
    return [one_rep(rep) for rep in rep_ids]


@dataclass(frozen=True)
class MetricTable:
    """Aggregated study output for one scenario.

    ``errors[token]`` holds the raw per-replication, per-period prediction
    errors with failed replications stored as NaN rows; everything else is
    derived from it.  ``pooled_variance`` uses the population denominator,
    so ``pooled_rmse**2 == pooled_bias**2 + pooled_variance`` holds exactly
    (up to round-off) replication counts notwithstanding.
    """

    design: str
    kappa: float
    rho_u: float
    reps: int
    h: int
    method_tokens: tuple
    errors: dict
    rho_hat_samples: dict
    failures: dict
    pooled_rmse: dict = field(default_factory=dict)
    pooled_bias: dict = field(default_factory=dict)
    pooled_variance: dict = field(default_factory=dict)
    per_period_rmse: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for token in self.method_tokens:
            err = self.errors[token]
            ok = np.all(np.isfinite(err), axis=1)
            valid = err[ok]
            if valid.shape[0] == 0:
                self.pooled_rmse[token] = np.nan
                self.pooled_bias[token] = np.nan
                self.pooled_variance[token] = np.nan
                self.per_period_rmse[token] = np.full(err.shape[1], np.nan)
                continue
            self.pooled_rmse[token] = float(np.sqrt(np.mean(valid**2)))
            bias_t = np.mean(valid, axis=0)
            self.pooled_bias[token] = float(np.sqrt(np.mean(bias_t**2)))
            self.pooled_variance[token] = float(np.mean(np.var(valid, axis=0)))
            self.per_period_rmse[token] = np.sqrt(np.mean(valid**2, axis=0))


def run_study(
    design: str,
    cfg,
    methods,
    reps: int,
    h: int = 1,
    folds: int = 10,
    threads: int = 1,
) -> MetricTable:
    """Replicate one scenario and aggregate per-method error metrics.

    Smoothing-level selection for ``hsc:*`` tokens runs rolling-origin
    cross-validation inside every replication (horizon ``h``, ``folds``
    folds, the 21-point :func:`tuning.uniform_grid`), after its windows
    pass ``hsc.check_window``.  Replications where an estimator fails
    numerically (``hsc.NUMERICAL_FAILURES``) are excluded from its metrics
    and counted in ``failures``; any other exception propagates.  Results
    are keyed by the replication index, so they do not depend on ``threads``.
    """
    if design == "grid":
        if not isinstance(cfg, GridDgpConfig):
            raise ValueError("grid design requires a GridDgpConfig")
        simulate = simulate_grid
        kappa, rho_u = cfg.kappa, cfg.rho_u
    elif design == "simple":
        if not isinstance(cfg, SimpleDgpConfig):
            raise ValueError("simple design requires a SimpleDgpConfig")
        simulate = simulate_simple
        kappa, rho_u = cfg.kappa, np.nan
    else:
        raise ValueError(f"unknown design {design!r}")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    tokens = tuple(methods)
    parsed = [parse_method(token) for token in tokens]
    for token, (family, q, rule) in zip(tokens, parsed):
        if family == "hsc":  # CV's shortest training window, then the final fit's
            first = tuning.rolling_origins(cfg.t0, h, folds)[0]
            for n, horizon, name in ((first, h, "first training window"),
                                     (cfg.t0, cfg.t_post, "pre-period")):
                try:
                    hsc.check_window(n, q, rule, horizon)
                except ValueError as exc:
                    raise ValueError(f"{token}: {n}-period {name}; {exc}") from None
    plans = [
        tuning.CvPlan(h=h, folds=folds, candidates=((q, rule),))
        if family == "hsc"
        else None
        for family, q, rule in parsed
    ]

    def one_rep(rep: int):
        _, latent = simulate(cfg, rep)
        view = latent.to_view()
        errs = np.full((len(tokens), cfg.t_post), np.nan)
        rhos = np.full(len(tokens), np.nan)
        fails = np.zeros(len(tokens), dtype=bool)
        for m, ((family, q, rule), plan) in enumerate(zip(parsed, plans)):
            try:
                counterfactual, rho_hat = _run_one_method(
                    view, family, q, rule, plan
                )
            except hsc.NUMERICAL_FAILURES:
                fails[m] = True
                continue
            errs[m] = counterfactual - view.y_post
            rhos[m] = rho_hat
        return errs, rhos, fails

    results = map_replications(one_rep, reps, threads)

    errors = {}
    rho_hat_samples = {}
    failures = {}
    for m, token in enumerate(tokens):
        errors[token] = np.vstack([res[0][m] for res in results])
        failures[token] = int(sum(res[2][m] for res in results))
        if parsed[m][0] == "hsc":
            samples = np.array([res[1][m] for res in results])
            rho_hat_samples[token] = samples[np.isfinite(samples)]
    return MetricTable(
        design=design,
        kappa=kappa,
        rho_u=rho_u,
        reps=reps,
        h=h,
        method_tokens=tokens,
        errors=errors,
        rho_hat_samples=rho_hat_samples,
        failures=failures,
    )
