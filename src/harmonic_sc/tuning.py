"""Rolling-origin cross-validation of the mixing weight rho.

Origins march toward the end of the pre-period: fold ``l`` trains on periods
``1..k_l`` with ``k_l = T0 - h - L + l`` and validates the next ``h``
periods, so the last fold's validation window ends exactly at ``T0``.  Every
fold refits everything — donor weights, the ridge strength when it is
data-driven, and the forecast rule's coefficients — on its own training
window, and only pre-treatment data ever enters: the API takes the
pre-period arrays alone, so post-treatment outcomes are not merely ignored
but structurally absent.  Donor weights depend on (q, fold, rho) but not on
the forecast rule, so each (q, fold) rho path is solved once, as one stack
of simplex QPs started from the previous fold's weights (``hsc.fit_path``),
and shared by every rule of that q.  Each path is scored as one stack too:
each rule forecasts every column of the smooth parts ``E`` in one
:func:`forecast.compose`, and the squared errors of all grid points come
from one product ``x_val @ W.T``.  A q whose first training window is
shorter than q+2 is excluded before any solve.

Ties in the CV objective break toward larger rho (the candidate that leans
hardest on donor matching and least on the forecaster); across candidate
(q, rule) pairs, toward the earlier candidate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from harmonic_sc import forecast, hsc, spectral
from harmonic_sc.panel import check_levels


class CvExhausted(ValueError):
    """Every candidate failed cross-validation: nothing is left to select."""


def uniform_grid() -> np.ndarray:
    """The default grid: 21 equally spaced rho values spanning [0, 1]."""
    return np.linspace(0.0, 1.0, 21)


def log_lambda_grid() -> np.ndarray:
    """Grid dense near both endpoints: log-spaced penalty weights mapped back.

    21 values of lambda are log-spaced over [1e-3, 1e3] and mapped through
    ``rho = lambda / (1 + lambda)``; the boundaries 0 and 1 are always
    appended explicitly, for 23 points.
    """
    lam = np.geomspace(1e-3, 1e3, 21)
    return np.unique(np.concatenate([[0.0], lam / (1.0 + lam), [1.0]]))


def rolling_origins(t0: int, h: int, folds: int) -> list[int]:
    """Training lengths ``k_l = t0 - h - folds + l`` for ``l = 1..folds``.

    The construction pins the final fold to the end of the sample:
    ``k_folds + h = t0``.
    """
    if h < 1:
        raise ValueError(f"horizon must be positive, got {h}")
    if folds < 1:
        raise ValueError(f"fold count must be positive, got {folds}")
    first = t0 - h - folds + 1
    if first < 1:
        feasible = t0 - h
        raise ValueError(
            f"cannot fit {folds} folds of horizon {h} into {t0} pre-periods; "
            f"the largest feasible fold count is {max(feasible, 0)}"
        )
    return [t0 - h - folds + ell for ell in range(1, folds + 1)]


@dataclass(frozen=True)
class CvPlan:
    """Cross-validation layout: horizon, folds, grid, and candidates.

    ``candidates`` are (q, rule_kind) pairs evaluated side by side on the
    same folds; the default is the order-1 penalty with the last-value rule.
    """

    h: int = 1
    folds: int = 10
    rho_grid: np.ndarray = field(default_factory=uniform_grid)
    candidates: tuple = ((1, "last_constant"),)
    zeta: float | str = "auto"

    def __post_init__(self) -> None:
        if self.h < 1:
            raise ValueError(f"horizon must be positive, got {self.h}")
        if self.folds < 1:
            raise ValueError(f"fold count must be positive, got {self.folds}")
        grid = spectral.check_grid(self.rho_grid)
        if not self.candidates:
            raise ValueError("need at least one (q, rule_kind) candidate")
        for q, rule_kind in self.candidates:
            hsc.check_candidate(q, rule_kind)
        hsc.check_zeta(self.zeta)
        object.__setattr__(self, "rho_grid", grid)
        object.__setattr__(
            self, "candidates", tuple((int(q), str(r)) for q, r in self.candidates)
        )


@dataclass(frozen=True)
class CvResult:
    """CV table and the selected configuration.

    ``table[c, g]`` is the mean squared forecast error of candidate ``c`` at
    grid point ``g``; ``per_fold_errors[c, l, s, g]`` the squared error of
    fold ``l`` at step ``s``.  Candidates that failed on any fold carry NaN
    rows and are listed in ``excluded``.
    """

    rho_grid: np.ndarray
    candidates: tuple
    origins: tuple
    table: np.ndarray
    per_fold_errors: np.ndarray
    best_rho: float
    best_candidate: tuple
    best_value: float
    excluded: tuple


#: Failures of a forecast rule's fit that exclude its candidate.  Narrower
#: than the weights' catch: a bare ``ValueError`` from array code is a bug.
_FORECAST_FAILURES = (forecast.ForecastError, np.linalg.LinAlgError)


def cross_validate(y_pre: np.ndarray, x_pre: np.ndarray, plan: CvPlan) -> CvResult:
    """Run the rolling-origin CV described in the module docstring.

    Only pre-treatment arrays are accepted; there is no way to hand this
    function a post-treatment observation.

    CV values within ``(1e-10 * level)**2`` of a row's minimum, ``level``
    being ``max|y_pre| + max|x_pre|``, are treated as tied: squared forecast
    errors below that are solver round-off, not signal, and on an exact-fit
    panel the entries differ only at that level.  Ties resolve to the largest
    rho; an earlier candidate is displaced only by a larger improvement.

    Raises
    ------
    ValueError
        If an input is not finite or exceeds ``panel.MAX_LEVEL``, the fold
        layout does not fit the pre-period, or every candidate failed
        (:class:`CvExhausted`).
    """
    y_pre = np.asarray(y_pre, dtype=float)
    x_pre = np.asarray(x_pre, dtype=float)
    if y_pre.ndim != 1 or x_pre.ndim != 2 or x_pre.shape[0] != y_pre.size:
        raise ValueError("y_pre must be a vector and x_pre a matching matrix")
    check_levels(y_pre=y_pre, x_pre=x_pre)
    t0 = y_pre.size
    origins = rolling_origins(t0, plan.h, plan.folds)
    grid = plan.rho_grid
    n_cand = len(plan.candidates)

    per_fold = np.full((n_cand, plan.folds, plan.h, grid.size), np.nan)
    failed = {}  # candidate index -> (training length, reason) of its first failure
    for q in dict.fromkeys(q for q, _ in plan.candidates):
        members = [ci for ci, cand in enumerate(plan.candidates) if cand[0] == q]
        if origins[0] < q + 2:  # checked before any solve
            reason = f"{origins[0]}-period first training window; q={q} needs {q + 2}"
            failed.update((ci, (origins[0], reason)) for ci in members)
            continue
        start = None  # each fold starts from the previous fold's weights
        for li, k in enumerate(origins):
            live = [ci for ci in members if ci not in failed]
            if not live:
                break
            y_tr, x_tr = y_pre[:k], x_pre[:k]
            y_val, x_val = y_pre[k : k + plan.h], x_pre[k : k + plan.h]
            try:
                zeta = hsc.resolve_zeta(plan.zeta, x_tr, plan.h)
                basis = spectral.spectral_basis(k, q)
                solution, smooth = hsc.fit_path(
                    y_tr, x_tr, basis, grid, zeta * zeta * k, init=start
                )
            except hsc.NUMERICAL_FAILURES as exc:
                # The weights failed: every rule of this q loses the fold,
                # not the run.
                for ci in live:
                    failed[ci] = (k, str(exc))
                continue
            weights = start = solution.weights
            donor_part = x_val @ weights.T  # (h, G): one column per rho
            for ci in live:
                try:
                    fc = forecast.compose(plan.candidates[ci][1], basis, smooth, plan.h)
                except _FORECAST_FAILURES as exc:
                    failed[ci] = (k, str(exc))
                    continue
                per_fold[ci, li] = (y_val[:, None] - (donor_part + fc)) ** 2
    excluded = [(plan.candidates[ci], *failed[ci]) for ci in sorted(failed)]
    per_fold[sorted(failed)] = np.nan

    table = per_fold.mean(axis=(1, 2))  # NaN rows stay NaN

    level = float(np.max(np.abs(y_pre))) + float(np.max(np.abs(x_pre)))
    tie = 1e-10 * level  # compared with sqrt(excess): no level is squared
    best = None  # (value at selected grid point, candidate index, grid index)
    best_min = np.inf
    for ci in range(n_cand):
        row = table[ci]
        if not np.all(np.isfinite(row)):
            continue
        row_min = float(np.min(row))
        gi = int(np.nonzero(np.sqrt(row - row_min) <= tie)[0][-1])
        if best is None or np.sqrt(max(best_min - row_min, 0.0)) > tie:
            best = (float(row[gi]), ci, gi)
            best_min = row_min
    if best is None:
        detail = f"; first failure: {excluded[0][2]}" if excluded else ""
        raise CvExhausted(f"every candidate failed cross-validation{detail}")

    return CvResult(
        rho_grid=grid,
        candidates=plan.candidates,
        origins=tuple(origins),
        table=table,
        per_fold_errors=per_fold,
        best_rho=float(grid[best[2]]),
        best_candidate=plan.candidates[best[1]],
        best_value=best[0],
        excluded=tuple(excluded),
    )
