import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from harmonic_sc import forecast, hsc, qp, spectral, tuning
from harmonic_sc.panel import PrePostView


def random_panel(rng, t0=24, t_post=4, n_donors=5, noise=0.1):
    """Random-walk donors plus a simplex combination with noise."""
    x = np.cumsum(rng.normal(size=(t0 + t_post, n_donors)), axis=0)
    w = rng.dirichlet(np.ones(n_donors))
    y = x @ w + noise * rng.normal(size=t0 + t_post)
    return y[:t0], x[:t0], y[t0:], x[t0:]


# ---------------------------------------------------------------------------
# fold layout


def test_origins_basic_example():
    assert tuning.rolling_origins(10, 1, 3) == [7, 8, 9]


def test_origins_long_example():
    assert tuning.rolling_origins(36, 1, 21) == list(range(15, 36))


def test_last_fold_ends_at_t0():
    for t0, h, folds in [(30, 1, 10), (30, 3, 7), (12, 5, 2)]:
        origins = tuning.rolling_origins(t0, h, folds)
        assert origins[-1] + h == t0
        assert all(b - a == 1 for a, b in zip(origins, origins[1:]))


def test_origins_infeasible_reports_largest_fold_count():
    with pytest.raises(ValueError, match="largest feasible fold count is 5"):
        tuning.rolling_origins(10, 5, 10)


def test_origins_validate_arguments():
    with pytest.raises(ValueError, match="horizon"):
        tuning.rolling_origins(10, 0, 3)
    with pytest.raises(ValueError, match="fold count"):
        tuning.rolling_origins(10, 1, 0)


# ---------------------------------------------------------------------------
# grids


def test_uniform_grid_default():
    grid = tuning.uniform_grid()
    assert grid.size == 21
    assert grid[0] == 0.0 and grid[-1] == 1.0
    assert_allclose(np.diff(grid), 0.05)


def test_log_lambda_grid_shape_and_bounds():
    grid = tuning.log_lambda_grid()
    assert grid.size == 23
    assert grid[0] == 0.0 and grid[-1] == 1.0
    assert np.all(np.diff(grid) > 0)


def test_log_lambda_grid_contains_balanced_point():
    # lambda = 1 sits at the centre of the log range and maps to rho = 1/2.
    grid = tuning.log_lambda_grid()
    assert np.any(np.isclose(grid, 0.5))


def test_log_lambda_grid_mapping():
    grid = tuning.log_lambda_grid()
    lam = np.geomspace(1e-3, 1e3, 21)
    assert_allclose(grid[1:-1], lam / (1 + lam))


# ---------------------------------------------------------------------------
# plan validation


def test_plan_defaults():
    plan = tuning.CvPlan()
    assert plan.h == 1 and plan.folds == 10
    assert plan.rho_grid.size == 21
    assert plan.candidates == ((1, "last_constant"),)


def test_plan_rejects_bad_grids():
    with pytest.raises(ValueError, match="strictly increasing"):
        tuning.CvPlan(rho_grid=np.array([0.0, 0.5, 0.5, 1.0]))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        tuning.CvPlan(rho_grid=np.array([0.0, 1.5]))


@pytest.mark.parametrize("grid", [[np.nan], [0.0, np.nan, 1.0]])
def test_plan_rejects_nan_grid(grid):
    # Every comparison with NaN is False, so the range check must count a
    # NaN as outside [0, 1], or it reaches the first fold's solve.
    with pytest.raises(ValueError, match=r"rho must lie in \[0, 1\], got nan"):
        tuning.CvPlan(rho_grid=np.array(grid))


def test_plan_rejects_bad_candidates():
    with pytest.raises(ValueError, match="unknown forecast rule"):
        tuning.CvPlan(candidates=((1, "holt_winters"),))
    with pytest.raises(ValueError):
        tuning.CvPlan(candidates=((3, "last_constant"),))
    with pytest.raises(ValueError, match="at least one"):
        tuning.CvPlan(candidates=())


def test_plan_rejects_bad_scalars():
    with pytest.raises(ValueError, match="horizon"):
        tuning.CvPlan(h=0)
    with pytest.raises(ValueError, match="zeta"):
        tuning.CvPlan(zeta="automatic")
    with pytest.raises(ValueError, match="zeta"):
        tuning.CvPlan(zeta=-0.5)


def test_plan_rejects_non_finite_zeta():
    for zeta in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="zeta must be finite"):
            tuning.CvPlan(zeta=zeta)


# ---------------------------------------------------------------------------
# cross_validate behaviour


def test_exact_fit_ties_break_to_one():
    # When donors reproduce the outcome exactly, every rho forecasts
    # perfectly, and the tie resolves to the largest grid value.
    rng = np.random.default_rng(7)
    x = np.cumsum(rng.normal(size=(20, 4)), axis=0)
    w = np.array([0.4, 0.3, 0.2, 0.1])
    y = x @ w
    plan = tuning.CvPlan(folds=3, rho_grid=np.array([0.0, 0.5, 1.0]), zeta=0.0)
    result = tuning.cross_validate(y, x, plan)
    assert_allclose(result.table, 0.0, atol=1e-16)
    assert result.best_rho == 1.0
    assert result.best_value <= 1e-16


def test_cross_candidate_ties_break_to_earlier():
    rng = np.random.default_rng(8)
    x = np.cumsum(rng.normal(size=(20, 4)), axis=0)
    y = x @ np.array([0.25, 0.25, 0.25, 0.25])
    plan = tuning.CvPlan(
        folds=3,
        rho_grid=np.array([0.0, 1.0]),
        zeta=0.0,
        candidates=((1, "last_constant"), (1, "arima110")),
    )
    result = tuning.cross_validate(y, x, plan)
    assert result.best_candidate == (1, "last_constant")


def test_single_fold_matches_standalone_fit():
    # h = 1, L = 1: the CV entry is the squared one-step error of a full
    # fit on the first t0 - 1 periods.
    rng = np.random.default_rng(21)
    y_pre, x_pre, _, _ = random_panel(rng, t0=18, n_donors=4)
    rho = 0.3
    plan = tuning.CvPlan(h=1, folds=1, rho_grid=np.array([rho]))
    result = tuning.cross_validate(y_pre, x_pre, plan)

    view = PrePostView(
        y_pre=y_pre[:-1],
        x_pre=x_pre[:-1],
        y_post=y_pre[-1:],
        x_post=x_pre[-1:],
    )
    fit = hsc.fit(view, hsc.HscConfig(rho=rho))
    expected = (y_pre[-1] - fit.counterfactual[0]) ** 2
    assert_allclose(result.table[0, 0], expected, rtol=1e-10)


def test_warm_started_grid_matches_cold_refits():
    # Each grid point's solve starts from the previous point's weights; the
    # errors must match independent fits that start from scratch.
    rng = np.random.default_rng(37)
    y_pre, x_pre, _, _ = random_panel(rng, t0=30, n_donors=8, noise=0.3)
    grid = np.linspace(0, 1, 11)
    zeta = 0.2
    plan = tuning.CvPlan(
        h=2, folds=4, rho_grid=grid, zeta=zeta,
        candidates=((1, "last_constant"), (2, "ar")),
    )
    result = tuning.cross_validate(y_pre, x_pre, plan)

    cold = np.empty_like(result.per_fold_errors)
    for ci, (q, rule) in enumerate(plan.candidates):
        for li, k in enumerate(result.origins):
            view = PrePostView(
                y_pre=y_pre[:k], x_pre=x_pre[:k],
                y_post=y_pre[k : k + 2], x_post=x_pre[k : k + 2],
            )
            for gi, rho in enumerate(grid):
                cfg = hsc.HscConfig(rho=rho, q=q, rule_kind=rule, zeta=zeta)
                fit = hsc.fit(view, cfg)
                cold[ci, li, :, gi] = (view.y_post - fit.counterfactual) ** 2
    assert_allclose(result.per_fold_errors, cold, rtol=1e-12, atol=0.0)
    table = cold.mean(axis=(1, 2))
    ci = int(np.argmin(table.min(axis=1)))
    assert result.best_candidate == plan.candidates[ci]
    assert result.best_rho == grid[np.argmin(table[ci])]


SHARED_CANDIDATES = ((1, "last_constant"), (1, "arima110"), (2, "ar"))


def shared_plan(candidates=SHARED_CANDIDATES):
    return tuning.CvPlan(
        h=2, folds=4, rho_grid=np.linspace(0, 1, 9), candidates=candidates
    )


def counting_solve(monkeypatch):
    calls = []
    real_solve = qp.solve

    def solve(problem, *args, **kwargs):
        calls.append(problem.gram.shape)
        return real_solve(problem, *args, **kwargs)

    monkeypatch.setattr(qp, "solve", solve)
    return calls


def test_rules_of_one_q_share_each_weight_solve(monkeypatch):
    # Weights depend on (q, fold, rho) only: three candidates over two
    # orders solve one stack of grid-size programs per (q, fold), and
    # sharing them leaves every candidate's errors exactly as in a run of
    # that candidate alone.
    rng = np.random.default_rng(41)
    y_pre, x_pre, _, _ = random_panel(rng, t0=30, n_donors=8, noise=0.3)
    plan = shared_plan()
    calls = counting_solve(monkeypatch)
    result = tuning.cross_validate(y_pre, x_pre, plan)
    assert calls == [(plan.rho_grid.size, 8, 8)] * (plan.folds * 2)
    for ci, cand in enumerate(plan.candidates):
        alone = tuning.cross_validate(y_pre, x_pre, shared_plan((cand,)))
        row = result.per_fold_errors[ci]
        assert alone.per_fold_errors[0].tobytes() == row.tobytes()
    assert result.excluded == ()


def test_weight_stall_excludes_every_rule_of_that_q(monkeypatch):
    rng = np.random.default_rng(43)
    y_pre, x_pre, _, _ = random_panel(rng, t0=30, n_donors=8, noise=0.3)
    plan = shared_plan()
    stalled_k = tuning.rolling_origins(30, plan.h, plan.folds)[1]
    current = {}
    real_basis, real_solve = spectral.spectral_basis, qp.solve

    def basis(n, q):
        current["nq"] = (n, q)
        return real_basis(n, q)

    def solve(problem, *args, **kwargs):
        sol = real_solve(problem, *args, **kwargs)
        if current["nq"] == (stalled_k, 1):
            raise qp.SolverStall("forced stall", sol)
        return sol

    monkeypatch.setattr(spectral, "spectral_basis", basis)
    monkeypatch.setattr(qp, "solve", solve)
    result = tuning.cross_validate(y_pre, x_pre, plan)
    assert result.excluded == (
        ((1, "last_constant"), stalled_k, "forced stall"),
        ((1, "arima110"), stalled_k, "forced stall"),
    )
    assert np.all(np.isnan(result.table[:2]))
    assert np.all(np.isfinite(result.table[2]))
    assert result.best_candidate == (2, "ar")


def test_each_fold_starts_from_the_previous_folds_weights(monkeypatch):
    # Per q, the first fold starts from the solver's default and every later
    # fold from the weights the previous fold of that q returned.
    rng = np.random.default_rng(45)
    y_pre, x_pre, _, _ = random_panel(rng, t0=30, n_donors=8, noise=0.3)
    real_fit_path, calls = hsc.fit_path, []

    def fit_path(y, x, basis, grid, ridge, init=None):
        solution, smooth = real_fit_path(y, x, basis, grid, ridge, init=init)
        calls.append((basis.q, init, solution.weights))
        return solution, smooth

    monkeypatch.setattr(hsc, "fit_path", fit_path)
    plan = shared_plan()
    tuning.cross_validate(y_pre, x_pre, plan)
    for q in (1, 2):
        chain = [(init, weights) for order, init, weights in calls if order == q]
        assert len(chain) == plan.folds and chain[0][0] is None
        for (_, previous), (init, _) in zip(chain, chain[1:]):
            assert init is previous


@pytest.mark.parametrize("error", [ValueError("shape bug"), IndexError("index bug")])
def test_bugs_in_the_weight_path_propagate(monkeypatch, error):
    # Only numerical failures of the weights exclude candidates; a bare
    # ValueError or an IndexError from the stacked solve is a bug.
    rng = np.random.default_rng(47)
    y_pre, x_pre, _, _ = random_panel(rng, t0=24, n_donors=4)

    def fit_path(*args, **kwargs):
        raise error

    monkeypatch.setattr(hsc, "fit_path", fit_path)
    with pytest.raises(type(error), match=str(error)):
        tuning.cross_validate(y_pre, x_pre, tuning.CvPlan(h=1, folds=3))


def test_short_first_window_excludes_its_order_before_any_solve(monkeypatch):
    # Origins 3..6: the first window fits q=1 (3 >= q+2) but not q=2, whose
    # candidates are excluded by name without a weight solve.
    rng = np.random.default_rng(53)
    y_pre, x_pre, _, _ = random_panel(rng, t0=8, n_donors=3)
    plan = tuning.CvPlan(
        h=2, folds=4, rho_grid=np.linspace(0, 1, 5),
        candidates=((1, "last_constant"), (2, "last_constant"), (2, "ar")),
    )
    calls = counting_solve(monkeypatch)
    result = tuning.cross_validate(y_pre, x_pre, plan)
    assert result.origins == (3, 4, 5, 6)
    reason = (
        "3-period first training window; "
        "q=2 needs q+2 = 4 pre-treatment periods, got 3"
    )
    assert result.excluded == (
        ((2, "last_constant"), 3, reason), ((2, "ar"), 3, reason)
    )
    assert calls == [(5, 3, 3)] * plan.folds
    assert result.best_candidate == (1, "last_constant")


def test_errors_nonnegative_and_table_is_their_mean():
    rng = np.random.default_rng(3)
    y_pre, x_pre, _, _ = random_panel(rng, t0=26, n_donors=5)
    plan = tuning.CvPlan(h=2, folds=5, rho_grid=np.linspace(0, 1, 5))
    result = tuning.cross_validate(y_pre, x_pre, plan)
    assert np.all(result.per_fold_errors >= 0)
    assert_allclose(result.table, result.per_fold_errors.mean(axis=(1, 2)))
    ci = result.candidates.index(result.best_candidate)
    assert result.best_value == np.min(result.table[ci])
    assert result.origins == tuple(range(20, 25))


def test_post_period_cannot_leak():
    # The interface only admits pre-period data, so two panels that differ
    # arbitrarily after t0 produce bit-identical results.
    rng = np.random.default_rng(11)
    y_pre, x_pre, y_post, x_post = random_panel(rng, t0=20, n_donors=4)
    plan = tuning.CvPlan(folds=4, rho_grid=np.linspace(0, 1, 7))
    first = tuning.cross_validate(y_pre, x_pre, plan)
    y_post[:] = 1e9  # corrupt everything after t0
    x_post[:] = -1e9
    second = tuning.cross_validate(y_pre, x_pre, plan)
    assert_array_equal(first.table, second.table)
    assert_array_equal(first.per_fold_errors, second.per_fold_errors)
    assert first.best_rho == second.best_rho


def test_donor_permutation_leaves_table_invariant():
    rng = np.random.default_rng(13)
    y_pre, x_pre, _, _ = random_panel(rng, t0=22, n_donors=5)
    plan = tuning.CvPlan(folds=4, rho_grid=np.linspace(0, 1, 5))
    base = tuning.cross_validate(y_pre, x_pre, plan)
    perm = rng.permutation(5)
    shuffled = tuning.cross_validate(y_pre, x_pre[:, perm], plan)
    assert_allclose(shuffled.table, base.table, rtol=1e-7, atol=1e-12)
    assert shuffled.best_rho == base.best_rho


def test_failing_candidate_is_excluded_and_reported():
    rng = np.random.default_rng(17)
    y_pre, x_pre, _, _ = random_panel(rng, t0=14, n_donors=4)
    # First fold trains on 4 points; hamilton needs 6.
    plan = tuning.CvPlan(folds=10, candidates=((1, "last_constant"), (1, "hamilton")))
    result = tuning.cross_validate(y_pre, x_pre, plan)
    assert result.best_candidate == (1, "last_constant")
    assert np.all(np.isnan(result.table[1]))
    assert np.all(np.isfinite(result.table[0]))
    assert len(result.excluded) == 1
    candidate, _, message = result.excluded[0]
    assert candidate == (1, "hamilton")
    assert "at least" in message


def test_all_candidates_failing_raises(monkeypatch):
    # No candidate fits the 4-period first window: a ValueError naming the
    # window, before any solve.
    rng = np.random.default_rng(19)
    y_pre, x_pre, _, _ = random_panel(rng, t0=12, n_donors=4)
    plan = tuning.CvPlan(folds=8, candidates=((1, "hamilton"),))
    calls = counting_solve(monkeypatch)
    with pytest.raises(
        ValueError,
        match="^every candidate is excluded: 4-period first training window; "
        "hamilton with horizon 1 needs at least 6 observations, got 4$",
    ):
        tuning.cross_validate(y_pre, x_pre, plan)
    assert calls == []


def test_numerical_failure_of_every_candidate_is_reraised(monkeypatch):
    # Past the window check only numerical failures remain; when they take
    # every candidate, the first one propagates as itself.
    rng = np.random.default_rng(21)
    y_pre, x_pre, _, _ = random_panel(rng, t0=24, n_donors=4)
    seen = []

    def solve(problem, *args, **kwargs):
        seen.append(qp.SolverStall(f"forced stall {len(seen)}", None))
        raise seen[-1]

    monkeypatch.setattr(qp, "solve", solve)
    with pytest.raises(qp.SolverStall) as info:
        tuning.cross_validate(y_pre, x_pre, shared_plan())
    assert info.value is seen[0]


def test_overflowing_scores_leave_nothing_to_select():
    # An ar(4) fitted on a 7-period window and run 190 steps ahead can
    # overflow: no exception, but no finite score to select either.
    rng = np.random.default_rng(181)
    x = np.cumsum(rng.normal(size=(197, 3)), axis=0) * 1e8
    y = x @ np.array([0.2, 0.3, 0.5]) + 1e8 * np.cumsum(rng.normal(size=197))
    plan = tuning.CvPlan(h=190, folds=1, rho_grid=[0.0], candidates=((1, "ar"),))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ValueError, match="^no candidate has a finite cv score$"):
            tuning.cross_validate(y, x, plan)


def test_infeasible_layout_raises():
    rng = np.random.default_rng(23)
    y_pre, x_pre, _, _ = random_panel(rng, t0=8, n_donors=3)
    plan = tuning.CvPlan(h=5, folds=10)
    with pytest.raises(ValueError, match="largest feasible"):
        tuning.cross_validate(y_pre, x_pre, plan)


def test_input_shape_validation():
    plan = tuning.CvPlan(folds=2)
    with pytest.raises(ValueError, match="matching"):
        tuning.cross_validate(np.ones(10), np.ones((9, 3)), plan)
    with pytest.raises(ValueError, match="matching"):
        tuning.cross_validate(np.ones((10, 1)), np.ones((10, 3)), plan)


@pytest.mark.parametrize("c", [1e-8, 1e-6, 1e8])
def test_cv_table_is_scale_equivariant(c):
    # Squared errors scale with c**2 and the selection does not move: no
    # tolerance of the weight programs or the tie rule is absolute.
    rng = np.random.default_rng(3)
    y_pre, x_pre, _, _ = random_panel(rng, t0=60, n_donors=20, noise=0.5)
    plan = tuning.CvPlan(h=4, folds=8)
    base = tuning.cross_validate(y_pre, x_pre, plan)
    scaled = tuning.cross_validate(c * y_pre, c * x_pre, plan)
    assert_allclose(scaled.table, c * c * base.table, rtol=1e-12, atol=0.0)
    assert (scaled.best_rho, scaled.best_candidate) == (
        base.best_rho, base.best_candidate
    )


def test_overflowing_levels_are_rejected_by_name():
    # Every sum of squares of levels near 1e301 overflows: an input error.
    rng = np.random.default_rng(37)
    y_pre, x_pre, _, _ = random_panel(rng, t0=30, n_donors=4)
    plan = tuning.CvPlan(h=2, folds=3)
    with pytest.raises(ValueError, match="y_pre must be finite and within 1e\\+100"):
        tuning.cross_validate(1e301 * y_pre, x_pre, plan)
    with pytest.raises(ValueError, match="x_pre must be finite and within 1e\\+100"):
        tuning.cross_validate(y_pre, 1e301 * x_pre, plan)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_is_rejected_by_name(bad):
    rng = np.random.default_rng(37)
    y_pre, x_pre, _, _ = random_panel(rng, t0=30, n_donors=4)
    plan = tuning.CvPlan(h=2, folds=3)
    # Inside every training window, and only in the last validation window
    # (which no fold trains on).
    for row in (3, -1):
        broken = y_pre.copy()
        broken[row] = bad
        with pytest.raises(ValueError, match="y_pre must be finite"):
            tuning.cross_validate(broken, x_pre, plan)
        broken = x_pre.copy()
        broken[row, 2] = bad
        with pytest.raises(ValueError, match="x_pre must be finite"):
            tuning.cross_validate(y_pre, broken, plan)


def test_fixed_zeta_differs_from_auto():
    rng = np.random.default_rng(29)
    y_pre, x_pre, _, _ = random_panel(rng, t0=20, n_donors=4, noise=0.5)
    grid = np.array([0.5])
    loose = tuning.cross_validate(
        y_pre, x_pre, tuning.CvPlan(folds=3, rho_grid=grid, zeta=0.0)
    )
    tight = tuning.cross_validate(
        y_pre, x_pre, tuning.CvPlan(folds=3, rho_grid=grid, zeta=50.0)
    )
    assert not np.allclose(loose.table, tight.table)


def test_candidates_evaluated_on_common_folds():
    rng = np.random.default_rng(31)
    y_pre, x_pre, _, _ = random_panel(rng, t0=24, n_donors=4)
    plan = tuning.CvPlan(
        folds=5,
        rho_grid=np.linspace(0, 1, 5),
        candidates=((1, "last_constant"), (2, "last_constant"), (1, "ar")),
    )
    result = tuning.cross_validate(y_pre, x_pre, plan)
    assert result.table.shape == (3, 5)
    assert result.per_fold_errors.shape == (3, 5, 1, 5)
    assert np.all(np.isfinite(result.table))
    assert result.best_candidate in plan.candidates


# ---------------------------------------------------------------------------
# stacked scoring against the per-grid-point reference


def reference_cross_validate(y_pre, x_pre, plan):
    """Rolling-origin CV scored one grid point at a time.

    Each (candidate, fold, rho) builds its own program from the rescaled
    eigen-coordinates, solves it warm-started along the grid, fits its own
    forecast on the smooth part of that residual and scores it; selection
    uses the tie rule of :func:`tuning.cross_validate`.  Returns the
    per-fold errors, the exclusions and the selected (rho, candidate).
    """
    origins = tuning.rolling_origins(y_pre.size, plan.h, plan.folds)
    grid = plan.rho_grid
    per_fold = np.full((len(plan.candidates), plan.folds, plan.h, grid.size), np.nan)
    excluded = []
    for ci, (q, rule) in enumerate(plan.candidates):
        for li, k in enumerate(origins):
            y_tr, x_tr = y_pre[:k], x_pre[:k]
            y_val, x_val = y_pre[k : k + plan.h], x_pre[k : k + plan.h]
            zeta = hsc.auto_zeta(x_tr, plan.h) if plan.zeta == "auto" else plan.zeta
            basis = spectral.spectral_basis(k, q)
            v = basis.eigenvectors
            u_y, u_x = v.T @ y_tr, v.T @ x_tr
            weights = None
            try:
                for gi, rho in enumerate(grid):
                    shrink, match = spectral.path_gains(basis, (rho,))
                    root = np.sqrt(match[0])
                    problem = qp.build(root * u_y, root[:, None] * u_x, zeta * zeta * k)
                    weights = qp.solve(problem, init=weights).weights
                    e = v @ (shrink[0] * (u_y - u_x @ weights))
                    fc = forecast.compose(rule, basis, e, plan.h)
                    per_fold[ci, li, :, gi] = (y_val - (x_val @ weights + fc)) ** 2
            except forecast.ForecastError as exc:  # only a first window is short
                assert li == 0
                reason = f"{k}-period first training window; {exc}"
                excluded.append(((q, rule), k, reason))
                per_fold[ci] = np.nan
                break
    table = per_fold.mean(axis=(1, 2))
    tie = 1e-10 * (np.abs(y_pre).max() + np.abs(x_pre).max())
    best, best_min = None, np.inf
    for ci, row in enumerate(table):
        if not np.all(np.isfinite(row)):
            continue
        gi = int(np.nonzero(np.sqrt(row - row.min()) <= tie)[0][-1])
        if best is None or np.sqrt(max(best_min - row.min(), 0.0)) > tie:
            best, best_min = (float(grid[gi]), plan.candidates[ci]), row.min()
    return per_fold, tuple(excluded), best


@pytest.mark.parametrize("seed", [51, 52, 53])
def test_stacked_scoring_matches_per_point_reference(seed):
    # Every rule on both orders; then the panel's first 13 periods, on which
    # hamilton fails on the first fold (7 training points, 8 needed) and is
    # excluded.
    rng = np.random.default_rng(seed)
    y_pre, x_pre, _, _ = random_panel(rng, t0=30, n_donors=7, noise=0.4)
    grid = np.linspace(0.0, 1.0, 11)
    every_rule = tuning.CvPlan(
        h=3, folds=4, rho_grid=grid,
        candidates=tuple((q, rule) for q in (1, 2) for rule in forecast.RULE_KINDS),
    )
    some_rules = tuning.CvPlan(
        h=3, folds=4, rho_grid=grid,
        candidates=((1, "last_constant"), (1, "hamilton"), (2, "ar")),
    )
    for plan, t0 in ((every_rule, 30), (some_rules, 13)):
        with warnings.catch_warnings(record=True) as stacked_warnings:
            warnings.simplefilter("always")
            result = tuning.cross_validate(y_pre[:t0], x_pre[:t0], plan)
        with warnings.catch_warnings(record=True) as reference_warnings:
            warnings.simplefilter("always")
            errors, excluded, best = reference_cross_validate(
                y_pre[:t0], x_pre[:t0], plan
            )
        assert_allclose(result.per_fold_errors, errors, rtol=1e-9, atol=0.0)
        assert result.excluded == excluded
        assert (result.best_rho, result.best_candidate) == best
        assert len(stacked_warnings) == len(reference_warnings)
    assert [c for c, _, _ in result.excluded] == [(1, "hamilton")]


@pytest.mark.parametrize(
    "error",
    [ValueError("broadcast bug"), IndexError("index bug"),
     forecast.ForecastError("path length 9 does not match basis size 10")],
)
def test_bugs_in_forecast_scoring_propagate(monkeypatch, error):
    # Past the window check only numerical failures exclude a candidate; a
    # bare ValueError, an IndexError or a ForecastError is a bug and must
    # surface.
    rng = np.random.default_rng(59)
    y_pre, x_pre, _, _ = random_panel(rng, t0=24, n_donors=4)

    def compose(*args, **kwargs):
        raise error

    monkeypatch.setattr(forecast, "compose", compose)
    with pytest.raises(type(error), match=f"^{error}$"):
        tuning.cross_validate(y_pre, x_pre, tuning.CvPlan(h=2, folds=3))
