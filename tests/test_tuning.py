import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from harmonic_sc import hsc, qp, spectral, tuning
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
    grid = tuning.log_lambda_grid(23)
    assert grid.size == 23
    assert grid[0] == 0.0 and grid[-1] == 1.0
    assert np.all(np.diff(grid) > 0)


def test_log_lambda_grid_contains_balanced_point():
    # lambda = 1 sits at the centre of the log range and maps to rho = 1/2.
    grid = tuning.log_lambda_grid(23)
    assert np.any(np.isclose(grid, 0.5))


def test_log_lambda_grid_mapping():
    grid = tuning.log_lambda_grid(5)
    lam = np.geomspace(1e-3, 1e3, 3)
    assert_allclose(grid[1:-1], lam / (1 + lam))


def test_log_lambda_grid_minimum_size():
    with pytest.raises(ValueError, match="at least 3"):
        tuning.log_lambda_grid(2)


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
    with pytest.raises(ValueError, match="boundaries"):
        tuning.CvPlan(rho_grid=np.array([0.1, 0.9]), grid_mode="log_lambda")


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
    with pytest.raises(ValueError, match="grid_mode"):
        tuning.CvPlan(grid_mode="dyadic")


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
        calls.append(problem.n)
        return real_solve(problem, *args, **kwargs)

    monkeypatch.setattr(qp, "solve", solve)
    return calls


def test_rules_of_one_q_share_each_weight_solve(monkeypatch):
    # Weights depend on (q, fold, rho) only: three candidates over two
    # orders solve folds x grid x 2 programs, and sharing them leaves every
    # candidate's errors exactly as in a run of that candidate alone.
    rng = np.random.default_rng(41)
    y_pre, x_pre, _, _ = random_panel(rng, t0=30, n_donors=8, noise=0.3)
    plan = shared_plan()
    calls = counting_solve(monkeypatch)
    result = tuning.cross_validate(y_pre, x_pre, plan)
    assert len(calls) == plan.folds * plan.rho_grid.size * 2
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
    y_pre, x_pre, _, _ = random_panel(rng, t0=20, n_donors=4)
    # First fold trains on 10 points; the long-lag rule needs 14.
    plan = tuning.CvPlan(
        folds=10,
        candidates=((1, "last_constant"), (1, "hamilton")),
        hamilton_lags=12,
    )
    result = tuning.cross_validate(y_pre, x_pre, plan)
    assert result.best_candidate == (1, "last_constant")
    assert np.all(np.isnan(result.table[1]))
    assert np.all(np.isfinite(result.table[0]))
    assert len(result.excluded) == 1
    candidate, _, message = result.excluded[0]
    assert candidate == (1, "hamilton")
    assert "at least" in message


def test_all_candidates_failing_raises():
    rng = np.random.default_rng(19)
    y_pre, x_pre, _, _ = random_panel(rng, t0=16, n_donors=4)
    plan = tuning.CvPlan(
        folds=8, candidates=((1, "hamilton"),), hamilton_lags=12
    )
    with pytest.raises(ValueError, match="every candidate failed"):
        tuning.cross_validate(y_pre, x_pre, plan)


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
