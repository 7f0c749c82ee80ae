import numpy as np
import pytest
from numpy.testing import assert_allclose

from harmonic_sc import baselines, hsc, qp, tuning
from harmonic_sc.panel import PrePostView


def make_view(rng, t0=20, t_post=5, n_donors=4, noise=0.0, shift=0.0, slope=0.0):
    x = np.cumsum(rng.normal(size=(t0 + t_post, n_donors)), axis=0)
    w = rng.dirichlet(np.ones(n_donors))
    t = np.arange(t0 + t_post, dtype=float)
    y = x @ w + shift + slope * t + noise * rng.normal(size=t0 + t_post)
    return (
        PrePostView(y_pre=y[:t0], x_pre=x[:t0], y_post=y[t0:], x_post=x[t0:]),
        w,
    )


def simplex_grid(step):
    """All simplex points over three coordinates with the given resolution."""
    ticks = np.arange(0.0, 1.0 + step / 2, step)
    pts = []
    for a in ticks:
        for b in ticks:
            if a + b <= 1.0 + 1e-12:
                pts.append((a, b, 1.0 - a - b))
    return np.array(pts)


# ---------------------------------------------------------------------------
# plain SC


def test_sc_duplicated_donor_gets_full_weight():
    rng = np.random.default_rng(0)
    x = np.cumsum(rng.normal(size=(15, 3)), axis=0)
    view = PrePostView(
        y_pre=x[:10, 1].copy(), x_pre=x[:10], y_post=x[10:, 1].copy(), x_post=x[10:]
    )
    fit = baselines.fit_sc(view)
    assert_allclose(fit.weights, [0.0, 1.0, 0.0], atol=1e-8)
    assert_allclose(view.y_pre - view.x_pre @ fit.weights, 0.0, atol=1e-7)

    # Grid confirmation that the vertex really is the minimizer.
    grid = simplex_grid(0.05)
    objective = ((view.y_pre[:, None] - view.x_pre @ grid.T) ** 2).sum(axis=0)
    best = grid[np.argmin(objective)]
    assert_allclose(best, [0.0, 1.0, 0.0], atol=1e-12)


def test_sc_huge_ridge_gives_uniform():
    rng = np.random.default_rng(1)
    view, _ = make_view(rng, n_donors=5)
    fit = baselines.fit_sc(view, ridge=1e12)
    assert_allclose(fit.weights, 0.2, atol=1e-5)


def test_sc_identical_donors_degenerate_but_reported():
    rng = np.random.default_rng(2)
    col = np.cumsum(rng.normal(size=15))
    x = np.column_stack([col, col, col])
    y = col + rng.normal(size=15) * 0.1
    view = PrePostView(y_pre=y[:10], x_pre=x[:10], y_post=y[10:], x_post=x[10:])
    fit = baselines.fit_sc(view)
    assert_allclose(fit.weights.sum(), 1.0, atol=1e-12)
    assert np.all(fit.weights >= 0)
    assert np.isfinite(fit.solution.kkt_residual)


def test_sc_counterfactual_is_donor_combination():
    rng = np.random.default_rng(3)
    view, _ = make_view(rng)
    fit = baselines.fit_sc(view)
    assert_allclose(fit.counterfactual, view.x_post @ fit.weights)
    assert fit.aux == {}


# ---------------------------------------------------------------------------
# SC with intercept / trend


def test_sc_int_recovers_shift():
    rng = np.random.default_rng(4)
    view, w_true = make_view(rng, shift=3.0)
    fit = baselines.fit_sc_int(view)
    assert_allclose(fit.weights, w_true, atol=1e-6)
    assert_allclose(fit.aux["intercept"], 3.0, atol=1e-6)
    assert_allclose(fit.counterfactual, view.y_post, atol=1e-5)


def test_sc_int_trend_recovers_slope():
    rng = np.random.default_rng(5)
    view, w_true = make_view(rng, shift=2.0, slope=0.1)
    fit = baselines.fit_sc_int(view, with_trend=True)
    assert fit.method == "sc_int_trend"
    assert_allclose(fit.weights, w_true, atol=1e-5)
    assert_allclose(fit.aux["slope"], 0.1, atol=1e-6)
    assert_allclose(fit.aux["intercept"], 2.0, atol=1e-5)
    assert_allclose(fit.counterfactual, view.y_post, atol=1e-4)


@pytest.mark.parametrize("with_trend", [False, True])
def test_sc_int_matches_full_matching_endpoint(with_trend):
    rng = np.random.default_rng(6)
    view, _ = make_view(rng, noise=0.3)
    zeta = 0.2
    q = 2 if with_trend else 1
    ours = baselines.fit_sc_int(view, ridge=zeta**2 * view.t0, with_trend=with_trend)
    theirs = hsc.fit(view, hsc.HscConfig(rho=1.0, q=q, zeta=zeta))
    assert_allclose(ours.weights, theirs.weights, atol=1e-6)
    assert_allclose(ours.counterfactual, theirs.counterfactual, atol=1e-6)


def test_demeaned_ssr_ordering():
    # Each estimator minimizes its own criterion, so on the demeaned scale
    # the intercept variant can never lose to plain SC.
    rng = np.random.default_rng(7)
    for _ in range(10):
        view, _ = make_view(rng, noise=0.5, shift=rng.normal() * 2)

        def demeaned_ssr(w):
            r = view.y_pre - view.x_pre @ w
            return np.sum((r - r.mean()) ** 2)

        ssr_int = demeaned_ssr(baselines.fit_sc_int(view).weights)
        ssr_sc = demeaned_ssr(baselines.fit_sc(view).weights)
        assert ssr_int <= ssr_sc + 1e-9


# ---------------------------------------------------------------------------
# differenced SC


def test_diff_sc_direct_formula_oracle():
    rng = np.random.default_rng(8)
    view, _ = make_view(rng, noise=0.4)
    ridge = 0.7
    fit = baselines.fit_diff_sc(view, ridge=ridge)

    dy = view.y_pre[1:] - view.y_pre[:-1]
    dx = view.x_pre[1:] - view.x_pre[:-1]
    sol = qp.solve(qp.build(dy, dx, ridge))
    assert_allclose(fit.weights, sol.weights, atol=1e-10)
    anchor = view.y_pre[-1] - view.x_pre[-1] @ sol.weights
    assert_allclose(fit.counterfactual, view.x_post @ sol.weights + anchor)
    assert_allclose(fit.aux["anchor"], anchor)


def test_diff_sc_anchor_identity():
    # If donors never move after t0, the counterfactual stays at the last
    # observed treated level.
    rng = np.random.default_rng(9)
    view, _ = make_view(rng, noise=0.2)
    frozen = PrePostView(
        y_pre=view.y_pre,
        x_pre=view.x_pre,
        y_post=view.y_post,
        x_post=np.tile(view.x_pre[-1], (view.t_post, 1)),
    )
    fit = baselines.fit_diff_sc(frozen)
    assert_allclose(fit.counterfactual, view.y_pre[-1], atol=1e-12)


def test_diff_sc_matches_difference_endpoint():
    rng = np.random.default_rng(10)
    view, _ = make_view(rng, noise=0.3)
    zeta = 0.15
    ours = baselines.fit_diff_sc(view, ridge=zeta**2 * view.t0)
    theirs = hsc.fit(view, hsc.HscConfig(rho=0.0, q=1, zeta=zeta))
    assert_allclose(ours.counterfactual, theirs.counterfactual, atol=1e-6)
    assert_allclose(ours.weights, theirs.weights, atol=1e-6)


def test_diff_sc_translation_equivariance():
    rng = np.random.default_rng(11)
    view, _ = make_view(rng, noise=0.3)
    shifted = PrePostView(
        y_pre=view.y_pre + 7.5,
        x_pre=view.x_pre,
        y_post=view.y_post + 7.5,
        x_post=view.x_post,
    )
    base = baselines.fit_diff_sc(view)
    moved = baselines.fit_diff_sc(shifted)
    assert_allclose(moved.weights, base.weights, atol=1e-10)
    assert_allclose(moved.counterfactual, base.counterfactual + 7.5, atol=1e-9)


# ---------------------------------------------------------------------------
# SDID


def test_sdid_needs_three_pre_periods():
    view = PrePostView(
        y_pre=np.ones(2),
        x_pre=np.ones((2, 3)),
        y_post=np.ones(1),
        x_post=np.ones((1, 3)),
    )
    with pytest.raises(ValueError, match="at least 3 pre-treatment"):
        baselines.fit_sdid(view)


def test_sdid_degenerate_time_weights_still_valid():
    # Donors constant over time make the time-weight problem flat; any
    # simplex point is optimal and the fit must still come back well-formed.
    rng = np.random.default_rng(12)
    x = np.tile(rng.normal(size=4), (11, 1))
    y = rng.normal(size=11)
    view = PrePostView(y_pre=y[:10], x_pre=x[:10], y_post=y[10:], x_post=x[10:])
    with pytest.warns(RuntimeWarning):
        fit = baselines.fit_sdid(view)  # auto zeta degenerates to 0 too
    lam = fit.aux["time_weights"]
    assert lam.shape == (10,)
    assert_allclose(lam.sum(), 1.0, atol=1e-12)
    assert np.all(lam >= 0)
    assert fit.counterfactual.shape == (1,)


def test_sdid_equals_sc_int_when_time_weights_flat():
    # Constant-in-time donors leave the time-weight objective flat, so the
    # solver returns uniform weights and the lambda-average of the residual
    # is exactly the intercept — reproducing the SC-INT counterfactual.
    rng = np.random.default_rng(13)
    x_pre = np.tile(rng.normal(size=4), (12, 1))
    x_post = rng.normal(size=(3, 4))
    y_pre = rng.normal(size=12)
    y_post = rng.normal(size=3)
    view = PrePostView(y_pre=y_pre, x_pre=x_pre, y_post=y_post, x_post=x_post)
    sdid = baselines.fit_sdid(view, ridge_policy=0.0)
    scint = baselines.fit_sc_int(view, ridge=0.0)
    assert_allclose(sdid.aux["time_weights"], 1.0 / 12, atol=1e-12)
    assert_allclose(sdid.counterfactual, scint.counterfactual, atol=1e-9)


def test_sdid_ridge_deconcentrates_weights():
    rng = np.random.default_rng(14)
    base = np.cumsum(rng.normal(size=25))
    donors = np.column_stack(
        [base] + [base + 0.3 * rng.normal(size=25) for _ in range(4)]
    )
    y = base + 1.5
    view = PrePostView(
        y_pre=y[:20], x_pre=donors[:20], y_post=y[20:], x_post=donors[20:]
    )
    concentrated = baselines.fit_sc_int(view, ridge=0.0)
    spread = baselines.fit_sdid(view)
    assert np.max(concentrated.weights) > 0.9
    assert np.max(spread.weights) < np.max(concentrated.weights)


def test_sdid_counterfactual_formula():
    rng = np.random.default_rng(15)
    view, _ = make_view(rng, noise=0.3)
    fit = baselines.fit_sdid(view)
    lam = fit.aux["time_weights"]
    residual = view.y_pre - view.x_pre @ fit.weights
    assert_allclose(
        fit.counterfactual, view.x_post @ fit.weights + lam @ residual
    )
    assert fit.aux["zeta"] == pytest.approx(hsc.auto_zeta(view.x_pre, view.t_post))


# ---------------------------------------------------------------------------
# scale equivariance of every weight program


def level_panel(seed, t0=50, t_post=10, n_donors=30):
    """Donors at levels 5-15 sharing a random walk, each with its own walk."""
    rng = np.random.default_rng(seed)
    common = np.cumsum(rng.normal(size=t0 + t_post))
    x = (
        rng.uniform(5.0, 15.0, n_donors)
        + np.outer(common, rng.normal(1.0, 0.5, n_donors))
        + 0.3 * np.cumsum(rng.normal(size=(t0 + t_post, n_donors)), axis=0)
        + 0.5 * rng.normal(size=(t0 + t_post, n_donors))
    )
    mix = np.zeros(n_donors)
    mix[rng.choice(n_donors, size=6, replace=False)] = rng.dirichlet(np.ones(6))
    y = x @ mix + 0.7 * np.cumsum(rng.normal(size=t0 + t_post))
    return PrePostView(y_pre=y[:t0], x_pre=x[:t0], y_post=y[t0:], x_post=x[t0:])


def test_weights_and_selection_are_scale_equivariant():
    # Multiplying every outcome by a constant leaves every weight program's
    # solution unchanged.  At levels in the hundreds the bordered KKT solve
    # once lost its sum constraint and the solver stalled.
    base = level_panel(1)
    plan = tuning.CvPlan(h=4, folds=6, candidates=((1, "last_constant"), (2, "last_constant")))

    def fits(view):
        weights = {m: baselines.fit(m, view).weights for m in baselines.METHODS}
        weights["sdid_time"] = baselines.fit("sdid", view).aux["time_weights"]
        for q in (1, 2):
            weights[f"hsc_q{q}"] = hsc.fit(view, hsc.HscConfig(rho=0.5, q=q)).weights
        cv = tuning.cross_validate(view.y_pre, view.x_pre, plan)
        return weights, (cv.best_rho, cv.best_candidate)

    weights, selection = fits(base)
    for scale in (1e2, 1e4):
        scaled = PrePostView(
            y_pre=scale * base.y_pre, x_pre=scale * base.x_pre,
            y_post=scale * base.y_post, x_post=scale * base.x_post,
        )
        scaled_weights, scaled_selection = fits(scaled)
        assert scaled_selection == selection
        for name, w in weights.items():
            assert_allclose(scaled_weights[name], w, rtol=0.0, atol=1e-9, err_msg=name)
