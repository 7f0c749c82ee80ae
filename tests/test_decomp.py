import numpy as np
import numpy.testing as npt
import pytest

from harmonic_sc import decomp, forecast, hsc, spectral


def make_latent(seed=0, t0=48, t_post=6, n_donors=5, noise=0.3, exact_combo=False):
    """Sinusoid-plus-trend signals under an i.i.d. idiosyncratic layer.

    The treated signal is a fixed convex combination of the donor signals,
    optionally plus a small non-spanned wave so the oracle mismatch is not
    trivially zero.  Returns the panel and the generating weights.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(t0 + t_post, dtype=float)
    donors = np.empty((t0 + t_post, n_donors))
    for j in range(n_donors):
        freq = 0.05 + 0.04 * j
        donors[:, j] = (
            rng.normal(0.0, 0.5) * t / 10.0
            + np.sin(freq * t + rng.uniform(0.0, 2.0 * np.pi))
            + rng.normal(scale=0.2)
        )
    w_star = rng.dirichlet(np.ones(n_donors))
    treated = donors @ w_star
    if not exact_combo:
        treated = treated + 0.15 * np.cos(0.21 * t)
    signal = np.column_stack([treated, donors])
    remainder = noise * rng.standard_normal(signal.shape)
    return decomp.LatentPanel(signal=signal, remainder=remainder, t0=t0), w_star


# ---------------------------------------------------------------------------
# LatentPanel


def test_latent_panel_validation():
    good = np.zeros((10, 3))
    with pytest.raises(ValueError, match="2-D"):
        decomp.LatentPanel(signal=np.zeros(10), remainder=np.zeros(10), t0=5)
    with pytest.raises(ValueError, match="shape"):
        decomp.LatentPanel(signal=good, remainder=np.zeros((10, 4)), t0=5)
    with pytest.raises(ValueError, match="donor"):
        decomp.LatentPanel(signal=np.zeros((10, 1)), remainder=np.zeros((10, 1)), t0=5)
    bad = good.copy()
    bad[3, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        decomp.LatentPanel(signal=bad, remainder=good, t0=5)
    for t0 in (0, 10, 11):
        with pytest.raises(ValueError, match="t0"):
            decomp.LatentPanel(signal=good, remainder=good, t0=t0)


def test_observed_is_componentwise_sum():
    latent, _ = make_latent(seed=3)
    npt.assert_array_equal(latent.observed, latent.signal + latent.remainder)
    assert latent.t_post == 6
    assert latent.n_donors == 5


def test_to_view_blocks():
    latent, _ = make_latent(seed=4, t0=40, t_post=8)
    view = latent.to_view()
    obs = latent.observed
    npt.assert_array_equal(view.y_pre, obs[:40, 0])
    npt.assert_array_equal(view.x_post, obs[40:, 1:])
    assert view.t0 == 40 and view.t_post == 8 and view.n_donors == 5


# ---------------------------------------------------------------------------
# Oracle weights


def test_oracle_recovers_exact_combination():
    latent, w_star = make_latent(seed=11, exact_combo=True)
    w = decomp.oracle_weights(latent, q=1, zeta=0.0)
    npt.assert_allclose(w, w_star, atol=1e-6)


def test_oracle_matches_full_matching_fit_on_clean_panel():
    latent, _ = make_latent(seed=12, noise=0.0)
    w = decomp.oracle_weights(latent, q=1, zeta=0.4)
    fit = hsc.fit(latent.to_view(), hsc.HscConfig(rho=1.0, q=1, zeta=0.4))
    npt.assert_array_equal(w, fit.weights)


def test_oracle_ignores_remainder():
    latent_a, _ = make_latent(seed=13, noise=0.3)
    latent_b = decomp.LatentPanel(
        signal=latent_a.signal,
        remainder=np.random.default_rng(99).normal(size=latent_a.signal.shape),
        t0=latent_a.t0,
    )
    w_a = decomp.oracle_weights(latent_a, q=1, zeta=0.2)
    w_b = decomp.oracle_weights(latent_b, q=1, zeta=0.2)
    npt.assert_array_equal(w_a, w_b)


# ---------------------------------------------------------------------------
# Error split


@pytest.mark.parametrize("rho", [0.0, 0.35, 0.9, 1.0])
@pytest.mark.parametrize("rule", ["last_constant", "arima110"])
def test_split_adds_up(rho, rule):
    latent, _ = make_latent(seed=21)
    fit = hsc.fit(latent.to_view(), hsc.HscConfig(rho=rho, q=1, rule_kind=rule, zeta=0.3))
    ab = decomp.ab_decompose(latent, fit)
    scale = 1.0 + np.max(np.abs(ab.realized_error))
    npt.assert_allclose(
        ab.term_a + ab.term_b, ab.realized_error, atol=1e-10 * scale, rtol=0.0
    )


def test_weight_gap_term_vanishes_at_oracle_weights():
    # On a noise-free panel the full-matching fit IS the oracle program, so
    # the weight gap is identically zero and the whole error sits in the
    # continuation term.
    latent, _ = make_latent(seed=22, noise=0.0)
    fit = hsc.fit(latent.to_view(), hsc.HscConfig(rho=1.0, q=1, zeta=0.25))
    ab = decomp.ab_decompose(latent, fit)
    npt.assert_array_equal(ab.oracle_weights, fit.weights)
    npt.assert_array_equal(ab.term_a, np.zeros(latent.t_post))
    npt.assert_allclose(ab.term_b, ab.realized_error, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("rule", ["last_constant", "ar"])
def test_continuation_term_at_full_matching_is_null_gap(rule):
    # At full matching the smoother keeps only the null-space component, the
    # rule is fitted on a zero path, and the continuation term collapses to
    # the post-period residual net of the polynomial carry-forward.
    latent, _ = make_latent(seed=23)
    fit = hsc.fit(latent.to_view(), hsc.HscConfig(rho=1.0, q=1, rule_kind=rule, zeta=0.3))
    ab = decomp.ab_decompose(latent, fit)
    npt.assert_allclose(ab.term_b, ab.eta_post, atol=1e-9)


@pytest.mark.parametrize("rho", [0.3, 0.8])
def test_continuation_term_direct_form(rho):
    latent, _ = make_latent(seed=24)
    fit = hsc.fit(latent.to_view(), hsc.HscConfig(rho=rho, q=1, zeta=0.3))
    ab = decomp.ab_decompose(latent, fit)
    basis = spectral.spectral_basis(latent.t0, 1)
    metric = spectral.rho_metric(basis, rho)
    smoothed_gap = fit.forecaster.apply(
        spectral.smoother_apply(metric, ab.eta_pre), latent.t_post
    )
    npt.assert_allclose(ab.term_b, ab.eta_post - smoothed_gap, atol=1e-9)


def materialize_map_by_columns(forecaster, metric, horizon):
    """Oracle for ``decomp._materialize_map``: one application per column.

    The affine forecast map is pinned down by its action on each column of
    the smoother plus its value at zero.
    """
    v = metric.basis.eigenvectors
    smoother = (v * metric.shrink_gains) @ v.T
    n = metric.basis.n
    offset = forecaster.apply(np.zeros(n), horizon)
    pi = np.empty((horizon, n))
    for j in range(n):
        pi[:, j] = forecaster.apply(smoother[:, j], horizon) - offset
    return pi, offset


def test_materialized_map_matches_affine_application():
    latent, _ = make_latent(seed=25, t0=30, t_post=4)
    rng = np.random.default_rng(7)
    for q in (1, 2):
        basis = spectral.spectral_basis(latent.t0, q)
        metric = spectral.rho_metric(basis, 0.7)
        for rule in forecast.RULE_KINDS:
            cfg = hsc.HscConfig(rho=0.7, q=q, rule_kind=rule, zeta=0.3)
            fit = hsc.fit(latent.to_view(), cfg)
            pi, offset = decomp._materialize_map(fit.forecaster, metric, latent.t_post)
            pi_ref, offset_ref = materialize_map_by_columns(
                fit.forecaster, metric, latent.t_post
            )
            scale = np.max(np.abs(pi_ref)) + np.max(np.abs(offset_ref))
            npt.assert_allclose(pi, pi_ref, rtol=0.0, atol=1e-12 * scale)
            npt.assert_array_equal(offset, offset_ref)
            for _ in range(5):
                r = rng.normal(size=latent.t0)
                direct = fit.forecaster.apply(
                    spectral.smoother_apply(metric, r), latent.t_post
                )
                npt.assert_allclose(pi @ r + offset, direct, atol=1e-10)


# ---------------------------------------------------------------------------
# Gradient channels


def _objectives(latent, rho, q, zeta):
    """Feasible and infeasible program objectives as plain callables."""
    basis = spectral.spectral_basis(latent.t0, q)
    metric = spectral.rho_metric(basis, rho)
    view = latent.to_view()
    l1 = latent.signal[: latent.t0, 0]
    l0 = latent.signal[: latent.t0, 1:]
    ridge = zeta * zeta * latent.t0

    def feasible(w):
        r = view.y_pre - view.x_pre @ w
        return spectral.metric_quadform(metric, r) + ridge * float(w @ w)

    def infeasible(w):
        e = basis.project_perp(l1 - l0 @ w)
        return float(e @ e) + ridge * float(w @ w)

    return feasible, infeasible


def test_gradient_channels_against_finite_differences():
    latent, _ = make_latent(seed=31, n_donors=4)
    rho, q, zeta = 0.6, 1, 0.35
    g1, g2, g3 = decomp.gradient_channels(latent, rho, q, zeta)
    expected = -2.0 * (g1 + g2 + g3)

    feasible, infeasible = _objectives(latent, rho, q, zeta)
    w0 = decomp.oracle_weights(latent, q, zeta)
    step = 1e-6
    numeric = np.empty_like(w0)
    for i in range(w0.size):
        up, dn = w0.copy(), w0.copy()
        up[i] += step
        dn[i] -= step
        diff_f = (feasible(up) - feasible(dn)) / (2.0 * step)
        diff_h = (infeasible(up) - infeasible(dn)) / (2.0 * step)
        numeric[i] = diff_f - diff_h
    npt.assert_allclose(numeric, expected, atol=1e-6 * (1.0 + np.max(np.abs(expected))))


def test_gradient_channels_structural_zeros():
    clean, _ = make_latent(seed=32, noise=0.0)
    g1, g2, g3 = decomp.gradient_channels(clean, 0.5, 1, 0.3)
    npt.assert_array_equal(g2, np.zeros(5))
    npt.assert_array_equal(g3, np.zeros(5))
    assert np.any(g1 != 0.0)

    noisy, _ = make_latent(seed=33)
    g1, g2, g3 = decomp.gradient_channels(noisy, 1.0, 1, 0.3)
    # At full matching the metric and the projection coincide, closing the
    # first route exactly (up to eigenbasis round-off).
    assert np.max(np.abs(g1)) < 1e-10
    assert np.max(np.abs(g2)) > 1e-3


# ---------------------------------------------------------------------------
# Channel bounds


def test_channel_bounds_vanish_for_null_space_signal():
    # Constant signals sit in the q=1 null space, so the signal mismatch is
    # invisible to both the metric and the projection: the first two
    # channels close at every smoothing level.
    rng = np.random.default_rng(41)
    const = np.tile(rng.normal(size=4), (30, 1))
    signal = np.column_stack([np.full(30, const[0, 1:].mean()), const[:, 1:]])
    latent = decomp.LatentPanel(
        signal=signal,
        remainder=0.4 * rng.standard_normal(signal.shape),
        t0=24,
    )
    for rho in (0.0, 0.4, 0.9, 1.0):
        report = decomp.channels(latent, rho, 1, zeta=0.5)
        assert report.a1 <= 1e-10
        assert report.a2 <= 1e-10
        assert report.a3 > 1e-3


def test_curvature_inverse_bounded_by_ridge():
    latent, _ = make_latent(seed=42)
    zeta = 0.5
    for rho in (0.0, 0.3, 0.7, 1.0):
        report = decomp.channels(latent, rho, 1, zeta=zeta)
        assert not report.pseudo_inverse
        assert report.q_max_inv_eig <= (1.0 + 1e-10) / zeta**2
        assert report.condition >= 1.0
        assert report.envelope >= 0.0


def test_zero_ridge_singular_curvature_flagged():
    latent, _ = make_latent(seed=43, n_donors=3)
    doubled = decomp.LatentPanel(
        signal=np.column_stack([latent.signal, latent.signal[:, -1]]),
        remainder=np.column_stack([latent.remainder, latent.remainder[:, -1]]),
        t0=latent.t0,
    )
    report = decomp.channels(doubled, 0.6, 1, zeta=0.0)
    assert report.pseudo_inverse
    for value in (report.a1, report.a2, report.a3, report.transfer, report.envelope):
        assert np.isfinite(value)


@pytest.mark.parametrize("seed", [51, 52, 53])
def test_envelope_dominates_weight_gap(seed):
    latent, _ = make_latent(seed=seed, t0=40, t_post=5)
    report = decomp.decompose(latent, q=1)
    gap_norms = np.linalg.norm(report.term_a, axis=1)
    assert np.all(gap_norms <= report.envelope + 1e-8 * (1.0 + gap_norms))


def test_dual_norm_transfer_inequality():
    # The curvature-weighted dual norm of a metric-filtered path is never
    # larger than the path's own metric norm (after the 1/sqrt(T0) scaling);
    # this is the inequality that turns channel bounds into weight bounds.
    latent, _ = make_latent(seed=54)
    view = latent.to_view()
    t0 = latent.t0
    basis = spectral.spectral_basis(t0, 1)
    zeta = 0.3
    rng = np.random.default_rng(8)
    for rho in (0.0, 0.25, 0.6, 0.95, 1.0):
        metric = spectral.rho_metric(basis, rho)
        design = spectral.sqrt_factor(metric) @ view.x_pre
        q_mat = design.T @ design / t0 + zeta**2 * np.eye(latent.n_donors)
        evals, evecs = np.linalg.eigh((q_mat + q_mat.T) / 2.0)
        for _ in range(20):
            u = rng.normal(size=t0)
            g = view.x_pre.T @ spectral.metric_apply(metric, u)
            coef = evecs.T @ g
            lhs = np.sqrt(np.sum(coef * coef / evals)) / t0
            rhs = np.sqrt(spectral.metric_quadform(metric, u) / t0)
            assert lhs <= rhs * (1.0 + 1e-10) + 1e-12


# ---------------------------------------------------------------------------
# Grid sweep


def test_decompose_report_consistency():
    latent, _ = make_latent(seed=61, t0=36, t_post=4)
    report = decomp.decompose(latent, q=1, zeta=0.4)
    n_grid = report.rho_grid.size
    assert n_grid == len(decomp.DEFAULT_RHO_GRID)
    assert report.term_a.shape == (n_grid, 4)
    assert report.weights.shape == (n_grid, 5)
    npt.assert_allclose(
        report.term_a + report.term_b,
        report.realized_error,
        atol=1e-10 * (1.0 + np.max(np.abs(report.realized_error))),
        rtol=0.0,
    )
    npt.assert_allclose(
        report.rmse, np.sqrt(np.mean(report.realized_error**2, axis=1)), rtol=1e-15
    )
    assert np.all(report.weights >= 0.0)
    npt.assert_allclose(report.weights.sum(axis=1), 1.0, atol=1e-9)
    assert not np.any(report.pseudo_inverse)
    npt.assert_array_equal(
        report.oracle_weights, decomp.oracle_weights(latent, 1, 0.4)
    )


def test_decompose_validates_inputs():
    latent, _ = make_latent(seed=62)
    with pytest.raises(ValueError, match="increasing"):
        decomp.decompose(latent, rho_grid=[0.5, 0.5, 1.0])
    with pytest.raises(ValueError, match="0, 1"):
        decomp.decompose(latent, rho_grid=[0.0, 1.5])
    with pytest.raises(ValueError, match="zeta"):
        decomp.decompose(latent, zeta=-1.0)


def test_decompose_resolves_ridge_once():
    latent, _ = make_latent(seed=63)
    view = latent.to_view()
    report = decomp.decompose(latent, q=1, rho_grid=[0.2, 0.8])
    assert report.zeta == hsc.auto_zeta(view.x_pre, view.t_post)


def test_ab_decompose_rejects_mismatched_fit():
    latent, _ = make_latent(seed=64)
    other, _ = make_latent(seed=65, n_donors=7)
    fit = hsc.fit(other.to_view(), hsc.HscConfig(rho=0.5, q=1, zeta=0.3))
    with pytest.raises(ValueError, match="dimensions"):
        decomp.ab_decompose(latent, fit)
