import warnings

import numpy as np
import numpy.testing as npt
import pytest

from harmonic_sc import decomp, forecast, hsc, qp, spectral


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
    with pytest.raises(ValueError, match="^remainder must be finite and within"):
        decomp.LatentPanel(signal=good, remainder=good + 1e160, t0=5)
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
    report = decomp.decompose(latent, q=1, rule_kind=rule, zeta=0.3, rho_grid=(rho,))
    scale = 1.0 + np.max(np.abs(report.realized_error))
    npt.assert_allclose(
        report.term_a + report.term_b, report.realized_error,
        atol=1e-10 * scale, rtol=0.0,
    )


def test_weight_gap_term_vanishes_at_oracle_weights():
    # On a noise-free panel the full-matching fit IS the oracle program, so
    # the weight gap is identically zero and the whole error sits in the
    # continuation term.
    latent, _ = make_latent(seed=22, noise=0.0)
    report = decomp.decompose(latent, q=1, zeta=0.25, rho_grid=(1.0,))
    npt.assert_array_equal(report.oracle_weights, report.weights[0])
    npt.assert_array_equal(report.term_a[0], np.zeros(latent.t_post))
    npt.assert_allclose(
        report.term_b[0], report.realized_error[0], rtol=0.0, atol=1e-12
    )


@pytest.mark.parametrize("rule", ["last_constant", "ar"])
def test_continuation_term_at_full_matching_is_null_gap(rule):
    # At full matching the smoother keeps only the null-space component, the
    # rule is fitted on a zero path, and the continuation term collapses to
    # the post-period residual net of the polynomial carry-forward.
    latent, _ = make_latent(seed=23)
    report = decomp.decompose(latent, q=1, rule_kind=rule, zeta=0.3, rho_grid=(1.0,))
    npt.assert_allclose(report.term_b[0], report.eta_post, atol=1e-9)


@pytest.mark.parametrize("rho", [0.3, 0.8])
def test_continuation_term_direct_form(rho):
    latent, _ = make_latent(seed=24)
    report = decomp.decompose(latent, q=1, zeta=0.3, rho_grid=(rho,))
    fit = hsc.fit(latent.to_view(), hsc.HscConfig(rho=rho, q=1, zeta=0.3))
    basis = spectral.spectral_basis(latent.t0, 1)
    v = basis.eigenvectors
    (shrink,), _ = spectral.path_gains(basis, (rho,))
    smoothed_gap = fit.forecaster.apply(
        v @ (shrink * (v.T @ report.eta_pre)), latent.t_post
    )
    npt.assert_allclose(report.term_b[0], report.eta_post - smoothed_gap, atol=1e-9)


def materialize_map_by_columns(forecaster, basis, shrink, horizon):
    """Oracle for the maps of ``decomp._forecasts``: one application per
    column.

    The affine forecast map is pinned down by its action on each column of
    the smoother ``V diag(shrink) V'`` plus its value at zero.
    """
    v = basis.eigenvectors
    smoother = (v * shrink) @ v.T
    n = basis.n
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
        v = basis.eigenvectors
        shrink, _ = spectral.path_gains(basis, (0.7,))
        for rule in forecast.RULE_KINDS:
            cfg = hsc.HscConfig(rho=0.7, q=q, rule_kind=rule, zeta=0.3)
            fit = hsc.fit(latent.to_view(), cfg)
            (pi,), _ = decomp._forecasts(fit.forecaster, basis, shrink, latent.t_post)
            pi_ref, offset = materialize_map_by_columns(
                fit.forecaster, basis, shrink[0], latent.t_post
            )
            scale = np.max(np.abs(pi_ref)) + np.max(np.abs(offset))
            npt.assert_allclose(pi, pi_ref, rtol=0.0, atol=1e-12 * scale)
            for _ in range(5):
                r = rng.normal(size=latent.t0)
                direct = fit.forecaster.apply(v @ (shrink[0] * (v.T @ r)), latent.t_post)
                npt.assert_allclose(pi @ r + offset, direct, atol=1e-10)


# ---------------------------------------------------------------------------
# Gradient channels


def _objectives(latent, rho, q, zeta):
    """Feasible and infeasible program objectives as plain callables."""
    basis = spectral.spectral_basis(latent.t0, q)
    _, (match,) = spectral.path_gains(basis, (rho,))
    view = latent.to_view()
    l1 = latent.signal[: latent.t0, 0]
    l0 = latent.signal[: latent.t0, 1:]
    ridge = zeta * zeta * latent.t0

    def feasible(w):
        coef = basis.eigenvectors.T @ (view.y_pre - view.x_pre @ w)
        return float(np.sum(match * coef * coef)) + ridge * float(w @ w)

    def infeasible(w):
        e = basis.project_perp(l1 - l0 @ w)
        return float(e @ e) + ridge * float(w @ w)

    return feasible, infeasible


def oracle_gradients(latent, rho, q, zeta):
    """``decomp._gradients`` at one rho, at the oracle weights."""
    basis = spectral.spectral_basis(latent.t0, q)
    parts = decomp._oracle_parts(latent, basis, decomp.oracle_weights(latent, q, zeta))
    _, match = spectral.path_gains(basis, (rho,))
    return [g[0] for g in decomp._gradients(latent, basis, match, parts)]


def test_gradient_channels_against_finite_differences():
    latent, _ = make_latent(seed=31, n_donors=4)
    rho, q, zeta = 0.6, 1, 0.35
    g1, g2, g3 = oracle_gradients(latent, rho, q, zeta)
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
    g1, g2, g3 = oracle_gradients(clean, 0.5, 1, 0.3)
    npt.assert_array_equal(g2, np.zeros(5))
    npt.assert_array_equal(g3, np.zeros(5))
    assert np.any(g1 != 0.0)

    noisy, _ = make_latent(seed=33)
    g1, g2, g3 = oracle_gradients(noisy, 1.0, 1, 0.3)
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
    report = decomp.decompose(latent, q=1, zeta=0.5, rho_grid=(0.0, 0.4, 0.9, 1.0))
    assert np.all(report.a1 <= 1e-10)
    assert np.all(report.a2 <= 1e-10)
    assert np.all(report.a3 > 1e-3)


def test_curvature_inverse_bounded_by_ridge():
    latent, _ = make_latent(seed=42)
    zeta = 0.5
    report = decomp.decompose(latent, q=1, zeta=zeta, rho_grid=(0.0, 0.3, 0.7, 1.0))
    assert not np.any(report.pseudo_inverse)
    assert np.all(report.q_max_inv_eig <= (1.0 + 1e-10) / zeta**2)
    assert np.all(report.condition >= 1.0)
    assert np.all(report.envelope >= 0.0)


def test_zero_ridge_singular_curvature_flagged():
    latent, _ = make_latent(seed=43, n_donors=3)
    doubled = decomp.LatentPanel(
        signal=np.column_stack([latent.signal, latent.signal[:, -1]]),
        remainder=np.column_stack([latent.remainder, latent.remainder[:, -1]]),
        t0=latent.t0,
    )
    report = decomp.decompose(doubled, q=1, zeta=0.0, rho_grid=(0.6,))
    assert report.pseudo_inverse[0]
    for value in (report.a1, report.a2, report.a3, report.transfer, report.envelope):
        assert np.isfinite(value[0])


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
    v = basis.eigenvectors
    zeta = 0.3
    rng = np.random.default_rng(8)
    for rho in (0.0, 0.25, 0.6, 0.95, 1.0):
        _, (match,) = spectral.path_gains(basis, (rho,))
        design = np.sqrt(match)[:, None] * v.T @ view.x_pre
        q_mat = design.T @ design / t0 + zeta**2 * np.eye(latent.n_donors)
        evals, evecs = np.linalg.eigh((q_mat + q_mat.T) / 2.0)
        for _ in range(20):
            u_coef = v.T @ rng.normal(size=t0)
            g = view.x_pre.T @ (v @ (match * u_coef))
            coef = evecs.T @ g
            lhs = np.sqrt(np.sum(coef * coef / evals)) / t0
            rhs = np.sqrt(np.sum(match * u_coef * u_coef) / t0)
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
    with pytest.raises(ValueError, match="unknown forecast rule 'bogus'"):
        decomp.decompose(latent, rule_kind="bogus")
    with pytest.raises(ValueError, match="order q must be 1 or 2"):
        decomp.decompose(latent, q=3)
    short, _ = make_latent(seed=62, t0=3)
    with pytest.raises(ValueError, match=r"q\+2 = 4 pre-treatment periods, got 3"):
        decomp.decompose(short, q=2)


def test_decompose_checks_the_rule_window_before_any_solve(monkeypatch):
    def solve(*args, **kwargs):
        raise AssertionError("solved before the window check")

    monkeypatch.setattr(qp, "solve", solve)
    latent, _ = make_latent(seed=62, t0=10, t_post=6)
    with pytest.raises(forecast.ForecastError, match="needs at least 11 observations"):
        decomp.decompose(latent, rule_kind="hamilton")


def test_decompose_resolves_ridge_once():
    latent, _ = make_latent(seed=63)
    view = latent.to_view()
    report = decomp.decompose(latent, q=1, rho_grid=[0.2, 0.8])
    assert report.zeta == hsc.auto_zeta(view.x_pre, view.t_post)


# ---------------------------------------------------------------------------
# Per-point reference


def reference_materialize_map(forecaster, basis, shrink, horizon):
    """The forecast map of one grid point, from the smoother applied as one
    stack."""
    v = basis.eigenvectors
    smoother = (v * shrink) @ v.T
    offset = forecaster.apply(np.zeros(basis.n), horizon)
    return forecaster.apply(smoother, horizon) - offset[:, None], offset


def reference_ab_terms(latent, fit, parts, basis, shrink, pi):
    """The error split of one fit, given the oracle parts and its map."""
    view = latent.to_view()
    term_a = (view.x_post - pi @ view.x_pre) @ (parts.weights - fit.weights)
    v = basis.eigenvectors
    smoothed = v @ (shrink * (v.T @ parts.r_pre))
    term_b = parts.r_post - fit.forecaster.apply(smoothed, latent.t_post)
    return term_a, term_b, view.y_post - fit.counterfactual


def reference_channel_report(latent, basis, match, zeta, parts, pi):
    """The channel bounds of one grid point, one program at a time."""
    t0 = latent.t0
    view = latent.to_view()
    l0 = latent.signal[:t0, 1:]
    r0 = latent.remainder[:t0, 1:]
    v = basis.eigenvectors
    w_e_signal = v @ (match * (v.T @ parts.e_signal))
    g1 = l0.T @ (w_e_signal - basis.project_perp(parts.e_signal))
    g2 = r0.T @ w_e_signal
    design = np.sqrt(match)[:, None] * v.T @ view.x_pre
    q_mat = design.T @ design / t0 + zeta * zeta * np.eye(latent.n_donors)
    evals, evecs = np.linalg.eigh((q_mat + q_mat.T) / 2.0)
    keep = evals > 1e-12 * max(evals[-1], 0.0)
    inv = np.where(keep, 1.0 / np.where(keep, evals, 1.0), 0.0)

    def dual_norm(g):
        coef = evecs.T @ g
        return float(np.sqrt(np.sum(inv * coef * coef)))

    a1 = dual_norm(g1) / t0
    a2 = dual_norm(g2) / t0
    e3 = v.T @ parts.e_remainder
    a3 = float(np.sqrt(np.sum(match * e3 * e3) / t0))
    c_mat = view.x_post - pi @ view.x_pre
    transfer = float(np.linalg.norm((c_mat @ evecs) * np.sqrt(inv), 2))
    return {
        "a1": a1,
        "a2": a2,
        "a3": a3,
        "q_max_inv_eig": float(np.max(inv)),
        "transfer": transfer,
        "envelope": transfer * (a1 + a2 + a3),
        "pseudo_inverse": bool(np.any(~keep)),
        "condition": float(evals[-1] * np.max(inv)),
    }


def reference_decompose(latent, q, rule_kind, zeta):
    """The grid sweep one point at a time: a cold ``hsc.fit``, one map and
    one channel report per rho."""
    view = latent.to_view()
    basis = spectral.spectral_basis(latent.t0, q)
    parts = decomp._oracle_parts(latent, basis, decomp.oracle_weights(latent, q, zeta))
    rows = []
    for rho in decomp.DEFAULT_RHO_GRID:
        cfg = hsc.HscConfig(rho=rho, q=q, rule_kind=rule_kind, zeta=zeta)
        fit = hsc.fit(view, cfg)
        (shrink,), (match,) = spectral.path_gains(basis, (rho,))
        pi, _ = reference_materialize_map(fit.forecaster, basis, shrink, latent.t_post)
        term_a, term_b, realized = reference_ab_terms(
            latent, fit, parts, basis, shrink, pi
        )
        row = reference_channel_report(latent, basis, match, zeta, parts, pi)
        row.update(
            weights=fit.weights,
            term_a=term_a,
            term_b=term_b,
            realized_error=realized,
            rmse=float(np.sqrt(np.mean(realized**2))),
        )
        rows.append(row)
    return {name: np.array([row[name] for row in rows]) for name in rows[0]}


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("rule", forecast.RULE_KINDS)
def test_stacked_decompose_matches_per_point_reference(q, rule):
    latent, _ = make_latent(seed=70 + q, t0=40, t_post=5)
    zeta = hsc.auto_zeta(latent.to_view().x_pre, latent.t_post)
    with warnings.catch_warnings(record=True) as stacked_warnings:
        warnings.simplefilter("always")
        report = decomp.decompose(latent, q=q, rule_kind=rule)
    with warnings.catch_warnings(record=True) as reference_warnings:
        warnings.simplefilter("always")
        expected = reference_decompose(latent, q, rule, zeta)
    assert report.zeta == zeta
    npt.assert_allclose(report.weights, expected.pop("weights"), rtol=0.0, atol=1e-9)
    npt.assert_array_equal(report.pseudo_inverse, expected.pop("pseudo_inverse"))
    for name, value in expected.items():
        npt.assert_allclose(
            getattr(report, name), value, rtol=0.0,
            atol=1e-10 * np.max(np.abs(value)), err_msg=name,
        )
    assert sorted(str(w.message) for w in stacked_warnings) == sorted(
        str(w.message) for w in reference_warnings
    )


# ---------------------------------------------------------------------------
# One-pass decomposition against its parts


def per_part_decompose(latent, q, rule_kind, zeta, rho_grid):
    """``decompose`` assembled from separate parts: the oracle from
    ``oracle_weights``, the grid from its own ``fit_path`` stack, the maps
    from separate applications to zeros and to the identity, each stack of
    paths forecast by its own application, and the curvature from
    ``design'design``."""
    grid = np.asarray(rho_grid, dtype=float)
    view = latent.to_view()
    t0, horizon = latent.t0, latent.t_post
    basis = spectral.spectral_basis(t0, q)
    v = basis.eigenvectors
    shrink, match = spectral.path_gains(basis, grid)
    parts = decomp._oracle_parts(latent, basis, decomp.oracle_weights(latent, q, zeta))
    solution, smooth = hsc.fit_path(
        view.y_pre, view.x_pre, basis, grid, zeta * zeta * t0
    )
    weights = solution.weights
    forecaster = forecast.fit_composed(rule_kind, basis, smooth, horizon)

    def own_forecasts(paths):
        return np.diagonal(forecaster.apply(paths, horizon), axis1=0, axis2=2).T

    offset = forecaster.apply(np.zeros(basis.n), horizon)[:, :, None]
    linear = forecaster.apply(np.eye(basis.n), horizon)
    pi = ((linear - offset) @ v * shrink[:, None, :]) @ v.T
    smoothed = v @ (shrink.T * (v.T @ parts.r_pre)[:, None])
    gap = (parts.weights - weights)[:, :, None]
    realized = view.y_post - (weights @ view.x_post.T + own_forecasts(smooth))
    design = np.sqrt(match)[:, :, None] * (v.T @ view.x_pre)
    gram = design.transpose(0, 2, 1) @ design
    return dict(
        weights=weights,
        oracle_weights=parts.weights,
        term_a=((view.x_post - pi @ view.x_pre) @ gap)[:, :, 0],
        term_b=parts.r_post - own_forecasts(smoothed),
        realized_error=realized,
        rmse=np.sqrt(np.mean(realized**2, axis=1)),
        **decomp._channel_bounds(latent, parts, basis, match, zeta, gram, pi),
    )


EXACT_FIELDS = (
    "weights", "oracle_weights", "a1", "a2", "a3", "q_max_inv_eig", "transfer",
    "envelope", "pseudo_inverse", "condition",
)
CLOSE_FIELDS = ("term_a", "term_b", "realized_error", "rmse")


@pytest.mark.parametrize(
    "seed, zeta, rho_grid",
    [(seed, "auto", None) for seed in range(1, 6)]
    + [(1, 0.0, None), (2, 0.3, [0.0, 0.45, 0.9]), (3, 0.3, (0.6,))],
)
@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("rule", forecast.RULE_KINDS)
def test_one_pass_decompose_matches_per_part_reference(seed, zeta, rho_grid, q, rule):
    latent, _ = make_latent(seed=seed, t0=40, t_post=5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # nonstationary fits
        report = decomp.decompose(
            latent, q=q, rule_kind=rule, zeta=zeta, rho_grid=rho_grid
        )
        expected = per_part_decompose(
            latent, q, rule, report.zeta,
            decomp.DEFAULT_RHO_GRID if rho_grid is None else rho_grid,
        )
    for name in EXACT_FIELDS:
        npt.assert_array_equal(getattr(report, name), expected[name], err_msg=name)
    for name in CLOSE_FIELDS:
        value = expected[name]
        npt.assert_allclose(
            getattr(report, name), value, rtol=0.0,
            atol=1e-13 * np.max(np.abs(value)), err_msg=name,
        )


@pytest.mark.parametrize("zeta", [-0.4, np.nan, np.inf, -np.inf, "auto"])
def test_single_fit_entries_reject_bad_zeta(zeta):
    latent, _ = make_latent(seed=90)
    with pytest.raises(ValueError, match="^zeta must be"):
        decomp.oracle_weights(latent, 1, zeta)
    if zeta != "auto":
        with pytest.raises(ValueError, match="^zeta must be"):
            decomp.decompose(latent, zeta=zeta)
