import warnings

import numpy as np
import pytest

from harmonic_sc import forecast
from harmonic_sc.spectral import spectral_basis


# ------------------------------------------------------- null continuation

def test_null_continuation_constant():
    np.testing.assert_array_equal(
        forecast.null_continuation(np.array([5.0, 5.0, 5.0]), 1, 2), [5.0, 5.0]
    )


def test_null_continuation_line():
    np.testing.assert_allclose(
        forecast.null_continuation(np.array([1.0, 2.0, 3.0]), 2, 2), [4.0, 5.0]
    )


def test_null_continuation_constant_under_q2():
    # Constants sit inside the order-2 null space too.
    np.testing.assert_allclose(
        forecast.null_continuation(np.array([7.0, 7.0, 7.0]), 2, 2), [7.0, 7.0]
    )


def test_null_continuation_rejects_non_null_input():
    with pytest.raises(forecast.ForecastError, match="null space"):
        forecast.null_continuation(np.array([1.0, 2.0, 2.5]), 1, 2)
    with pytest.raises(forecast.ForecastError, match="null space"):
        forecast.null_continuation(np.array([1.0, 2.0, 4.0, 8.0]), 2, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_null_continuation_rejects_non_finite_input(bad):
    for q, path in ((1, np.array([1.0, bad, 1.0])), (2, np.array([[1.0], [2.0], [bad]]))):
        with pytest.raises(forecast.ForecastError, match="finite"):
            forecast.null_continuation(path, q, 2)


def test_null_continuation_negative_slope():
    np.testing.assert_allclose(
        forecast.null_continuation(np.array([9.0, 7.0, 5.0]), 2, 3), [3.0, 1.0, -1.0]
    )


# ---------------------------------------------------------------- fitting

def fit_and_forecast(rule_kind, residual_component, horizon):
    """Fit a rule on the remainder series and forecast in one shot."""
    rule = forecast.fit_rule(rule_kind, residual_component, horizon)
    return forecast.apply_rule(rule, residual_component, horizon)


def test_last_constant_repeats_final_value():
    z = np.array([0.4, -1.0, 2.5])
    np.testing.assert_array_equal(
        fit_and_forecast("last_constant", z, 3), [2.5, 2.5, 2.5]
    )


def make_arima_series(phi, n, dz_last=1.0, z_last=0.0):
    """Series whose differences follow dz_t = phi * dz_{t-1} exactly."""
    dz = dz_last / phi ** np.arange(n - 2, -1, -1)
    z = np.concatenate([[0.0], np.cumsum(dz)])
    return z - z[-1] + z_last


def test_arima110_exact_recursion():
    z = make_arima_series(0.5, 8)
    assert z[-1] == pytest.approx(0.0)
    assert z[-1] - z[-2] == pytest.approx(1.0)
    out = fit_and_forecast("arima110", z, 3)
    # Hand recursion: z_{T+h} = z_{T+h-1} + phi^h * dz_T with phi = 0.5.
    np.testing.assert_allclose(out, [0.5, 0.75, 0.875], atol=1e-10)


def test_arima110_recovers_difference_coefficient():
    z = make_arima_series(-0.3, 12)
    rule = forecast.fit_rule("arima110", z, 1)
    # The one-step forecast is z[-1] + phi (z[-1] - z[-2]).
    assert -rule.matrix[0, 0] == pytest.approx(-0.3, abs=1e-9)


def test_arima110_flat_differences_degenerate_to_constant():
    z = np.array([5.0, 5.0, 5.0, 7.0])
    out = fit_and_forecast("arima110", z, 4)
    np.testing.assert_array_equal(out, [7.0, 7.0, 7.0, 7.0])


def test_arima110_warns_on_explosive_coefficient():
    z = np.concatenate([[0.0], np.cumsum(2.0 ** np.arange(8))])
    with pytest.warns(RuntimeWarning, match="nonstationary"):
        forecast.fit_rule("arima110", z, 1)


def test_ar_constant_series_recovers_fixed_point():
    z = np.full(12, 3.7)
    out = fit_and_forecast("ar", z, 4)
    np.testing.assert_allclose(out, 3.7, atol=1e-8)


def test_ar_exact_recursion_continued():
    z = np.empty(30)
    z[0] = 1.0
    for t in range(1, 30):
        z[t] = 0.3 + 0.6 * z[t - 1]
    expected = []
    cur = z[-1]
    for _ in range(4):
        cur = 0.3 + 0.6 * cur
        expected.append(cur)
    # An AR(1) path makes the order-4 design collinear, and the fit must
    # still continue it exactly.
    out = fit_and_forecast("ar", z, 4)
    np.testing.assert_allclose(out, expected, atol=1e-6)


def test_ar_warns_on_nonstationary_fit():
    # Every fit of z_t = 2 z_{t-1} has the root 2.
    z = 2.0 ** np.arange(12)
    with pytest.warns(RuntimeWarning, match=r"ar\(4\) fit is nonstationary"):
        forecast.fit_rule("ar", z, 1)


def test_hamilton_exact_on_linear_series():
    z = 2.0 * np.arange(20, dtype=float)
    out = fit_and_forecast("hamilton", z, 3)
    np.testing.assert_allclose(out, [40.0, 42.0, 44.0], atol=1e-8)


def test_hamilton_one_step_equals_ar4():
    # At horizon 1 the direct regression on four lags is the ar(4) fit.
    rng = np.random.default_rng(17)
    z = rng.normal(size=40).cumsum()
    ham = fit_and_forecast("hamilton", z, 1)
    ar4 = fit_and_forecast("ar", z, 1)
    assert ham[0] == pytest.approx(ar4[0], abs=1e-8)


def test_hamilton_each_horizon_has_own_regression():
    rng = np.random.default_rng(23)
    z = rng.normal(size=30)
    rule = forecast.fit_rule("hamilton", z, 3)
    assert rule.matrix.shape == (3, forecast.HAMILTON_LAGS)
    coefs = {tuple(np.round(c, 12)) for c in np.column_stack([rule.matrix, rule.offset])}
    assert len(coefs) == 3  # distinct fits, not one shared regression


# ------------------------------------------------------------- error paths

def test_short_series_errors():
    with pytest.raises(forecast.ForecastError, match="at least 6"):
        forecast.fit_rule("ar", np.zeros(5), 1)
    with pytest.raises(forecast.ForecastError, match="at least 3"):
        forecast.fit_rule("arima110", np.zeros(2), 1)
    with pytest.raises(forecast.ForecastError, match="at least 7"):
        forecast.fit_rule("hamilton", np.zeros(6), 2)


def test_unknown_rule_token():
    with pytest.raises(forecast.ForecastError, match="unknown forecast rule"):
        fit_and_forecast("ets", np.zeros(10), 1)


def test_hamilton_horizon_overrun():
    # Every rule is frozen for the horizon it was fitted for, not only the
    # direct-regression one.
    z = np.random.default_rng(2).normal(size=20)
    for rule_kind in forecast.RULE_KINDS:
        rule = forecast.fit_rule(rule_kind, z, 2)
        with pytest.raises(forecast.ForecastError, match="horizons 1..2"):
            forecast.apply_rule(rule, z, 3)


def test_bad_horizon():
    with pytest.raises(forecast.ForecastError, match="horizon"):
        fit_and_forecast("last_constant", np.zeros(5), 0)


# ------------------------------------------------------------- composition

def test_composed_constant_q1_holds_last_value():
    rng = np.random.default_rng(3)
    r = rng.normal(size=25)
    basis = spectral_basis(25, 1)
    out = forecast.compose("last_constant", basis, r, 4)
    np.testing.assert_allclose(out, r[-1], atol=1e-10)


def test_composed_constant_q2_adds_fitted_slope():
    rng = np.random.default_rng(4)
    r = rng.normal(size=30)
    basis = spectral_basis(30, 2)
    out = forecast.compose("last_constant", basis, r, 5)
    slope = np.polyfit(np.arange(30.0), r, 1)[0]  # independent slope estimate
    np.testing.assert_allclose(out, r[-1] + slope * np.arange(1, 6), atol=1e-8)


@pytest.mark.parametrize("rule_kind", forecast.RULE_KINDS)
def test_pure_trend_continued_exactly_by_all_rules(rule_kind):
    t = np.arange(30, dtype=float)
    r = 1.5 - 0.25 * t
    basis = spectral_basis(30, 2)
    out = forecast.compose(rule_kind, basis, r, 3)
    expected = 1.5 - 0.25 * np.arange(30.0, 33.0)
    np.testing.assert_allclose(out, expected, atol=1e-8)


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("rule_kind", forecast.RULE_KINDS)
def test_admissibility_on_random_polynomials(q, rule_kind):
    rng = np.random.default_rng(100 * q)
    basis = spectral_basis(30, q)
    t = np.arange(30, dtype=float)
    t_post = np.arange(30.0, 34.0)
    worst = 0.0
    for _ in range(100):
        coefs = rng.normal(size=q)  # degree < q
        path = np.polyval(coefs, t)
        out = forecast.compose(rule_kind, basis, path, 4)
        worst = max(worst, np.max(np.abs(out - np.polyval(coefs, t_post))))
    assert worst < 1e-8


@pytest.mark.parametrize("rule_kind", forecast.RULE_KINDS)
def test_null_shift_equivariance(rule_kind):
    # Adding a null-space path shifts the forecast by that path's own
    # continuation and nothing else.
    rng = np.random.default_rng(9)
    r = rng.normal(size=28)
    t = np.arange(28, dtype=float)
    v = 2.0 + 0.4 * t
    basis = spectral_basis(28, 2)
    base = forecast.compose(rule_kind, basis, r, 3)
    shifted = forecast.compose(rule_kind, basis, r + v, 3)
    np.testing.assert_allclose(
        shifted - base, forecast.null_continuation(v, 2, 3), atol=1e-8
    )


def test_composed_last_constant_is_linear_map():
    rng = np.random.default_rng(13)
    basis = spectral_basis(20, 1)
    rule = forecast.fit_rule("last_constant", np.zeros(20), 3)
    op = forecast.ComposedForecaster(rule=rule, basis=basis)
    r1, r2 = rng.normal(size=20), rng.normal(size=20)
    lhs = op.apply(2.0 * r1 - 0.5 * r2, 3)
    rhs = 2.0 * op.apply(r1, 3) - 0.5 * op.apply(r2, 3)
    np.testing.assert_allclose(lhs, rhs, atol=1e-7)


@pytest.mark.parametrize("rule_kind", ["arima110", "ar", "hamilton"])
def test_fitted_rules_apply_affinely(rule_kind):
    rng = np.random.default_rng(29)
    z_fit = rng.normal(size=25).cumsum()
    rule = forecast.fit_rule(rule_kind, z_fit, 3)
    z1, z2 = rng.normal(size=25), rng.normal(size=25)
    zero = np.zeros(25)
    lhs = forecast.apply_rule(rule, z1 + z2, 3)
    rhs = (
        forecast.apply_rule(rule, z1, 3)
        + forecast.apply_rule(rule, z2, 3)
        - forecast.apply_rule(rule, zero, 3)
    )
    np.testing.assert_allclose(lhs, rhs, atol=1e-7)


# ------------------------------------------------- reference recursions

def lagged(z, lags, rows):
    """Design of ``rows`` regressions: a constant, then ``lags`` values of
    ``z``, most recent first, the last row's ending at ``z[-1]``."""
    n = z.size
    return np.column_stack(
        [np.ones(rows)] + [z[n - rows - lag : n - lag] for lag in range(lags)]
    )


def reference_coefficients(kind, z_fit, horizon):
    """Each rule's coefficients, fitted by one ``np.linalg.lstsq`` per
    regression: ``phi`` for arima110, ``(c, a_1, ..., a_p)`` for ar, and
    one ``(b_0, b_1, ..., b_lags)`` per horizon for hamilton."""
    n = z_fit.size
    if kind == "arima110":
        dz = np.diff(z_fit)
        return np.linalg.lstsq(dz[:-1, None], dz[1:], rcond=None)[0][0]
    if kind == "ar":
        p = forecast.AR_ORDER
        return np.linalg.lstsq(lagged(z_fit[:-1], p, n - p), z_fit[p:], rcond=None)[0]
    lags, fits = forecast.HAMILTON_LAGS, []
    for h in range(1, horizon + 1):
        design = lagged(z_fit[:-h], lags, n - h - lags + 1)
        fits.append(np.linalg.lstsq(design, z_fit[lags - 1 + h :], rcond=None)[0])
    return fits


def reference_apply_rule(kind, coef, z, horizon):
    """The per-kind recursions that ``apply_rule``'s operator replaced."""
    n = z.size
    if kind == "last_constant":
        return np.full(horizon, z[-1])
    if kind == "arima110":
        phi = coef
        level = z[-1]
        step = z[-1] - z[-2]
        out = np.empty(horizon)
        for h in range(horizon):
            step *= phi
            level += step
            out[h] = level
        return out
    if kind == "ar":
        history = list(z[n - (coef.size - 1) :])
        out = np.empty(horizon)
        for h in range(horizon):
            nxt = coef[0] + float(coef[1:] @ np.asarray(history[::-1]))
            out[h] = nxt
            history.append(nxt)
            history.pop(0)
        return out
    predictors = lagged(z, forecast.HAMILTON_LAGS, 1)[0]
    return np.array([float(coef[h] @ predictors) for h in range(horizon)])


def reference_compose_apply(kind, coef, basis, r, horizon):
    """Null-route continuation plus the reference rule, one path at a time."""
    null_part = basis.project_null(r)
    slope = null_part[-1] - null_part[-2] if basis.q == 2 else 0.0
    h = np.arange(1, horizon + 1, dtype=float)
    return null_part[-1] + h * slope + reference_apply_rule(
        kind, coef, r - null_part, horizon
    )


@pytest.mark.parametrize("horizon", [1, 4, 12])
@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("rule_kind", forecast.RULE_KINDS)
def test_operator_matches_reference_recursions(rule_kind, q, horizon):
    rng = np.random.default_rng(41)
    n = 40
    basis = spectral_basis(n, q)
    # A stationary AR(2) remainder keeps every fit away from a unit root.
    z_fit = np.zeros(n)
    for t in range(2, n):
        z_fit[t] = 0.5 * z_fit[t - 1] - 0.3 * z_fit[t - 2] + rng.normal()
    rule = forecast.fit_rule(rule_kind, basis.project_perp(z_fit), horizon)
    op = forecast.ComposedForecaster(rule=rule, basis=basis)
    coef = reference_coefficients(rule_kind, basis.project_perp(z_fit), horizon)
    paths = rng.normal(size=(n, 3)).cumsum(axis=0) + 0.2 * np.arange(n)[:, None]

    def check(actual, expected):
        tol = 1e-12 * np.max(np.abs(expected))
        np.testing.assert_allclose(actual, expected, rtol=0.0, atol=tol)

    rule_stack = forecast.apply_rule(rule, paths, horizon)
    op_stack = op.apply(paths, horizon)
    assert rule_stack.shape == op_stack.shape == (horizon, 3)
    for j in range(3):
        expected = reference_apply_rule(rule_kind, coef, paths[:, j], horizon)
        check(forecast.apply_rule(rule, paths[:, j], horizon), expected)
        check(rule_stack[:, j], expected)
        expected = reference_compose_apply(rule_kind, coef, basis, paths[:, j], horizon)
        check(op.apply(paths[:, j], horizon), expected)
        check(op_stack[:, j], expected)


def test_composed_forecaster_length_check():
    basis = spectral_basis(10, 1)
    rule = forecast.fit_rule("last_constant", np.zeros(10), 2)
    op = forecast.ComposedForecaster(rule=rule, basis=basis)
    with pytest.raises(forecast.ForecastError, match="does not match"):
        op.apply(np.zeros(11), 2)


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("rule_kind", forecast.RULE_KINDS)
def test_stacked_compose_matches_single_paths(rule_kind, q):
    # Each column of a stack gets the rule it would get alone: random walks,
    # a null-space path with rounding-level noise (its remainder is dust
    # and is fitted as zero) and an explosive path (nonstationary ar and
    # arima110 fits, one warning per column either way).
    rng = np.random.default_rng(7)
    n = 30
    basis = spectral_basis(n, q)
    t = np.arange(n, dtype=float)
    columns = [rng.normal(size=n).cumsum() for _ in range(4)]
    columns.append(3.0 - 0.5 * (q - 1) * t + 1e-14 * rng.normal(size=n))
    columns.append(1.15**t)
    stack = np.column_stack(columns)
    with warnings.catch_warnings(record=True) as stacked_warnings:
        warnings.simplefilter("always")
        out = forecast.compose(rule_kind, basis, stack, 4)
    with warnings.catch_warnings(record=True) as single_warnings:
        warnings.simplefilter("always")
        singles = [forecast.compose(rule_kind, basis, col, 4) for col in columns]
    assert out.shape == (4, len(columns))
    for j, single in enumerate(singles):
        # The stack's products may round differently from one column's.
        tol = 1e-13 * np.abs(columns[j]).max()
        np.testing.assert_allclose(out[:, j], single, rtol=0.0, atol=tol)
    messages = sorted(str(w.message) for w in stacked_warnings)
    assert messages == sorted(str(w.message) for w in single_warnings)
    if rule_kind in ("arima110", "ar"):
        assert messages  # the explosive column warns


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("rule_kind", forecast.RULE_KINDS)
def test_stacked_forecaster_applies_every_rule_to_every_path(rule_kind, q):
    # A forecaster fitted on m columns holds the m single-column rules and
    # forecasts k paths with each of them: shape (m, h, k).
    rng = np.random.default_rng(17)
    n, k = 30, 3
    basis = spectral_basis(n, q)
    t = np.arange(n, dtype=float)
    columns = [rng.normal(size=n).cumsum() for _ in range(3)]
    columns.append(3.0 - 0.5 * (q - 1) * t + 1e-14 * rng.normal(size=n))
    columns.append(1.15**t)
    paths = rng.normal(size=(n, k)).cumsum(axis=0)
    with warnings.catch_warnings(record=True) as stacked_warnings:
        warnings.simplefilter("always")
        stacked = forecast.fit_composed(rule_kind, basis, np.column_stack(columns), 4)
    with warnings.catch_warnings(record=True) as single_warnings:
        warnings.simplefilter("always")
        singles = [forecast.fit_composed(rule_kind, basis, c, 4) for c in columns]
    out = stacked.apply(paths, 4)
    assert out.shape == (len(columns), 4, k)
    assert stacked.apply(paths[:, 0], 4).shape == (len(columns), 4)
    for j, single in enumerate(singles):
        assert stacked.rule.matrix[j].shape == single.rule.matrix.shape
        assert stacked.rule.offset[j].shape == single.rule.offset.shape
        expected = single.apply(paths, 4)
        tol = 1e-12 * (np.abs(expected).max() + np.abs(columns[j]).max())
        np.testing.assert_allclose(out[j], expected, rtol=0.0, atol=tol)
    messages = sorted(str(w.message) for w in stacked_warnings)
    assert messages == sorted(str(w.message) for w in single_warnings)
    if rule_kind in ("arima110", "ar"):
        assert messages  # the explosive column warns


def test_stacked_compose_keeps_the_single_path_checks():
    basis = spectral_basis(10, 1)
    with pytest.raises(forecast.ForecastError, match="does not match"):
        forecast.compose("last_constant", basis, np.zeros((11, 3)), 2)
    with pytest.raises(forecast.ForecastError, match="needs at least 11 observations"):
        forecast.compose("hamilton", basis, np.ones((10, 3)), 6)


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("rule_kind", forecast.RULE_KINDS)
def test_compose_is_the_fitted_forecasters_diagonal(rule_kind, q):
    # compose applies each column's rule to that column alone; the
    # forecaster fitted on the stack, applied to every column with every
    # rule, has those forecasts on its diagonal.
    rng = np.random.default_rng(29)
    n = 30
    basis = spectral_basis(n, q)
    t = np.arange(n, dtype=float)
    stack = np.column_stack(
        [rng.normal(size=n).cumsum() for _ in range(4)]
        + [3.0 - 0.5 * (q - 1) * t + 1e-14 * rng.normal(size=n), 1.15**t]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the explosive column
        for r_pre in (stack[:, 0], stack):
            out = forecast.compose(rule_kind, basis, r_pre, 4)
            applied = forecast.fit_composed(rule_kind, basis, r_pre, 4).apply(r_pre, 4)
            expected = applied if r_pre.ndim == 1 else np.diagonal(applied, axis1=0, axis2=2)
            assert out.shape == expected.shape
            if rule_kind == "last_constant":
                np.testing.assert_array_equal(out, expected)
            else:
                # The tail terms are of the size of the path, not of its
                # forecast.
                scale = np.abs(r_pre).max(axis=0)
                assert np.all(np.abs(out - expected) <= 1e-15 * scale)
