from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonic_sc import hsc, qp, spectral
from harmonic_sc.forecast import RULE_KINDS, ForecastError
from harmonic_sc.panel import PrePostView


def random_view(seed, t0=40, n_donors=6, t_post=5, noise=0.3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(t0 + t_post, n_donors)).cumsum(axis=0)
    w = rng.dirichlet(np.ones(n_donors))
    y = x @ w + rng.normal(scale=noise, size=t0 + t_post)
    return PrePostView(
        y_pre=y[:t0], x_pre=x[:t0], y_post=y[t0:], x_post=x[t0:]
    )


# -------------------------------------------------------------- auto zeta

def test_auto_zeta_fourth_root_scaling():
    # Differences (a, -a) with a = 1/sqrt(2) have sample sd exactly 1.
    a = 1.0 / np.sqrt(2.0)
    x = np.array([[0.0], [a], [0.0]])
    assert hsc.auto_zeta(x, 16) == pytest.approx(2.0, rel=1e-12)


def test_auto_zeta_matches_two_pass_oracle():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(12, 5))
    flat = np.diff(x, axis=0).ravel()
    mean = flat.sum() / flat.size
    sd = np.sqrt(np.sum((flat - mean) ** 2) / (flat.size - 1))
    assert hsc.auto_zeta(x, 7) == pytest.approx(7 ** 0.25 * sd, rel=1e-12)


def test_auto_zeta_constant_matrix_warns():
    with pytest.warns(RuntimeWarning, match="constant in time"):
        z = hsc.auto_zeta(np.ones((6, 3)), 4)
    assert z == 0.0


def test_auto_zeta_input_checks():
    with pytest.raises(ValueError, match="2 rows"):
        hsc.auto_zeta(np.ones((1, 3)), 4)
    with pytest.raises(ValueError, match="t_post"):
        hsc.auto_zeta(np.ones((5, 3)), 0)


# ----------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(ValueError, match="rho"):
        hsc.HscConfig(rho=1.5)
    with pytest.raises(ValueError, match="q must be"):
        hsc.HscConfig(rho=0.5, q=3)
    with pytest.raises(ValueError, match="forecast rule"):
        hsc.HscConfig(rho=0.5, rule_kind="prophet")
    with pytest.raises(ValueError, match="zeta"):
        hsc.HscConfig(rho=0.5, zeta="bogus")
    with pytest.raises(ValueError, match="zeta"):
        hsc.HscConfig(rho=0.5, zeta=-0.1)


def test_config_rejects_non_finite_zeta():
    for zeta in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="zeta must be finite"):
            hsc.HscConfig(rho=0.5, zeta=zeta)


# ------------------------------------------------- endpoint equivalences

def test_rho_one_matches_intercept_sc():
    view = random_view(1)
    zeta = 0.4
    fitted = hsc.fit(view, hsc.HscConfig(rho=1.0, q=1, zeta=zeta))
    # Independent route: profile out the intercept by demeaning everything.
    y_c = view.y_pre - view.y_pre.mean()
    x_c = view.x_pre - view.x_pre.mean(axis=0)
    ridge = zeta * zeta * view.t0
    expected = qp.solve(qp.build(y_c, x_c, ridge)).weights
    np.testing.assert_allclose(fitted.weights, expected, atol=1e-6)


def test_rho_zero_matches_difference_ridge_sc():
    view = random_view(2)
    zeta = 0.4
    fitted = hsc.fit(view, hsc.HscConfig(rho=0.0, q=1, zeta=zeta))
    dy = np.diff(view.y_pre)
    dx = np.diff(view.x_pre, axis=0)
    ridge = zeta * zeta * view.t0
    expected = qp.solve(qp.build(dy, dx, ridge)).weights
    np.testing.assert_allclose(fitted.weights, expected, atol=1e-6)


@pytest.mark.parametrize("rho", [0.0, 0.5, 1.0])
def test_constant_residual_is_invisible_to_every_rho(rho):
    # y = X w* + c*1: the shift lives in the null space, so every rho
    # recovers w* and routes the constant into the smooth component.
    rng = np.random.default_rng(3)
    t0, n = 40, 4
    x_all = rng.normal(size=(t0 + 3, n))
    w_star = np.array([0.5, 0.3, 0.2, 0.0])
    c = -2.5
    y_all = x_all @ w_star + c
    view = PrePostView(
        y_pre=y_all[:t0], x_pre=x_all[:t0], y_post=y_all[t0:], x_post=x_all[t0:]
    )
    fitted = hsc.fit(view, hsc.HscConfig(rho=rho, q=1, zeta=0.0))
    np.testing.assert_allclose(fitted.weights, w_star, atol=1e-5)
    np.testing.assert_allclose(fitted.e_pre, c, atol=1e-4)


# -------------------------------------------------------------- fit state

def test_fit_additive_identities():
    view = random_view(4)
    fitted = hsc.fit(view, hsc.HscConfig(rho=0.6, q=1))
    np.testing.assert_allclose(
        fitted.r_pre, view.y_pre - view.x_pre @ fitted.weights, atol=1e-12
    )
    # u_pre is defined as r_pre - e_pre, so the sum reconstructs r_pre to
    # within one rounding of each entry.
    np.testing.assert_allclose(
        fitted.e_pre + fitted.u_pre, fitted.r_pre, rtol=1e-14, atol=1e-14
    )
    np.testing.assert_array_equal(
        fitted.counterfactual, fitted.donor_component + fitted.forecast_component
    )
    np.testing.assert_allclose(
        fitted.donor_component, view.x_post @ fitted.weights, atol=1e-12
    )


def test_fit_smooth_component_is_smoothed_residual():
    view = random_view(5)
    cfg = hsc.HscConfig(rho=0.35, q=2)
    fitted = hsc.fit(view, cfg)
    basis = spectral.spectral_basis(view.t0, 2)
    metric = spectral.rho_metric(basis, 0.35)
    np.testing.assert_allclose(
        fitted.e_pre, spectral.smoother_apply(metric, fitted.r_pre), atol=1e-8
    )


@pytest.mark.parametrize("rho", [0.0, 0.2, 0.8, 1.0])
def test_null_component_always_routed_to_smooth_branch(rho):
    view = random_view(6)
    fitted = hsc.fit(view, hsc.HscConfig(rho=rho, q=1))
    basis = spectral.spectral_basis(view.t0, 1)
    metric = spectral.rho_metric(basis, rho)
    p0_r = basis.project_null(fitted.r_pre)
    # Invisible to the matching metric...
    assert np.sqrt(spectral.metric_quadform(metric, p0_r)) < 1e-8
    # ...and preserved verbatim inside the smooth component.
    np.testing.assert_allclose(basis.project_null(fitted.e_pre), p0_r, atol=1e-10)


def test_counterfactual_at_rho_one_is_sc_int_path():
    view = random_view(7)
    fitted = hsc.fit(
        view, hsc.HscConfig(rho=1.0, q=1, rule_kind="last_constant", zeta=0.3)
    )
    alpha = fitted.r_pre.mean()
    np.testing.assert_allclose(
        fitted.counterfactual, view.x_post @ fitted.weights + alpha, atol=1e-6
    )


def test_scale_equivariance():
    view = random_view(9)
    c = 3.5
    scaled = PrePostView(
        y_pre=c * view.y_pre, x_pre=c * view.x_pre,
        y_post=c * view.y_post, x_post=c * view.x_post,
    )
    base = hsc.fit(view, hsc.HscConfig(rho=0.7, q=1, zeta=0.2))
    big = hsc.fit(scaled, hsc.HscConfig(rho=0.7, q=1, zeta=0.2 * c))
    np.testing.assert_allclose(big.weights, base.weights, atol=1e-6)
    np.testing.assert_allclose(big.e_pre, c * base.e_pre, rtol=1e-5, atol=1e-8)
    np.testing.assert_allclose(
        big.counterfactual, c * base.counterfactual, rtol=1e-5, atol=1e-8
    )


def test_auto_zeta_used_when_requested():
    view = random_view(10)
    fitted = hsc.fit(view, hsc.HscConfig(rho=0.5, q=1, zeta="auto"))
    assert fitted.zeta == pytest.approx(hsc.auto_zeta(view.x_pre, view.t_post))


def test_forecaster_rule_respected():
    view = random_view(11, t0=50)
    fitted = hsc.fit(view, hsc.HscConfig(rho=0.5, q=1, rule_kind="ar", ar_order=2))
    assert fitted.forecaster.rule.kind == "ar"
    assert fitted.forecaster.rule.matrix.shape[1] == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(
    seed=st.integers(0, 2**32 - 1),
    q=st.sampled_from([1, 2]),
    rule_kind=st.sampled_from(RULE_KINDS),
    rho=st.floats(0.0, 1.0),
    a=st.floats(-50.0, 50.0),
    b=st.floats(-2.0, 2.0),
)
@settings(max_examples=40, deadline=None)
def test_treated_polynomial_shift_equivariance(seed, q, rule_kind, rho, a, b):
    # A polynomial of degree < q in the treated series lies in the penalty
    # null space: the weights ignore it and the forecast carries it forward.
    view = random_view(seed, t0=30, n_donors=5, t_post=4)
    t = np.arange(34, dtype=float)
    poly = a + (b if q == 2 else 0.0) * t
    shifted = PrePostView(
        y_pre=view.y_pre + poly[:30], x_pre=view.x_pre,
        y_post=view.y_post + poly[30:], x_post=view.x_post,
    )
    cfg = hsc.HscConfig(rho=rho, q=q, rule_kind=rule_kind)
    base, moved = hsc.fit(view, cfg), hsc.fit(shifted, cfg)
    np.testing.assert_allclose(moved.weights, base.weights, rtol=0.0, atol=1e-9)
    scale = 1.0 + np.max(np.abs(base.counterfactual)) + np.max(np.abs(poly))
    np.testing.assert_allclose(
        moved.counterfactual - base.counterfactual, poly[30:],
        rtol=0.0, atol=1e-9 * scale,
    )


# ----------------------------------------------------------------- errors

def test_fit_rejects_short_pre_period():
    view = PrePostView(
        y_pre=np.zeros(3), x_pre=np.zeros((3, 3)),
        y_post=np.zeros(2), x_post=np.zeros((2, 3)),
    )
    with pytest.raises(ValueError, match="q\\+2"):
        hsc.fit(view, hsc.HscConfig(rho=0.5, q=2, zeta=0.1))


def test_forecaster_minimums_propagate():
    view = random_view(12, t0=6, t_post=4)
    with pytest.raises(ForecastError, match="hamilton"):
        hsc.fit(view, hsc.HscConfig(rho=0.5, q=1, rule_kind="hamilton", zeta=0.1))


def test_mismatched_view_shapes():
    view = PrePostView(
        y_pre=np.zeros(10), x_pre=np.zeros((9, 3)),
        y_post=np.zeros(2), x_post=np.zeros((2, 3)),
    )
    with pytest.raises(ValueError, match="pre-period length"):
        hsc.fit(view, hsc.HscConfig(rho=0.5, zeta=0.1))


# --------------------------------------------------------- endpoint check

@dataclass(frozen=True)
class EndpointReport:
    """Weight drift between the exact endpoints and their nearby interior fits."""

    rhos: tuple
    weights: np.ndarray  # one row per rho, same order as ``rhos``
    drift_at_zero: float
    drift_at_one: float

    @property
    def passed(self) -> bool:
        return self.drift_at_zero < 1e-3 and self.drift_at_one < 1e-3


def endpoint_check(view: PrePostView, q: int, zeta: float) -> EndpointReport:
    """Fit at rho in {0, 1e-6, 1-1e-6, 1} and report the weight drift.

    The endpoint branches use dedicated formulas; this confirms they agree
    with the interior path instead of drifting away from it.
    """
    rhos = (0.0, 1e-6, 1.0 - 1e-6, 1.0)
    weights = []
    for rho in rhos:
        cfg = hsc.HscConfig(rho=rho, q=q, rule_kind="last_constant", zeta=zeta)
        weights.append(hsc.fit(view, cfg).weights)
    stacked = np.stack(weights)
    return EndpointReport(
        rhos=rhos,
        weights=stacked,
        drift_at_zero=float(np.max(np.abs(stacked[0] - stacked[1]))),
        drift_at_one=float(np.max(np.abs(stacked[3] - stacked[2]))),
    )


def test_endpoint_check_reports_small_drift():
    view = random_view(13)
    report = endpoint_check(view, q=1, zeta=0.3)
    assert report.rhos == (0.0, 1e-6, 1.0 - 1e-6, 1.0)
    assert report.weights.shape == (4, view.n_donors)
    assert report.drift_at_zero < 1e-3
    assert report.drift_at_one < 1e-3
    assert report.passed
