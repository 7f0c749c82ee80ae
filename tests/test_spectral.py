import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonic_sc import spectral

# Grid used by the error-decomposition studies; PSD must hold on all of it.
RHO_GRID = [0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8,
            0.85, 0.9, 0.93, 0.95, 0.97, 0.98, 0.99, 0.995, 1.0]


# ---------------------------------------------------------------- operators

def test_difference_operator_first_order_n3():
    d = spectral.difference_operator(3, 1)
    np.testing.assert_array_equal(d, [[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0]])


def test_difference_operator_second_order_n3():
    d = spectral.difference_operator(3, 2)
    np.testing.assert_array_equal(d, [[1.0, -2.0, 1.0]])


def test_difference_operator_second_order_n4():
    d = spectral.difference_operator(4, 2)
    np.testing.assert_array_equal(
        d, [[1.0, -2.0, 1.0, 0.0], [0.0, 1.0, -2.0, 1.0]]
    )


@given(st.floats(-1e6, 1e6, allow_nan=False))
def test_difference_operator_kills_constants(c):
    d = spectral.difference_operator(7, 1)
    np.testing.assert_allclose(d @ np.full(7, c), 0.0, atol=1e-9)


def test_difference_operator_q2_kills_linear_trend():
    t = np.arange(9, dtype=float)
    d = spectral.difference_operator(9, 2)
    np.testing.assert_allclose(d @ (3.0 - 0.5 * t), 0.0, atol=1e-12)


def test_difference_operator_too_small():
    with pytest.raises(ValueError, match="n >= 3"):
        spectral.difference_operator(2, 2)


def test_difference_operator_bad_order():
    with pytest.raises(ValueError, match="q must be 1 or 2"):
        spectral.difference_operator(10, 3)


def test_penalty_matrix_n3_q1_hand_product():
    k = spectral.penalty_matrix(3, 1)
    np.testing.assert_array_equal(
        k, [[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]]
    )


def test_penalty_matrix_symmetric_psd_null():
    for q in (1, 2):
        k = spectral.penalty_matrix(12, q)
        np.testing.assert_array_equal(k, k.T)
        assert np.linalg.eigvalsh(k).min() > -1e-10
        assert np.linalg.matrix_rank(k) == 12 - q


def test_penalty_matrix_q2_kills_trend():
    k = spectral.penalty_matrix(10, 2)
    np.testing.assert_allclose(k @ np.arange(1.0, 11.0), 0.0, atol=1e-12)


# ----------------------------------------------------------- eigensolver

def test_eigendecompose_n3_q1_closed_form():
    basis = spectral.spectral_basis(3, 1)
    np.testing.assert_allclose(basis.eigenvalues, [0.0, 1.0, 3.0], atol=1e-12)


@pytest.mark.parametrize("n", [10, 80, 200])
def test_q1_eigenvalues_closed_form(n):
    basis = spectral.spectral_basis(n, 1)
    j = np.arange(1, n + 1)
    expected = 4.0 * np.sin((j - 1) * np.pi / (2 * n)) ** 2
    np.testing.assert_allclose(basis.eigenvalues, expected, atol=1e-8)


def test_q1_spectrum_bounded_by_four():
    assert spectral.spectral_basis(80, 1).eigenvalues.max() < 4.0


def test_eigendecompose_matches_lapack_q2():
    # Independent cross-check: LAPACK on the same penalty matrix.
    k = spectral.penalty_matrix(40, 2)
    basis = spectral.eigendecompose(k, 2)
    ref = np.linalg.eigvalsh(k)
    np.testing.assert_allclose(basis.eigenvalues[2:], ref[2:], rtol=0, atol=1e-10)
    np.testing.assert_array_equal(basis.eigenvalues[:2], 0.0)


def test_eigendecompose_reconstruction_and_pairs():
    k = spectral.penalty_matrix(40, 2)
    b = spectral.eigendecompose(k, 2)
    recon = b.eigenvectors @ (b.eigenvalues[:, None] * b.eigenvectors.T)
    assert np.max(np.abs(recon - k)) < 1e-8
    assert np.max(np.abs(k @ b.eigenvectors - b.eigenvectors * b.eigenvalues)) < 1e-8


def test_eigendecompose_orthonormal_columns():
    b = spectral.spectral_basis(50, 2)
    gram = b.eigenvectors.T @ b.eigenvectors
    assert np.max(np.abs(gram - np.eye(50))) < 1e-10


def test_eigendecompose_detects_wrong_null_dimension():
    # A q=1 penalty has a one-dimensional null space; asking for q=2 must
    # trip the separation check rather than silently mislabel the spectrum.
    k = spectral.penalty_matrix(15, 1)
    with pytest.raises(spectral.EigenSolverError, match="separation"):
        spectral.eigendecompose(k, 2)


def test_eigendecompose_wraps_lapack_failure(monkeypatch):
    def failing_eigh(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    with pytest.raises(spectral.EigenSolverError, match="eigh failed") as info:
        spectral.eigendecompose(spectral.penalty_matrix(10, 1), 1)
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


_BASIS_BYTES_SCRIPT = """
import hashlib
import numpy as np
from harmonic_sc import decomp, mc, spectral, tuning
digest = hashlib.sha256()
for n in (80, 200):
    for q in (1, 2):
        basis = spectral.spectral_basis(n, q)
        digest.update(basis.eigenvalues.tobytes())
        digest.update(basis.eigenvectors.tobytes())
# Warm-started cross-validation on a 30-donor panel: every QP solve and
# polish factorization along the rho grid enters the hash.
rng = np.random.default_rng(5)
x = np.cumsum(rng.normal(size=(60, 30)), axis=0)
y = x @ rng.dirichlet(np.ones(30)) + 0.5 * rng.normal(size=60)
plan = tuning.CvPlan(h=2, folds=5, candidates=((1, "last_constant"), (2, "ar")))
digest.update(tuning.cross_validate(y, x, plan).per_fold_errors.tobytes())
# q=2 error decompositions: the stacked forecast map of every grid point
# enters the hash through the weight-gap term and the transfer norm.
for t0 in (80, 200):
    _, latent = mc.simulate_simple(mc.SimpleDgpConfig(kappa=2.0, master_seed=3, t0=t0), 1)
    report = decomp.decompose(latent, q=2, rule_kind="ar")
    for value in vars(report).values():
        digest.update(np.asarray(value).tobytes())
print(digest.hexdigest())
"""


def test_basis_bytes_do_not_depend_on_blas_threads():
    src = str(Path(spectral.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        run = subprocess.run(
            [sys.executable, "-c", _BASIS_BYTES_SCRIPT],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        digests.append(run.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


def test_basis_cache_returns_shared_object():
    assert spectral.spectral_basis(30, 1) is spectral.spectral_basis(30, 1)


def test_null_projectors_complementary():
    b = spectral.spectral_basis(25, 2)
    rng = np.random.default_rng(7)
    r = rng.normal(size=25)
    p0 = b.project_null(r)
    pp = b.project_perp(r)
    np.testing.assert_allclose(p0 + pp, r, atol=1e-12)
    assert abs(p0 @ pp) < 1e-9
    # One more application changes nothing (idempotent).
    np.testing.assert_allclose(b.project_null(p0), p0, atol=1e-12)

    # At n=200 the smallest nonzero q=2 eigenvalue is 3e-7; linear trends
    # must still pass through P0 untouched.
    b = spectral.spectral_basis(200, 2)
    trend = 3.0 - 1.7 * np.arange(200, dtype=float)
    np.testing.assert_allclose(b.project_null(trend), trend, rtol=0, atol=1e-10)
    np.testing.assert_allclose(b.project_perp(trend), 0.0, rtol=0, atol=1e-10)


# ----------------------------------------------------------------- gains

def test_gains_fixed_point_at_mu_one():
    for rho in RHO_GRID:
        _, w = spectral.gains(1.0, rho)
        assert w == pytest.approx(1.0, abs=1e-15)


def test_gains_null_space_untouched():
    s, w = spectral.gains(0.0, 0.5)
    assert (s, w) == (1.0, 0.0)


def test_gains_harmonic_mean_example():
    s, w = spectral.gains(3.0, 0.25)
    assert w == pytest.approx(2.0, abs=1e-15)
    assert s == pytest.approx(0.5, abs=1e-15)


def test_gains_endpoint_conventions():
    mu = np.array([0.0, 0.5, 2.0])
    s0, w0 = spectral.gains(mu, 0.0)
    np.testing.assert_array_equal(s0, 1.0)
    np.testing.assert_array_equal(w0, mu)
    s1, w1 = spectral.gains(mu, 1.0)
    np.testing.assert_array_equal(s1, [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(w1, [0.0, 1.0, 1.0])


@given(
    st.floats(1e-4, 50.0, allow_nan=False),
    st.floats(1e-3, 1.0, exclude_max=True, allow_nan=False),
)
def test_gains_harmonic_identity(mu, rho):
    _, w = spectral.gains(mu, rho)
    lhs = 1.0 / w
    rhs = (1.0 - rho) / mu + rho
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_gains_monotone_in_mu():
    mu = np.linspace(0.0, 4.0, 50)
    for rho in (0.3, 0.7):
        s, w = spectral.gains(mu, rho)
        assert np.all(np.diff(s) < 0)
        assert np.all(np.diff(w) > 0)


def test_gains_rejects_rho_outside_unit_interval():
    with pytest.raises(ValueError, match="rho"):
        spectral.gains(1.0, 1.5)
    with pytest.raises(ValueError, match="rho"):
        spectral.gains(1.0, -0.1)


def test_gains_scalar_matches_vector():
    mu = np.array([0.0, 0.3, 1.7])
    s_vec, w_vec = spectral.gains(mu, 0.42)
    for i, m in enumerate(mu):
        s, w = spectral.gains(float(m), 0.42)
        assert (s, w) == (s_vec[i], w_vec[i])


# ------------------------------------------------------------ rho metric

def test_rho_metric_elementwise_formulas():
    basis = spectral.spectral_basis(20, 1)
    mu = basis.eigenvalues
    m = spectral.rho_metric(basis, 0.37)
    np.testing.assert_allclose(m.shrink_gains, 0.63 / (0.63 + 0.37 * mu), atol=1e-14)
    np.testing.assert_allclose(m.match_gains, mu / (0.63 + 0.37 * mu), atol=1e-14)

    m0 = spectral.rho_metric(basis, 0.0)
    np.testing.assert_array_equal(m0.shrink_gains, 1.0)
    np.testing.assert_array_equal(m0.match_gains, mu)

    m1 = spectral.rho_metric(basis, 1.0)
    np.testing.assert_array_equal(m1.shrink_gains, (mu == 0).astype(float))
    np.testing.assert_array_equal(m1.match_gains, (mu > 0).astype(float))


def test_smoother_fixes_null_space():
    t = np.arange(12, dtype=float)
    cases = {1: [np.ones(12)], 2: [np.ones(12), 2.0 + 0.3 * t]}
    for q, vectors in cases.items():
        basis = spectral.spectral_basis(12, q)
        for rho in (0.0, 0.4, 0.9, 1.0):
            m = spectral.rho_metric(basis, rho)
            for v in vectors:
                np.testing.assert_allclose(
                    spectral.smoother_apply(m, v), v, atol=1e-10
                )


def test_smoother_endpoints():
    rng = np.random.default_rng(11)
    r = rng.normal(size=30)
    basis = spectral.spectral_basis(30, 1)
    np.testing.assert_allclose(
        spectral.smoother_apply(spectral.rho_metric(basis, 0.0), r), r, atol=1e-12
    )
    smoothed = spectral.smoother_apply(spectral.rho_metric(basis, 1.0), r)
    np.testing.assert_allclose(smoothed, np.full(30, r.mean()), atol=1e-10)


def smoother_apply_direct(metric, r):
    """Oracle for the smoother: dense solve of ``(I + lam*K) x = r``.

    Valid for rho in [0, 1); rho=1 has no finite lam.
    """
    if metric.rho == 1.0:
        raise ValueError("direct solve undefined at rho=1 (lam is infinite)")
    n = metric.basis.n
    k = spectral.penalty_matrix(n, metric.basis.q)
    lam = metric.rho / (1.0 - metric.rho)
    return np.linalg.solve(np.eye(n) + lam * k, np.asarray(r, dtype=float))


@pytest.mark.parametrize("rho", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("q", [1, 2])
def test_smoother_matches_direct_solve(rho, q):
    rng = np.random.default_rng(5)
    r = rng.normal(size=35)
    m = spectral.rho_metric(spectral.spectral_basis(35, q), rho)
    np.testing.assert_allclose(
        spectral.smoother_apply(m, r),
        smoother_apply_direct(m, r),
        atol=1e-8,
    )


def test_direct_solve_refuses_rho_one():
    m = spectral.rho_metric(spectral.spectral_basis(10, 1), 1.0)
    with pytest.raises(ValueError, match="rho=1"):
        smoother_apply_direct(m, np.zeros(10))


def test_quadform_rho0_is_squared_difference_norm():
    rng = np.random.default_rng(3)
    r = rng.normal(size=25)
    for q in (1, 2):
        m = spectral.rho_metric(spectral.spectral_basis(25, q), 0.0)
        d = spectral.difference_operator(25, q)
        assert spectral.metric_quadform(m, r) == pytest.approx(
            np.sum((d @ r) ** 2), rel=1e-12
        )


def test_quadform_rho1_q1_is_centered_norm():
    rng = np.random.default_rng(4)
    r = rng.normal(size=25)
    m = spectral.rho_metric(spectral.spectral_basis(25, 1), 1.0)
    assert spectral.metric_quadform(m, r) == pytest.approx(
        np.sum((r - r.mean()) ** 2), rel=1e-12
    )


def test_quadform_vanishes_on_null_space():
    t = np.arange(18, dtype=float)
    basis = spectral.spectral_basis(18, 2)
    for rho in RHO_GRID:
        m = spectral.rho_metric(basis, rho)
        assert abs(spectral.metric_quadform(m, 1.0 - 0.7 * t)) < 1e-9


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([0.0, 0.2, 0.8, 1.0]))
@settings(max_examples=25, deadline=None)
def test_quadform_nonnegative(seed, rho):
    r = np.random.default_rng(seed).normal(size=15)
    m = spectral.rho_metric(spectral.spectral_basis(15, 1), rho)
    assert spectral.metric_quadform(m, r) >= -1e-12


def test_metric_apply_consistent_with_quadform():
    rng = np.random.default_rng(9)
    r = rng.normal(size=22)
    m = spectral.rho_metric(spectral.spectral_basis(22, 2), 0.6)
    assert r @ spectral.metric_apply(m, r) == pytest.approx(
        spectral.metric_quadform(m, r), rel=1e-12
    )


# ------------------------------------------------------------ square root

def sqrt_transform(metric):
    """Oracle square root: the symmetric ``W^{1/2} = V diag(sqrt(w)) V'``."""
    v = metric.basis.eigenvectors
    c = v @ spectral.sqrt_factor(metric)
    return (c + c.T) / 2.0


def test_sqrt_transform_squares_to_metric():
    basis = spectral.spectral_basis(20, 1)
    for rho in (0.0, 0.5, 1.0):
        m = spectral.rho_metric(basis, rho)
        c = sqrt_transform(m)
        np.testing.assert_array_equal(c, c.T)
        v = basis.eigenvectors
        w_mat = v @ (m.match_gains[:, None] * v.T)
        assert np.max(np.abs(c.T @ c - w_mat)) < 1e-8


def test_sqrt_factor_squares_to_metric():
    basis = spectral.spectral_basis(20, 2)
    m = spectral.rho_metric(basis, 0.8)
    f = spectral.sqrt_factor(m)
    v = basis.eigenvectors
    w_mat = v @ (m.match_gains[:, None] * v.T)
    assert np.max(np.abs(f.T @ f - w_mat)) < 1e-10


def test_sqrt_transform_norm_matches_quadform():
    rng = np.random.default_rng(21)
    r = rng.normal(size=20)
    m = spectral.rho_metric(spectral.spectral_basis(20, 1), 0.7)
    c = sqrt_transform(m)
    assert np.sum((c @ r) ** 2) == pytest.approx(
        spectral.metric_quadform(m, r), rel=1e-8
    )


def test_sqrt_transform_rho0_q1_difference_norm():
    rng = np.random.default_rng(22)
    r = rng.normal(size=20)
    m = spectral.rho_metric(spectral.spectral_basis(20, 1), 0.0)
    d = spectral.difference_operator(20, 1)
    assert np.sum((sqrt_transform(m) @ r) ** 2) == pytest.approx(
        np.sum((d @ r) ** 2), rel=1e-8
    )


def test_sqrt_transform_rho1_is_projector():
    m = spectral.rho_metric(spectral.spectral_basis(20, 1), 1.0)
    c = sqrt_transform(m)
    assert np.max(np.abs(c @ c - c)) < 1e-8
    expected = np.eye(20) - np.full((20, 20), 1.0 / 20)
    assert np.max(np.abs(c - expected)) < 1e-8


# ------------------------------------------------------------- invariants

def test_continuity_near_endpoints():
    mu = spectral.spectral_basis(40, 2).eigenvalues
    positive = mu[mu > 0]
    _, w_hi = spectral.gains(positive, 1.0 - 1e-6)
    assert np.all(np.abs(w_hi - 1.0) < 1e-4 * (1.0 + 1.0 / positive))
    _, w_lo = spectral.gains(positive, 1e-8)
    assert np.all(np.abs(w_lo - positive) < 1e-6 * positive)


def test_metric_psd_on_study_grid():
    basis = spectral.spectral_basis(15, 2)
    v = basis.eigenvectors
    for rho in RHO_GRID:
        m = spectral.rho_metric(basis, rho)
        assert m.match_gains.min() >= 0.0
        w_mat = v @ (m.match_gains[:, None] * v.T)
        assert np.linalg.eigvalsh(w_mat).min() > -1e-10


def test_smoother_commutes_with_penalty():
    k = spectral.penalty_matrix(30, 2)
    m = spectral.rho_metric(spectral.spectral_basis(30, 2), 0.55)
    v = m.basis.eigenvectors
    s_mat = v @ (m.shrink_gains[:, None] * v.T)
    assert np.max(np.abs(s_mat @ k - k @ s_mat)) < 1e-8
