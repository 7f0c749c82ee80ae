import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonic_sc import forecast, hsc, spectral, tuning

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


def _failing_eigh(a):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def test_eigendecompose_wraps_lapack_failure(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigh", _failing_eigh)
    with pytest.raises(spectral.EigenSolverError, match="eigh failed") as info:
        spectral.eigendecompose(spectral.penalty_matrix(10, 2), 2)
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


# ------------------------------------------- closed form against LAPACK

CLOSED_FORM_SIZES = [2, 3, 4, 5, 17, 68, 75, 80, 99, 100, 200, 301]


def reference_q1_basis(n):
    """The order-1 basis as LAPACK gives it: ``eigh`` of the penalty, with
    the exact constant vector in the null column and its component taken
    out of the other columns."""
    vals, vecs = np.linalg.eigh(spectral.penalty_matrix(n, 1))
    null = np.full(n, 1.0 / np.sqrt(n))
    rest = vecs[:, 1:] - np.outer(null, null @ vecs[:, 1:])
    vals[0] = 0.0
    return spectral.SpectralBasis(
        n=n, q=1, eigenvalues=vals, eigenvectors=np.column_stack([null, rest])
    )


@pytest.mark.parametrize("n", CLOSED_FORM_SIZES)
def test_q1_closed_form_matches_lapack(n):
    k = spectral.penalty_matrix(n, 1)
    b = spectral.eigendecompose(k, 1)
    v, mu = b.eigenvectors, b.eigenvalues
    np.testing.assert_allclose(mu, np.linalg.eigvalsh(k), rtol=0, atol=1e-12)
    assert mu[0] == 0.0 and np.all(np.diff(mu) > 0)
    assert np.max(np.abs(k @ v - v * mu)) <= 1e-13
    assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-13

    ref = reference_q1_basis(n)
    r = np.random.default_rng(n).normal(size=(n, 3))
    np.testing.assert_allclose(b.project_null(r), ref.project_null(r), rtol=0, atol=1e-13)
    np.testing.assert_allclose(b.project_perp(r), ref.project_perp(r), rtol=0, atol=1e-13)


def test_q1_cosines_accurate_to_rounding():
    # The argument k*(2t+1) is reduced mod 4n before the cosine, so the
    # error stays at the rounding of arguments below 2*pi.  A direct
    # cos(pi*k*(2t+1)/(2n)) errs by the rounding of its argument, up to
    # pi*n: 1.7e-14 here after normalization.
    n = 500
    v = spectral.eigendecompose(spectral.penalty_matrix(n, 1), 1).eigenvectors
    j = np.outer(2 * np.arange(n) + 1, np.arange(n)) % (4 * n)
    ref = np.cos(np.arccos(np.longdouble(-1.0)) * j / (2 * n))
    ref[:, 0] /= np.sqrt(np.longdouble(n))
    ref[:, 1:] *= np.sqrt(np.longdouble(2.0) / n)
    assert np.max(np.abs(v - ref)) < 2e-16


def test_q1_builds_without_lapack(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigh", _failing_eigh)
    for n in (17, 80):
        basis = spectral.eigendecompose(spectral.penalty_matrix(n, 1), 1)
        assert basis.eigenvectors.shape == (n, n)
        with pytest.raises(spectral.EigenSolverError, match="eigh failed"):
            spectral.eigendecompose(spectral.penalty_matrix(n, 2), 2)


def test_q1_closed_form_rejects_other_matrices():
    # The cosine basis does not read k; only the residual check ties it to
    # k.  Twice the penalty shares its null space and its eigenvectors.
    with pytest.raises(spectral.EigenSolverError, match="residual"):
        spectral.eigendecompose(2 * spectral.penalty_matrix(40, 1), 1)


def _applied_panel(seed):
    """``perfbench/workloads.applied_panel``: the applied benchmark's panel."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import workloads
    return workloads.applied_panel(seed)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_q1_closed_form_downstream_matches_lapack_basis(seed, monkeypatch):
    panel = _applied_panel(seed)
    y, x = panel["y_pre"], panel["x_pre"]
    t0, grid = y.size, tuning.uniform_grid()
    for ridge in (0.0, hsc.auto_zeta(x, 4) ** 2 * t0):
        sol, smooth = hsc.fit_path(y, x, spectral.spectral_basis(t0, 1), grid, ridge)
        ref_sol, ref_smooth = hsc.fit_path(y, x, reference_q1_basis(t0), grid, ridge)
        np.testing.assert_allclose(sol.weights, ref_sol.weights, rtol=0, atol=1e-10)
        np.testing.assert_allclose(smooth, ref_smooth, rtol=0, atol=1e-10)

    plan = tuning.CvPlan(
        h=4, folds=8, candidates=tuple((1, kind) for kind in forecast.RULE_KINDS)
    )
    result = tuning.cross_validate(y, x, plan)
    monkeypatch.setattr(spectral, "spectral_basis", lambda n, q: reference_q1_basis(n))
    ref = tuning.cross_validate(y, x, plan)
    assert result.best_candidate == ref.best_candidate
    assert result.best_rho == ref.best_rho
    assert result.excluded == ref.excluded


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
# A grid-design study: every fold's stack of weight programs starts from the
# previous fold's weights, so the rho-hat samples and errors carry that chain.
cfg = mc.GridDgpConfig(kappa=2.0, rho_u=0.5, master_seed=4, t0=60, t_post=5, n0=30)
table = mc.run_study("grid", cfg, ("hsc:1:last_constant", "sdid"), reps=3, threads=1)
digest.update(table.rho_hat_samples["hsc:1:last_constant"].tobytes())
for errors in table.errors.values():
    digest.update(errors.tobytes())
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


@pytest.mark.parametrize("n", [421, 1000])
def test_long_q2_bases_build(n):
    # The smallest nonzero eigenvalue is 1.59e-8 at n=421 and 5.0e-10 at
    # n=1000 (the largest is about 16); it must still clear the null cut.
    k = spectral.penalty_matrix(n, 2)
    b = spectral.eigendecompose(k, 2)
    v = b.eigenvectors
    assert np.max(np.abs(k @ v - v * b.eigenvalues)) < 1e-8
    assert np.max(np.abs(v.T @ v - np.eye(n))) < 1e-10
    trend = 3.0 - 1.7 * np.arange(n, dtype=float)
    np.testing.assert_allclose(b.project_null(trend), trend, rtol=0, atol=1e-10)
    np.testing.assert_allclose(b.project_perp(trend), 0.0, rtol=0, atol=1e-10)


# ----------------------------------------------------------------- gains

def basis_over(*mu):
    """A basis over the given spectrum (nulls first): :func:`path_gains`
    reads only ``n``, ``q`` and the eigenvalues."""
    mu = np.array(mu, dtype=float)
    return spectral.SpectralBasis(
        n=mu.size, q=int(np.sum(mu == 0.0)), eigenvalues=mu, eigenvectors=np.eye(mu.size)
    )


def gains_at(basis, rho):
    """Rows ``(s, w)`` of :func:`path_gains` at one rho."""
    (s,), (w,) = spectral.path_gains(basis, (rho,))
    return s, w


def operators(basis, rho):
    """Dense smoother ``V diag(s) V'`` and metric ``V diag(w) V'`` at one rho."""
    v = basis.eigenvectors
    s, w = gains_at(basis, rho)
    return (v * s) @ v.T, (v * w) @ v.T


def test_gains_fixed_point_at_mu_one():
    for rho in RHO_GRID:
        _, w = gains_at(basis_over(0.0, 1.0), rho)
        assert w[1] == pytest.approx(1.0, abs=1e-15)


def test_gains_null_space_untouched():
    s, w = gains_at(basis_over(0.0, 1.0), 0.5)
    assert (s[0], w[0]) == (1.0, 0.0)


def test_gains_harmonic_mean_example():
    s, w = gains_at(basis_over(0.0, 3.0), 0.25)
    assert w[1] == pytest.approx(2.0, abs=1e-15)
    assert s[1] == pytest.approx(0.5, abs=1e-15)


def test_gains_endpoint_conventions():
    mu = np.array([0.0, 0.5, 2.0])
    s0, w0 = gains_at(basis_over(*mu), 0.0)
    np.testing.assert_array_equal(s0, 1.0)
    np.testing.assert_array_equal(w0, mu)
    s1, w1 = gains_at(basis_over(*mu), 1.0)
    np.testing.assert_array_equal(s1, [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(w1, [0.0, 1.0, 1.0])


@given(
    st.floats(1e-4, 50.0, allow_nan=False),
    st.floats(1e-3, 1.0, exclude_max=True, allow_nan=False),
)
def test_gains_harmonic_identity(mu, rho):
    _, w = gains_at(basis_over(0.0, mu), rho)
    lhs = 1.0 / w[1]
    rhs = (1.0 - rho) / mu + rho
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_gains_monotone_in_mu():
    basis = spectral.spectral_basis(50, 1)
    for rho in (0.3, 0.7):
        s, w = gains_at(basis, rho)
        assert np.all(np.diff(s) < 0)
        assert np.all(np.diff(w) > 0)


def test_gains_rejects_rho_outside_unit_interval():
    basis = spectral.spectral_basis(10, 2)
    for grid in ((1.5,), (-0.1,), (np.nan,), (0.0, 0.5, 1.0 + 1e-12)):
        with pytest.raises(ValueError, match="rho must lie in"):
            spectral.path_gains(basis, grid)


@pytest.mark.parametrize("q", [1, 2])
def test_grid_rows_equal_single_point_gains(q):
    # CV reads a whole grid; a fit and the decomposition read one rho.
    basis = spectral.spectral_basis(40, q)
    grid = tuning.uniform_grid()
    shrink, match = spectral.path_gains(basis, grid)
    for g, rho in enumerate(grid):
        s, w = gains_at(basis, rho)
        np.testing.assert_array_equal(shrink[g], s)
        np.testing.assert_array_equal(match[g], w)


def test_rho_metric_elementwise_formulas():
    basis = spectral.spectral_basis(20, 1)
    mu = basis.eigenvalues
    s, w = gains_at(basis, 0.37)
    np.testing.assert_allclose(s, 0.63 / (0.63 + 0.37 * mu), atol=1e-14)
    np.testing.assert_allclose(w, mu / (0.63 + 0.37 * mu), atol=1e-14)

    s0, w0 = gains_at(basis, 0.0)
    np.testing.assert_array_equal(s0, 1.0)
    np.testing.assert_array_equal(w0, mu)

    s1, w1 = gains_at(basis, 1.0)
    np.testing.assert_array_equal(s1, (mu == 0).astype(float))
    np.testing.assert_array_equal(w1, (mu > 0).astype(float))


def test_smoother_fixes_null_space():
    t = np.arange(12, dtype=float)
    cases = {1: [np.ones(12)], 2: [np.ones(12), 2.0 + 0.3 * t]}
    for q, vectors in cases.items():
        basis = spectral.spectral_basis(12, q)
        for rho in (0.0, 0.4, 0.9, 1.0):
            s_mat, _ = operators(basis, rho)
            for v in vectors:
                np.testing.assert_allclose(s_mat @ v, v, atol=1e-10)


def test_smoother_endpoints():
    basis = spectral.spectral_basis(30, 1)
    np.testing.assert_allclose(operators(basis, 0.0)[0], np.eye(30), atol=1e-12)
    np.testing.assert_allclose(operators(basis, 1.0)[0], 1.0 / 30, atol=1e-10)


def smoother_direct(n, q, rho):
    """Oracle for the smoother: dense ``(I + lam*K)^{-1}``, lam = rho/(1-rho).

    Valid for rho in [0, 1); rho=1 has no finite lam.
    """
    if rho == 1.0:
        raise ValueError("direct solve undefined at rho=1 (lam is infinite)")
    lam = rho / (1.0 - rho)
    return np.linalg.solve(np.eye(n) + lam * spectral.penalty_matrix(n, q), np.eye(n))


@pytest.mark.parametrize("rho", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("q", [1, 2])
def test_smoother_matches_direct_solve(rho, q):
    s_mat, w_mat = operators(spectral.spectral_basis(35, q), rho)
    s_direct = smoother_direct(35, q, rho)
    np.testing.assert_allclose(s_mat, s_direct, atol=1e-8)
    # W = (I - S) / rho
    np.testing.assert_allclose(w_mat, (np.eye(35) - s_direct) / rho, atol=1e-7)


def test_direct_solve_refuses_rho_one():
    with pytest.raises(ValueError, match="rho=1"):
        smoother_direct(10, 1, 1.0)


def test_quadform_rho0_is_squared_difference_norm():
    for q in (1, 2):
        _, w_mat = operators(spectral.spectral_basis(25, q), 0.0)
        np.testing.assert_allclose(w_mat, spectral.penalty_matrix(25, q), atol=1e-12)


def test_quadform_rho1_q1_is_centered_norm():
    _, w_mat = operators(spectral.spectral_basis(25, 1), 1.0)
    np.testing.assert_allclose(w_mat, np.eye(25) - 1.0 / 25, atol=1e-12)


def test_quadform_vanishes_on_null_space():
    t = np.arange(18, dtype=float)
    basis = spectral.spectral_basis(18, 2)
    for rho in RHO_GRID:
        _, w_mat = operators(basis, rho)
        assert np.max(np.abs(w_mat @ (1.0 - 0.7 * t))) < 1e-9


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([0.0, 0.2, 0.8, 1.0]))
@settings(max_examples=25, deadline=None)
def test_quadform_nonnegative(seed, rho):
    r = np.random.default_rng(seed).normal(size=15)
    _, w_mat = operators(spectral.spectral_basis(15, 1), rho)
    assert r @ w_mat @ r >= -1e-12


# ------------------------------------------------------------- invariants

def test_continuity_near_endpoints():
    basis = spectral.spectral_basis(40, 2)
    positive = basis.eigenvalues[2:]
    _, w_hi = gains_at(basis, 1.0 - 1e-6)
    assert np.all(np.abs(w_hi[2:] - 1.0) < 1e-4 * (1.0 + 1.0 / positive))
    _, w_lo = gains_at(basis, 1e-8)
    assert np.all(np.abs(w_lo[2:] - positive) < 1e-6 * positive)


def test_metric_psd_on_study_grid():
    basis = spectral.spectral_basis(15, 2)
    for rho in RHO_GRID:
        assert gains_at(basis, rho)[1].min() >= 0.0
        assert np.linalg.eigvalsh(operators(basis, rho)[1]).min() > -1e-10


def test_smoother_commutes_with_penalty():
    k = spectral.penalty_matrix(30, 2)
    s_mat, _ = operators(spectral.spectral_basis(30, 2), 0.55)
    assert np.max(np.abs(s_mat @ k - k @ s_mat)) < 1e-8
