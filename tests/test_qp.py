import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonic_sc import qp, spectral


def random_instance(seed, n_obs=12, n_donors=4, ridge=0.0):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(n_obs, n_obs))
    y = rng.normal(size=n_obs)
    x = rng.normal(size=(n_obs, n_donors))
    return qp.build(c @ y, c @ x, ridge)


def brute_force_two_donors(problem, step=1e-4):
    """Dense scan over the 1-D simplex for N0=2 (independent oracle)."""
    w1 = np.arange(0.0, 1.0 + step / 2, step)
    grid = np.stack([w1, 1.0 - w1], axis=1)
    vals = (
        np.einsum("ij,jk,ik->i", grid, problem.gram, grid)
        + 2.0 * grid @ problem.linear
        + problem.offset
        + problem.ridge * np.sum(grid * grid, axis=1)
    )
    return grid[np.argmin(vals)]


def brute_force_three_donors(problem, step=0.005):
    """Dense scan over the 2-D simplex for N0=3."""
    best_w, best_val = None, np.inf
    for w1 in np.arange(0.0, 1.0 + step / 2, step):
        for w2 in np.arange(0.0, 1.0 - w1 + step / 2, step):
            w = np.array([w1, w2, 1.0 - w1 - w2])
            val = problem.eval(w)
            if val < best_val:
                best_w, best_val = w, val
    return best_w


# ------------------------------------------------------------------ build

def test_build_matches_direct_evaluation():
    rng = np.random.default_rng(3)
    c = rng.normal(size=(10, 12))  # rectangular factors are allowed
    y = rng.normal(size=12)
    x = rng.normal(size=(12, 5))
    problem = qp.build(c @ y, c @ x, ridge=0.7)
    for _ in range(5):
        w = rng.dirichlet(np.ones(5))
        direct = np.sum((c @ (y - x @ w)) ** 2) + 0.7 * np.sum(w * w)
        assert problem.eval(w) == pytest.approx(direct, rel=1e-8)


def test_build_identity_metric_is_least_squares():
    rng = np.random.default_rng(5)
    y = rng.normal(size=8)
    x = rng.normal(size=(8, 3))
    problem = qp.build(y, x, ridge=0.0)
    w = np.array([0.2, 0.5, 0.3])
    assert problem.eval(w) == pytest.approx(np.sum((y - x @ w) ** 2), rel=1e-10)


def test_build_vertex_objective():
    rng = np.random.default_rng(6)
    c = rng.normal(size=(8, 8))
    y = rng.normal(size=8)
    x = rng.normal(size=(8, 4))
    problem = qp.build(c @ y, c @ x, ridge=0.3)
    for j in range(4):
        e = np.zeros(4)
        e[j] = 1.0
        expected = np.sum((c @ (y - x[:, j])) ** 2) + 0.3
        assert problem.eval(e) == pytest.approx(expected, rel=1e-10)


def test_build_dimension_mismatch():
    with pytest.raises(ValueError, match="rows"):
        qp.build(np.zeros(5), np.zeros((4, 2)), 0.0)


def test_simplexqp_validation():
    good = np.eye(3)
    with pytest.raises(ValueError, match="asymmetry"):
        qp.SimplexQP(gram=np.array([[1.0, 0.5], [0.0, 1.0]]),
                     linear=np.zeros(2), offset=0.0, ridge=0.0)
    with pytest.raises(ValueError, match="ridge"):
        qp.SimplexQP(gram=good, linear=np.zeros(3), offset=0.0, ridge=-1.0)
    with pytest.raises(ValueError, match="length"):
        qp.SimplexQP(gram=good, linear=np.zeros(4), offset=0.0, ridge=0.0)


def test_simplexqp_rejects_non_finite_ridge():
    for ridge in (np.nan, np.inf):
        with pytest.raises(ValueError, match="ridge must be finite"):
            qp.SimplexQP(gram=np.eye(3), linear=np.zeros(3), offset=0.0, ridge=ridge)


# ------------------------------------------------------------- projection

@given(st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=12))
def test_projection_lands_on_simplex(vals):
    p = qp.project_simplex(np.array(vals))
    assert np.all(p >= 0.0)
    assert p.sum() == pytest.approx(1.0, abs=1e-9)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=30)
def test_projection_fixes_simplex_points(seed):
    w = np.random.default_rng(seed).dirichlet(np.ones(6))
    np.testing.assert_allclose(qp.project_simplex(w), w, atol=1e-12)


def test_projection_of_vertex_neighbourhood():
    np.testing.assert_allclose(
        qp.project_simplex(np.array([5.0, 0.0, 0.0])), [1.0, 0.0, 0.0], atol=1e-12
    )


# ------------------------------------------------------------------ solve

def test_exact_donor_match_recovers_vertex():
    # Donor 3 reproduces the target exactly; the others are orthogonal to it.
    v1 = np.array([1.0, -1.0, 0.0, 0.0, 0.0, 0.0])
    v2 = np.array([0.0, 0.0, 1.0, -1.0, 0.0, 0.0])
    v3 = np.array([1.0, 1.0, 1.0, 1.0, 2.0, 2.0])
    x = np.stack([v1, v2, v3], axis=1)
    problem = qp.build(v3, x, ridge=0.0)
    sol = qp.solve(problem)
    np.testing.assert_allclose(sol.weights, [0.0, 0.0, 1.0], atol=1e-8)
    assert sol.objective == pytest.approx(0.0, abs=1e-10)
    # Independent confirmation by dense scan of the 2-simplex.
    np.testing.assert_allclose(
        brute_force_three_donors(problem), [0.0, 0.0, 1.0], atol=0.005 + 1e-12
    )


def test_huge_ridge_pulls_weights_uniform():
    problem = random_instance(11, n_donors=5)
    big = 1e12 * max(np.max(np.abs(problem.gram)), 1.0)
    ridged = qp.SimplexQP(
        gram=problem.gram, linear=problem.linear, offset=problem.offset, ridge=big
    )
    sol = qp.solve(ridged)
    np.testing.assert_allclose(sol.weights, np.full(5, 0.2), atol=1e-6)


@pytest.mark.parametrize("seed", range(8))
def test_two_donor_instances_match_grid_oracle(seed):
    problem = random_instance(seed, n_obs=9, n_donors=2,
                              ridge=0.1 if seed % 2 else 0.0)
    sol = qp.solve(problem)
    oracle = brute_force_two_donors(problem)
    assert np.max(np.abs(sol.weights - oracle)) <= 2e-4


def test_objective_monotone_along_iterations():
    problem = random_instance(21, n_obs=30, n_donors=8)
    trace: list = []
    qp.solve(problem, trace=trace)
    # The starting objective and the polished one at the least.
    assert len(trace) >= 2
    diffs = np.diff(np.array(trace))
    assert np.all(diffs <= 1e-12 * (1.0 + np.abs(trace[:-1])))


def test_donor_permutation_equivariance():
    rng = np.random.default_rng(31)
    c = rng.normal(size=(15, 15))
    y = rng.normal(size=15)
    x = rng.normal(size=(15, 6))
    perm = rng.permutation(6)
    sol = qp.solve(qp.build(c @ y, c @ x, ridge=0.4))
    sol_perm = qp.solve(qp.build(c @ y, c @ x[:, perm], ridge=0.4))
    np.testing.assert_allclose(sol_perm.weights, sol.weights[perm], atol=1e-7)


def test_strict_convexity_start_independence():
    problem = random_instance(41, n_obs=20, n_donors=6, ridge=0.5)
    e0 = np.zeros(6)
    e0[0] = 1.0
    from_uniform = qp.solve(problem)
    from_vertex = qp.solve(problem, init=e0)
    np.testing.assert_allclose(from_vertex.weights, from_uniform.weights, atol=1e-7)

    # Warm start as cross-validation uses it: the weights at the
    # neighbouring rho of a spectral-metric program.
    rng = np.random.default_rng(43)
    x = np.cumsum(rng.normal(size=(30, 8)), axis=0)
    y = x @ rng.dirichlet(np.ones(8)) + 0.3 * rng.normal(size=30)
    basis = spectral.spectral_basis(30, 1)
    v = basis.eigenvectors

    def program(rho):
        root = np.sqrt(spectral.rho_metric(basis, rho).match_gains)
        c = root[:, None] * v.T
        return qp.build(c @ y, c @ x, ridge=0.5)

    neighbour = qp.solve(program(0.45)).weights
    cold = qp.solve(program(0.5))
    warm = qp.solve(program(0.5), init=neighbour)
    np.testing.assert_allclose(warm.weights, cold.weights, atol=1e-10)
    assert warm.iterations == 0


def test_solution_is_clean_simplex_point():
    problem = random_instance(51, n_donors=7, ridge=0.05)
    sol = qp.solve(problem)
    assert sol.weights.min() >= 0.0
    assert sol.weights.sum() == pytest.approx(1.0, abs=1e-10)
    nonzero = sol.weights[sol.weights > 0]
    assert np.all(nonzero >= 1e-12)  # dust is clamped, not reported


def test_solution_satisfies_reported_kkt():
    problem = random_instance(61, n_donors=5, ridge=0.2)
    sol = qp.solve(problem, tol=1e-10)
    grad = problem.gradient(sol.weights)
    active = sol.weights > 0
    nu = grad[active].mean()
    resid = np.max(np.abs(grad[active] - nu))
    if not active.all():
        resid = max(resid, np.max(np.clip(nu - grad[~active], 0.0, None)))
    assert resid <= 1e-10 * (1.0 + np.linalg.norm(grad)) + 1e-15


def test_stall_raises_with_best_iterate():
    # A zero tolerance is out of reach for any polish, so the run must
    # exhaust its budget.
    problem = random_instance(71, n_obs=40, n_donors=10)
    with pytest.raises(qp.SolverStall) as excinfo:
        qp.solve(problem, tol=0.0, max_iter=3)
    best = excinfo.value.solution
    assert best.weights.sum() == pytest.approx(1.0, abs=1e-10)
    assert best.iterations == 3
    assert np.isfinite(best.objective)
    assert np.isfinite(best.kkt_residual)


def test_opening_polish_finishes_the_run():
    problem = random_instance(71, n_obs=40, n_donors=10)
    sol = qp.solve(problem, max_iter=3)
    assert sol.iterations == 0
    grad = problem.gradient(sol.weights)
    assert sol.kkt_residual <= 1e-10 * (1.0 + np.linalg.norm(grad))


def test_degenerate_flat_objective_terminates():
    # Zero gram and linear term: every simplex point is optimal.
    flat = qp.SimplexQP(gram=np.zeros((4, 4)), linear=np.zeros(4),
                        offset=2.0, ridge=0.0)
    sol = qp.solve(flat)
    assert sol.objective == pytest.approx(2.0)
    assert sol.weights.sum() == pytest.approx(1.0, abs=1e-10)
