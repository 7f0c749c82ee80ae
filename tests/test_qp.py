import contextlib

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


def svd_face_solve(problem, idx):
    """Reference face solve: the bordered KKT system by SVD pseudo-inverse.

    Solves ``[[H, c1], [c1', 0]] [w; nu/c] = [-2 linear_S; c]`` with
    ``H = 2 (gram_SS + ridge I)``, refined twice with the residual in
    extended precision.  The border is scaled to ``c = max(1, max|H|)``:
    left at 1, the pseudo-inverse cutoff drops the border's singular value
    once the gram is large.
    """
    m = idx.size
    h = 2.0 * (problem.gram[np.ix_(idx, idx)] + problem.ridge * np.eye(m))
    c = max(1.0, float(np.max(np.abs(h))))
    kkt = np.zeros((m + 1, m + 1))
    kkt[:m, :m] = h
    kkt[:m, m] = kkt[m, :m] = c
    rhs = np.concatenate([-2.0 * problem.linear[idx], [c]])
    u, s, vt = np.linalg.svd(kkt)
    keep = s > np.finfo(float).eps * (m + 1) * s[0]
    pinv = vt[keep].T @ (u[:, keep].T / s[keep][:, None])
    sol = pinv @ rhs
    kkt_l, rhs_l = kkt.astype(np.longdouble), rhs.astype(np.longdouble)
    for _ in range(2):
        sol = sol + pinv @ (rhs_l - kkt_l @ sol.astype(np.longdouble)).astype(float)
    return sol[:m]


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


@pytest.mark.parametrize("name", ["gram", "linear", "offset"])
def test_simplexqp_rejects_non_finite_coefficients(name):
    coefficients = {"gram": np.eye(3), "linear": np.zeros(3), "offset": 0.0}
    for bad in (np.nan, np.inf):
        broken = dict(coefficients)
        if name == "offset":
            broken[name] = bad
        else:
            broken[name] = broken[name].copy()
            broken[name].flat[1] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            qp.SimplexQP(**broken, ridge=0.0)


def test_nan_outcome_is_rejected_when_the_program_is_built():
    rng = np.random.default_rng(4)
    y = rng.normal(size=10)
    y[3] = np.nan
    with pytest.raises(ValueError, match="linear must be finite"):
        qp.build(y, rng.normal(size=(10, 3)), ridge=0.1)


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


def spectral_program(seed, rho, ridge=0.5):
    """A rho-metric program shaped like the estimator's (q=1, 30 periods)."""
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.normal(size=(30, 8)), axis=0)
    y = x @ rng.dirichlet(np.ones(8)) + 0.3 * rng.normal(size=30)
    basis = spectral.spectral_basis(30, 1)
    root = np.sqrt(spectral.rho_metric(basis, rho).match_gains)
    c = root[:, None] * basis.eigenvectors.T
    return qp.build(c @ y, c @ x, ridge)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e8])
@pytest.mark.parametrize("seed", range(4))
def test_face_solve_matches_svd_oracle(seed, scale):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(30, 30))
    x = np.cumsum(rng.normal(size=(30, 12)), axis=0)
    y = x @ rng.dirichlet(np.ones(12)) + rng.normal(size=30)
    problem = qp.build(scale * (c @ y), scale * (c @ x), ridge=0.3 * scale**2)
    for size in (1, 5, 12):
        idx = np.sort(rng.choice(12, size=size, replace=False))
        w = qp._face_solve(problem, idx)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(
            w, svd_face_solve(problem, idx), rtol=0.0,
            atol=1e-9 * (1.0 + np.max(np.abs(w))),
        )


def test_iterated_polish_finishes_a_distant_warm_start():
    # Warm-started from the rho=0 solution, the rho=1 program needed 20
    # projected-gradient steps when the opening polish stopped after one
    # improving round.
    far = qp.solve(spectral_program(2, 0.0)).weights
    problem = spectral_program(2, 1.0)
    warm = qp.solve(problem, init=far)
    # Round one improves on the start's own face; round two solves only
    # the face enlarged by the entering coordinates, not the face just
    # solved, and certifies the result.
    assert (warm.iterations, warm.face_solves) == (0, 2)
    np.testing.assert_allclose(warm.weights, qp.solve(problem).weights, atol=1e-10)
    # A start already on the optimal face costs one face solve.
    again = qp.solve(problem, init=warm.weights)
    assert (again.iterations, again.face_solves) == (0, 1)


def test_ridge_programs_never_call_svd(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called on a ridge > 0 program")

    programs = [random_instance(s, n_obs=30, n_donors=10, ridge=0.2) for s in range(6)]
    programs += [spectral_program(s, rho) for s in range(3) for rho in (0.0, 0.5, 1.0)]
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    for problem in programs:
        cold = qp.solve(problem)
        qp.solve(problem, init=np.roll(cold.weights, 1))
        # An unreachable tolerance also runs the gradient loop and its
        # repeated polish.
        with contextlib.suppress(qp.SolverStall):
            qp.solve(problem, tol=0.0, max_iter=25)


def test_numerically_singular_ridge_face_falls_back_to_gradient_steps():
    # Identical donors at a level where the ridge is below the gram's
    # rounding: the restricted Hessian is exactly singular in floating
    # point, and the ridge still decides the optimum (uniform weights).
    problem = qp.SimplexQP(gram=np.full((3, 3), 1e20), linear=np.full(3, -1e20),
                           offset=1e20, ridge=1.0)
    with pytest.raises(np.linalg.LinAlgError):
        qp._face_solve(problem, np.arange(3))
    sol = qp.solve(problem)
    assert sol.iterations > 0
    np.testing.assert_allclose(sol.weights, np.full(3, 1.0 / 3.0), atol=1e-12)


@pytest.mark.parametrize("ridge", [0.0, 0.4])
def test_solve_is_scale_equivariant(ridge):
    rng = np.random.default_rng(17)
    x = 10.0 + np.cumsum(rng.normal(size=(40, 15)), axis=0)
    y = x @ rng.dirichlet(np.ones(15)) + rng.normal(size=40)
    base = qp.solve(qp.build(y, x, ridge))
    for scale in (1e2, 1e4):
        scaled = qp.solve(qp.build(scale * y, scale * x, ridge * scale**2))
        np.testing.assert_allclose(scaled.weights, base.weights, rtol=0.0, atol=1e-9)


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
