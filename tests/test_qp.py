import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonic_sc import baselines, mc, qp, spectral
from harmonic_sc.panel import PrePostView


def random_instance(seed, n_obs=12, n_donors=4, ridge=0.0):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(n_obs, n_obs))
    y = rng.normal(size=n_obs)
    x = rng.normal(size=(n_obs, n_donors))
    return qp.build(c @ y, c @ x, ridge)


def evaluate(problem, w):
    """Objective value and gradient of every program of ``problem`` at ``w``."""
    return qp._evaluate(problem.gram, problem.linear, problem.offset, problem.ridge,
                        np.asarray(w, dtype=float))


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
            val = evaluate(problem, w)[0]
            if val < best_val:
                best_w, best_val = w, val
    return best_w


def svd_face_solve(problem, idx):
    """Reference face solve: the bordered KKT system by SVD pseudo-inverse.

    Solves ``[[H, c1], [c1', 0]] [w; nu/c] = [-2 linear_S; c]`` with
    ``H = 2 (gram_SS + ridge I)``, refined twice with the residual in
    extended precision.  The border is scaled to ``c = max|H|`` (1 when
    ``H`` is zero): left at 1, the pseudo-inverse cutoff drops the border's
    singular value once the gram is large, and ``H``'s once it is small.
    """
    m = idx.size
    h = 2.0 * (problem.gram[np.ix_(idx, idx)] + problem.ridge * np.eye(m))
    c = float(np.max(np.abs(h))) or 1.0
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


def counting_lstsq():
    """Patch ``np.linalg.lstsq`` with a wrapper recording every call."""
    return mock.patch.object(np.linalg, "lstsq", wraps=np.linalg.lstsq)


def lstsq_faces(lstsq):
    """Face sizes of the bordered systems a patched ``lstsq`` solved."""
    return [call.args[0].shape[0] - 1 for call in lstsq.call_args_list]


def face_solve(problem, idx):
    """The solver's face solve of one program on the face ``idx``."""
    face = np.zeros(problem.linear.size, dtype=bool)
    face[idx] = True
    return qp._face_solve(
        problem.gram[None], problem.linear[None], problem.ridge, np.array([0]), face[None]
    )[0, idx]


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
        assert evaluate(problem, w)[0] == pytest.approx(direct, rel=1e-8)


def test_build_identity_metric_is_least_squares():
    rng = np.random.default_rng(5)
    y = rng.normal(size=8)
    x = rng.normal(size=(8, 3))
    problem = qp.build(y, x, ridge=0.0)
    w = np.array([0.2, 0.5, 0.3])
    assert evaluate(problem, w)[0] == pytest.approx(np.sum((y - x @ w) ** 2), rel=1e-10)


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
        assert evaluate(problem, e)[0] == pytest.approx(expected, rel=1e-10)


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


@given(
    seed=st.integers(0, 2**32 - 1),
    n_obs=st.integers(2, 30),
    n_donors=st.integers(2, 12),
    ridge=st.sampled_from([0.0, 0.3]),
    keep=st.floats(0.1, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_objective_monotone_along_iterations(seed, n_obs, n_donors, ridge, keep):
    problem = random_instance(seed, n_obs=n_obs, n_donors=n_donors, ridge=ridge)
    rng = np.random.default_rng(seed)
    start = rng.dirichlet(np.ones(n_donors)) * (rng.random(n_donors) < keep)
    start[rng.integers(n_donors)] += 1.0  # never the zero vector
    trace: list = []
    sol = qp.solve(problem, init=start / start.sum(), trace=trace)
    # The starting objective and the certified one at the least, one value
    # per point the run moved to in between.
    assert len(trace) >= 2
    assert trace[-1] == sol.objective
    diffs = np.diff(np.array(trace))
    assert np.all(diffs <= 1e-12 * (1.0 + np.abs(trace[:-1])))


@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 8),
    n_donors=st.integers(2, 12),
    ridge=st.sampled_from([0.0, 0.3]),
    duplicate=st.booleans(),
    singular=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_mixed_stacks_match_each_program_alone(
    seed, count, n_donors, ridge, duplicate, singular
):
    # Every program of a stack runs its own course: it is certified and
    # lands where it lands alone, whatever else the stack holds.  A face
    # singular in floating point (identical donors at a level where the
    # ridge is below the gram's rounding) makes LAPACK reject the whole
    # batch, which least squares then solves without disturbing the rest.
    rng = np.random.default_rng(seed)
    programs = []
    for _ in range(count):
        x = rng.normal(size=(n_donors + 3, n_donors)).cumsum(axis=0)
        if duplicate:
            x[:, -1] = x[:, 0]
        y = x @ rng.dirichlet(np.full(n_donors, 0.5)) + rng.normal(size=n_donors + 3)
        programs.append(qp.build(y, x, ridge))
    if singular:
        programs[rng.integers(count)] = qp.SimplexQP(
            gram=np.full((n_donors, n_donors), 1e20), linear=np.full(n_donors, -1e20),
            offset=1e20, ridge=ridge,
        )
    stack = qp.SimplexQP(
        gram=np.stack([p.gram for p in programs]),
        linear=np.stack([p.linear for p in programs]),
        offset=np.array([p.offset for p in programs]),
        ridge=ridge,
    )
    stacked = qp.solve(stack)
    for g, problem in enumerate(programs):
        alone = qp.solve(problem)
        np.testing.assert_allclose(stacked.weights[g], alone.weights, rtol=0.0, atol=1e-10)
        grad = evaluate(problem, stacked.weights[g])[1]
        assert stacked.kkt_residual[g] <= 1e-10 * (1.0 + np.linalg.norm(grad) / problem.scale)


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
        root = np.sqrt(spectral.path_gains(basis, (rho,))[1][0])
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
    root = np.sqrt(spectral.path_gains(basis, (rho,))[1][0])
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
        w = face_solve(problem, idx)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(
            w, svd_face_solve(problem, idx), rtol=0.0,
            atol=1e-9 * (1.0 + np.max(np.abs(w))),
        )


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e8])
def test_zero_ridge_face_solve_matches_svd_oracle(scale):
    # lstsq's minimum-norm solution of the bordered system, including on a
    # face flat along a duplicated donor, is the oracle's point.
    rng = np.random.default_rng(7)
    x = np.cumsum(rng.normal(size=(30, 12)), axis=0)
    x[:, 11] = x[:, 3]
    y = x @ rng.dirichlet(np.ones(12)) + rng.normal(size=30)
    problem = qp.build(scale * y, scale * x, ridge=0.0)
    for idx in (np.array([2]), np.array([0, 4, 7, 9]), np.arange(12)):
        w = face_solve(problem, idx)
        assert w.sum() == pytest.approx(1.0, abs=1e-10)
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
        raise AssertionError("an SVD solver called on a ridge > 0 program")

    programs = [random_instance(s, n_obs=30, n_donors=10, ridge=0.2) for s in range(6)]
    programs += [spectral_program(s, rho) for s in range(3) for rho in (0.0, 0.5, 1.0)]
    # lstsq is LAPACK's SVD-based least-squares driver (gelsd).
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    monkeypatch.setattr(np.linalg, "lstsq", no_svd)
    for problem in programs:
        cold = qp.solve(problem)
        qp.solve(problem, init=np.roll(cold.weights, 1))
        # An unreachable tolerance also runs the ratio steps until the run
        # stalls.
        with monkeypatch.context() as patch, contextlib.suppress(qp.SolverStall):
            patch.setattr(qp, "TOL", 0.0)
            qp.solve(problem)


def test_numerically_singular_ridge_face_falls_back_to_lstsq(monkeypatch):
    # Identical donors at a level where the ridge is below the gram's
    # rounding: the restricted Hessian is exactly singular in floating
    # point, and the ridge still decides the optimum (uniform weights).
    problem = qp.SimplexQP(gram=np.full((3, 3), 1e20), linear=np.full(3, -1e20),
                           offset=1e20, ridge=1.0)
    hessian = 2.0 * (problem.gram + problem.ridge * np.eye(3))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(hessian, np.ones(3))
    real_lstsq, lstsq_calls = np.linalg.lstsq, []

    def counting_lstsq(*args, **kwargs):
        lstsq_calls.append(1)
        return real_lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
    np.testing.assert_allclose(
        face_solve(problem, np.arange(3)), np.full(3, 1.0 / 3.0), atol=1e-12
    )
    assert lstsq_calls
    sol = qp.solve(problem)
    np.testing.assert_allclose(sol.weights, np.full(3, 1.0 / 3.0), atol=1e-12)


@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 12),
    extra=st.integers(3, 20),
    k=st.sampled_from([-8, -4, 0, 4, 8]),
)
@settings(max_examples=40, deadline=None)
def test_definite_zero_ridge_faces_match_svd_oracle(seed, size, extra, k):
    # A face whose gram is definite is solved by LU, without least
    # squares, at the oracle's point, whatever the data's units.
    rng = np.random.default_rng(seed)
    n_donors = size + 4
    x = rng.normal(size=(size + extra, n_donors))
    y = x @ rng.dirichlet(np.ones(n_donors)) + rng.normal(size=size + extra)
    problem = qp.build(10.0**k * y, 10.0**k * x, ridge=0.0)
    idx = np.sort(rng.choice(n_donors, size=size, replace=False))
    with counting_lstsq() as lstsq:
        w = face_solve(problem, idx)
    assert lstsq.call_count == 0
    np.testing.assert_allclose(
        w, svd_face_solve(problem, idx), rtol=0.0, atol=1e-9 * (1.0 + np.max(np.abs(w)))
    )


def test_flat_zero_ridge_faces_fall_back_to_lstsq():
    # Flat faces: one holding a duplicated donor, and one of an SDID
    # time-weight program (100 periods weighted over 50 donors, so its
    # gram has rank 49) wider than that rank.  Least squares solves each,
    # at the minimum-norm point.
    rng = np.random.default_rng(7)
    x = np.cumsum(rng.normal(size=(30, 12)), axis=0)
    x[:, 11] = x[:, 3]
    duplicated = qp.build(x @ rng.dirichlet(np.ones(12)) + rng.normal(size=30), x, 0.0)
    levels = 10.0 + rng.normal(size=(110, 50))
    target, pre = levels[100:].mean(axis=0), levels[:100].T
    sdid = qp.build(target - target.mean(), pre - pre.mean(axis=0), 0.0)
    for problem, idx in ((duplicated, np.array([0, 3, 5, 11])),
                         (sdid, np.arange(0, 100, 2))):
        with counting_lstsq() as lstsq:
            w = face_solve(problem, idx)
        assert lstsq_faces(lstsq) == [idx.size]
        np.testing.assert_allclose(
            w, svd_face_solve(problem, idx), rtol=0.0,
            atol=1e-9 * (1.0 + np.max(np.abs(w))),
        )


def test_cold_start_is_the_best_vertex():
    # Without a start, a program starts at its vertex of least objective:
    # here donor 2 reproduces the target, and the run certifies that vertex
    # with one face solve.
    v1 = np.array([1.0, -1.0, 0.0, 0.0, 0.0, 0.0])
    v2 = np.array([0.0, 0.0, 1.0, -1.0, 0.0, 0.0])
    v3 = np.array([1.0, 1.0, 1.0, 1.0, 2.0, 2.0])
    trace: list = []
    sol = qp.solve(qp.build(v3, np.stack([v1, v2, v3], axis=1), 0.0), trace=trace)
    assert trace[0] == 0.0
    assert sol.face_solves == 1
    np.testing.assert_array_equal(sol.weights, [0.0, 0.0, 1.0])


def flat_views(n_donors):
    """Panels whose zero-ridge weight programs are flat: every series a
    straight line (an exact fit by the trend design), every series constant
    (an exact fit by the intercept), and every donor one series."""
    rng = np.random.default_rng(n_donors)
    t = np.arange(25.0)
    lines = rng.normal(size=n_donors) + np.outer(t, rng.normal(size=n_donors))
    constants = np.tile(rng.normal(size=n_donors), (25, 1))
    walk = np.cumsum(rng.normal(size=25))
    duplicated = np.column_stack([walk] * n_donors)
    for y, x in ((2.0 + 0.3 * t, lines), (np.full(25, 4.0), constants),
                 (walk + rng.normal(size=25), duplicated)):
        yield PrePostView(y_pre=y[:20], x_pre=x[:20], y_post=y[20:], x_post=x[20:])


@pytest.mark.parametrize("n_donors", [3, 5, 10])
def test_flat_programs_keep_the_uniform_start(n_donors):
    # A program whose vertex values all tie starts, and ends, at the
    # uniform point: the zero program that residualizing an exactly
    # explained series leaves, and the baselines on exact-fit and
    # duplicated-donor panels.  Least squares' rounding is all that
    # separates them from it.
    zero = qp.build(np.zeros(12), np.zeros((12, n_donors)), 0.0)
    uniform = np.full(n_donors, 1.0 / n_donors)
    weights = [qp.solve(zero).weights]
    np.testing.assert_array_equal(weights[0], qp.solve(zero, init=uniform).weights)
    lines, constants, duplicated = flat_views(n_donors)
    weights += [baselines.fit("sc_int_trend", lines).weights,
                baselines.fit("sc_int", constants).weights]
    weights += [baselines.fit(m, duplicated).weights
                for m in ("sc", "sc_int", "diff_sc", "sdid")]
    for w in weights:
        np.testing.assert_allclose(w, uniform, rtol=0.0, atol=1e-15)
    time_weights = baselines.fit_sdid(constants, ridge_policy=0.0).aux["time_weights"]
    np.testing.assert_allclose(time_weights, 1.0 / 20, rtol=0.0, atol=1e-15)


def test_zero_ridge_baselines_use_lstsq_only_on_flat_faces(monkeypatch):
    # One grid-study panel (50 donors, 100 pre-periods): sc_int's faces are
    # all definite, and the SDID time weights (100 periods over 50 donors,
    # a gram of rank 49) reach least squares only on faces wider than that.
    # From the uniform start, with least squares on every face, they took
    # 8 and 9 face solves here; the best-vertex start costs the time
    # weights one backoff solve on this panel, though it saves 3.2 on the
    # mean of 40 such panels (10.2 -> 7.0).
    cfg = mc.GridDgpConfig(kappa=2.0, rho_u=0.5, master_seed=1001, t0=100, t_post=10, n0=50)
    view = mc.simulate_grid(cfg, 1)[1].to_view()
    real_solve, runs = qp.solve, []

    def recording_solve(problem, *args, **kwargs):
        with counting_lstsq() as lstsq:
            solution = real_solve(problem, *args, **kwargs)
        runs.append((problem.gram.shape[-1], problem.ridge, solution.face_solves,
                     lstsq_faces(lstsq)))
        return solution

    monkeypatch.setattr(qp, "solve", recording_solve)
    baselines.fit("sc_int", view)
    baselines.fit("sdid", view)
    sc_int, _, time_weights = runs
    assert sc_int[:2] == (50, 0.0) and sc_int[3] == [] and sc_int[2] <= 8
    assert time_weights[:2] == (100, 0.0) and time_weights[2] <= 10
    assert all(size > 49 for size in time_weights[3])


@pytest.mark.parametrize(
    "kappa, master_seed, rep", [(0.0, 1, 6), (0.0, 1, 55), (0.0, 1, 98), (2.0, 3, 71)]
)
def test_backoff_stalls_finish_in_a_few_ratio_steps(kappa, master_seed, rep):
    # Plain synthetic control on grid-study panels where block backoff lands
    # on worse faces and no polished point lowers the objective: the
    # projected-gradient loop that used to take over spent 20-40 steps on
    # each; ratio steps certify them in at most three.
    cfg = mc.GridDgpConfig(kappa=kappa, rho_u=0.0, master_seed=master_seed)
    view = mc.simulate_grid(cfg, rep)[1].to_view()
    sol = baselines.fit("sc", view).solution
    grad = evaluate(qp.build(view.y_pre, view.x_pre, 0.0), sol.weights)[1]
    assert sol.kkt_residual <= 1e-10 * (1.0 + np.linalg.norm(grad))
    assert 1 <= sol.iterations <= 3


def test_blocked_ratio_step_moves_on_the_support_face(monkeypatch):
    # From this start no polished face lowers the objective, and the
    # entering coordinate's weight on the enlarged face is negative: the
    # step toward that face is blocked at alpha = 0.  The start is not yet
    # optimal on its own face, so the step is taken there instead.
    problem = random_instance(1331, n_obs=9, n_donors=9, ridge=0.3)
    start = np.array([0.0, 0.12, 0.0, 0.0, 0.07, 0.14, 0.0, 0.07, 0.6])
    real_step, faces = qp._ratio_step, []

    def recording_step(*args):
        step = real_step(*args)
        faces.append((np.nonzero(args[-1])[0].tolist(), step is None))
        return step

    monkeypatch.setattr(qp, "_ratio_step", recording_step)
    sol = qp.solve(problem, init=start / start.sum())
    assert faces[:2] == [([0, 1, 4, 5, 7, 8], True), ([1, 4, 5, 7, 8], False)]
    assert sol.iterations >= 1
    np.testing.assert_allclose(sol.weights, qp.solve(problem).weights, atol=1e-10)


def test_near_duplicate_donors_certify_at_zero_ridge():
    # Donors 0 and 1 differ by 1e-7 relative: their face is flat to
    # rounding, its minimum-norm point leaves their gradients apart, and
    # only the step toward the face without the steeper one lowers the
    # objective.
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = 10.0 + np.cumsum(rng.normal(size=(30, 6)), axis=0)
        x[:, 1] = x[:, 0] * (1.0 + 1e-7 * rng.normal(size=30))
        y = x @ rng.dirichlet(np.ones(6)) + 0.3 * rng.normal(size=30)
        sol = qp.solve(qp.build(y, x, 0.0))
        assert sol.kkt_residual <= 1e-9


def test_solve_rejects_a_start_off_the_simplex():
    # A start is a previous solution; one off the simplex is a caller's bug.
    problem = random_instance(9, n_donors=4)
    past_tolerance = np.full(4, 0.25)
    past_tolerance[0] += 1e-11
    for start in (
        np.full(3, 1.0 / 3.0),
        np.array([0.5, 0.6, -0.1, 0.0]),
        past_tolerance,
        np.array([np.nan, 0.5, 0.5, 0.0]),
    ):
        with pytest.raises(ValueError, match="init must be a point of the 4-weight"):
            qp.solve(problem, init=start)


def test_dust_weights_of_a_start_are_inactive():
    # A start with weights far below 1e-12: a ratio step blocked by one
    # would move by less than the objective's rounding, so the start's dust
    # is zeroed, as in every point the run moves to.
    rng = np.random.default_rng(35)
    c = rng.normal(size=(40, 40))
    x = np.cumsum(rng.normal(size=(40, 9)), axis=0)
    problem = qp.build(c @ (30.0 * rng.normal(size=40)), c @ x, 50.0)
    start = rng.dirichlet(np.full(9, 0.05))
    assert 0.0 < start.min() < 1e-12
    sol = qp.solve(problem, init=start)
    np.testing.assert_allclose(sol.weights, qp.solve(problem).weights, atol=1e-10)


@pytest.mark.parametrize("ridge", [0.0, 0.4])
def test_solve_is_scale_equivariant(ridge):
    rng = np.random.default_rng(17)
    x = 10.0 + np.cumsum(rng.normal(size=(40, 15)), axis=0)
    y = x @ rng.dirichlet(np.ones(15)) + rng.normal(size=40)
    base = qp.solve(qp.build(y, x, ridge))
    for scale in (1e-8, 1e-4, 1e2, 1e4, 1e8):
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
    sol = qp.solve(problem)
    grad = evaluate(problem, sol.weights)[1]
    active = sol.weights > 0
    nu = grad[active].mean()
    resid = np.max(np.abs(grad[active] - nu))
    if not active.all():
        resid = max(resid, np.max(np.clip(nu - grad[~active], 0.0, None)))
    assert resid <= 1e-10 * (1.0 + np.linalg.norm(grad)) + 1e-15


def test_stall_raises_with_best_iterate(monkeypatch):
    # A zero tolerance is out of reach for any polish, so the run ends in
    # a ratio step that cannot lower the objective.
    problem = random_instance(71, n_obs=40, n_donors=10)
    monkeypatch.setattr(qp, "TOL", 0.0)
    with pytest.raises(qp.SolverStall) as excinfo:
        qp.solve(problem)
    best = excinfo.value.solution
    assert best.weights.min() >= 0.0
    assert best.weights.sum() == pytest.approx(1.0, abs=1e-10)
    assert best.objective == pytest.approx(evaluate(problem, best.weights)[0], rel=1e-12)
    assert np.isfinite(best.objective)
    assert np.isfinite(best.kkt_residual)


def test_stall_in_a_stack_attaches_every_program(monkeypatch):
    # An unreachable tolerance stalls every program of a stack; the stall
    # names one and carries each program's best point, on the simplex.
    programs = [random_instance(71 + s, n_obs=40, n_donors=10) for s in range(3)]
    stack = qp.SimplexQP(
        gram=np.stack([p.gram for p in programs]),
        linear=np.stack([p.linear for p in programs]),
        offset=np.array([p.offset for p in programs]),
        ridge=0.0,
    )
    with pytest.raises(ValueError, match="init must be a point of the 10-weight"):
        qp.solve(stack, init=np.full(10, 0.1))  # one start for three programs
    monkeypatch.setattr(qp, "TOL", 0.0)
    with pytest.raises(qp.SolverStall, match="in program 0 of 3") as excinfo:
        qp.solve(stack)
    best = excinfo.value.solution
    assert best.weights.shape == (3, 10)
    np.testing.assert_allclose(best.weights.sum(axis=1), 1.0, atol=1e-10)
    np.testing.assert_allclose(best.objective, evaluate(stack, best.weights)[0], rtol=1e-12)
    assert np.all(np.isfinite(best.kkt_residual))
    assert isinstance(best.iterations, int)


def test_opening_polish_finishes_the_run():
    problem = random_instance(71, n_obs=40, n_donors=10)
    sol = qp.solve(problem)
    assert sol.iterations == 0
    grad = evaluate(problem, sol.weights)[1]
    assert sol.kkt_residual <= 1e-10 * (1.0 + np.linalg.norm(grad))


def test_degenerate_flat_objective_terminates():
    # Zero gram and linear term: every simplex point is optimal.
    flat = qp.SimplexQP(gram=np.zeros((4, 4)), linear=np.zeros(4),
                        offset=2.0, ridge=0.0)
    sol = qp.solve(flat)
    assert sol.objective == pytest.approx(2.0)
    assert sol.weights.sum() == pytest.approx(1.0, abs=1e-10)
