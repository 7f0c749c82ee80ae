"""Simplex-constrained ridge quadratic programs.

Every weight vector in this package — the estimator's donor weights, oracle
weights on latent structure, and the level-matching baselines — solves

    min_{w in simplex}  ||y - X w||^2 + ridge * ||w||^2

once its metric has been absorbed into ``y`` and ``X`` (the estimator
rescales their eigen-coordinates, the baselines residualize them).
:func:`build` reduces that to coefficient form (gram, linear, offset), the
one place a weight program is assembled.

:func:`solve` is polish-first: a primal active-set method in the manner of
Lawson & Hanson (1974, *Solving Least Squares Problems*, ch. 23).  Each
round solves the KKT system on the current face, and on that face enlarged
by the coordinates whose gradient undercuts the support multiplier; a face
solution with negative weights drops those coordinates and is solved
again.  An improved point that is not yet stationary starts the next
round, so a good starting point (such as the solution at a neighbouring
rho) finishes the run in a face solve or two, and even the uniform start
usually does.  With ``ridge > 0`` (every estimator program and the SDID
unit weights) the restricted Hessian is positive definite and a face costs
one LAPACK solve; only ``ridge == 0`` programs, whose faces can be flat,
pay for an SVD pseudo-inverse.  Should the rounds end short of a certified
point, an accelerated projected-gradient method with exact sort-based
simplex projection and a monotonicity safeguard takes over, and repeats
the polish every 20 iterations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SolverStall(RuntimeError):
    """Iteration budget exhausted before reaching tolerance.

    The best iterate found is attached as ``solution`` so callers can
    inspect how close the run got.
    """

    def __init__(self, message: str, solution: "QPSolution"):
        super().__init__(message)
        self.solution = solution


@dataclass(frozen=True)
class SimplexQP:
    """Coefficients of ``w' gram w + 2 linear' w + offset + ridge ||w||^2``.

    ``gram`` excludes the ridge term; ``offset`` makes the objective equal
    the original residual norm, so values are directly comparable across
    candidate designs.
    """

    gram: np.ndarray
    linear: np.ndarray
    offset: float
    ridge: float

    def __post_init__(self) -> None:
        g = np.asarray(self.gram, dtype=float)
        l = np.asarray(self.linear, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError(f"gram must be square, got shape {g.shape}")
        if l.shape != (g.shape[0],):
            raise ValueError(
                f"linear length {l.shape} does not match gram size {g.shape[0]}"
            )
        for name, value in (("gram", g), ("linear", l), ("offset", self.offset)):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite")
        scale = max(float(np.max(np.abs(g))), 1.0)
        asym = float(np.max(np.abs(g - g.T)))
        if asym > 1e-10 * scale:
            raise ValueError(f"gram asymmetry {asym:.3e} exceeds tolerance")
        if not np.isfinite(self.ridge) or self.ridge < 0:
            raise ValueError(f"ridge must be finite and nonnegative, got {self.ridge}")
        object.__setattr__(self, "gram", (g + g.T) / 2.0)
        object.__setattr__(self, "linear", l)

    @property
    def n(self) -> int:
        return self.gram.shape[0]

    def eval(self, w: np.ndarray) -> float:
        """Objective value at ``w`` (no feasibility check)."""
        w = np.asarray(w, dtype=float)
        return float(
            w @ self.gram @ w
            + 2.0 * self.linear @ w
            + self.offset
            + self.ridge * w @ w
        )

    def gradient(self, w: np.ndarray) -> np.ndarray:
        return 2.0 * (self.gram @ w + self.ridge * w + self.linear)


@dataclass(frozen=True)
class QPSolution:
    """Solver output: simplex weights plus convergence diagnostics.

    ``iterations`` counts projected-gradient steps (0 when the opening
    polish finished the run) and ``face_solves`` the linear solves of the
    active-set polish, backoff rounds included.
    """

    weights: np.ndarray
    objective: float
    iterations: int
    face_solves: int
    kkt_residual: float


def build(y: np.ndarray, x: np.ndarray, ridge: float) -> SimplexQP:
    """Assemble the QP for ``||y - x w||^2 + ridge ||w||^2``."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if y.ndim != 1 or x.ndim != 2:
        raise ValueError("y must be a vector and x a matrix")
    if x.shape[0] != y.shape[0]:
        raise ValueError(
            f"x has {x.shape[0]} rows but y has length {y.shape[0]}"
        )
    gram = x.T @ x
    return SimplexQP(
        gram=(gram + gram.T) / 2.0,
        linear=-(x.T @ y),
        offset=float(y @ y),
        ridge=float(ridge),
    )


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    cumulative = np.cumsum(u) - 1.0
    counts = np.arange(1, v.size + 1)
    support = np.nonzero(u * counts > cumulative)[0][-1]
    tau = cumulative[support] / (support + 1.0)
    return np.maximum(v - tau, 0.0)


def _lipschitz(gram: np.ndarray, ridge: float) -> float:
    """Upper estimate of the gradient Lipschitz constant 2*lam_max(gram)+2*ridge."""
    n = gram.shape[0]
    # Deterministic ramp start; never orthogonal to the top eigenvector in
    # practice, and keeps repeated solves bit-identical.
    v = 1.0 + np.linspace(0.0, 1.0, n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(200):
        w = gram @ v
        norm = float(np.linalg.norm(w))
        if norm <= 1e-300:
            lam = 0.0
            break
        v = w / norm
        if abs(norm - lam) <= 1e-9 * max(norm, 1.0):
            lam = norm
            break
        lam = norm
    lip = 2.0 * (1.01 * lam + ridge)
    return lip if lip > 0.0 else 1.0


def _kkt_residual(w: np.ndarray, grad: np.ndarray) -> float:
    """Distance from simplex stationarity.

    On the support the gradient must be a common constant (the multiplier);
    off the support it must not undercut that constant.
    """
    active = w > 0.0
    if not np.any(active):
        return float(np.inf)
    nu = float(np.mean(grad[active]))
    res = float(np.max(np.abs(grad[active] - nu)))
    if not np.all(active):
        res = max(res, float(np.max(nu - grad[~active])), 0.0)
    return res


def _face_solve(qp: SimplexQP, idx: np.ndarray) -> np.ndarray:
    """Stationary point of the QP on the face ``{w_idx sums to 1}``.

    Solves ``H w + nu 1 = -2 linear_S``, ``1'w = 1`` with
    ``H = 2 (gram_SS + ridge I)``.  For ``ridge > 0`` ``H`` is positive
    definite and one LAPACK solve with two right-hand sides gives
    ``H^-1 (-2 linear_S)`` and ``H^-1 1``; the sum constraint then fixes
    the multiplier (a Schur complement of one entry).  For ``ridge == 0``
    the restricted gram may be singular on a flat face, so the bordered
    system is solved by SVD pseudo-inverse, which picks the face's
    minimum-norm point; its border is scaled to the size of ``H`` so the
    pseudo-inverse cutoff cannot drop the border's singular value.
    """
    m = idx.size
    h = 2.0 * qp.gram[np.ix_(idx, idx)]
    if qp.ridge > 0.0:
        h[np.diag_indices(m)] += 2.0 * qp.ridge
        rhs = np.empty((m, 2))
        rhs[:, 0] = -2.0 * qp.linear[idx]
        rhs[:, 1] = 1.0
        w0, v = np.linalg.solve(h, rhs).T
        return w0 - ((w0.sum() - 1.0) / v.sum()) * v
    c = max(1.0, float(np.max(np.abs(h))))
    kkt = np.zeros((m + 1, m + 1))
    kkt[:m, :m] = h
    kkt[:m, m] = kkt[m, :m] = c
    rhs = np.concatenate([-2.0 * qp.linear[idx], [c]])
    u, s, vt = np.linalg.svd(kkt)
    keep = s > np.finfo(float).eps * (m + 1) * s[0]
    u, vt, s_inv = u[:, keep], vt[keep], 1.0 / s[keep]

    def pinv_solve(b: np.ndarray) -> np.ndarray:
        return vt.T @ (s_inv * (u.T @ b))

    sol = pinv_solve(rhs)
    # Iterative refinement with the residual accumulated in extended
    # precision: the plain pseudo-inverse solve leaves the support gradient
    # dispersed by eps * cond(H) * ||H||, more than the stationarity test
    # tolerates on large-scale instances.
    kkt_l = kkt.astype(np.longdouble)
    rhs_l = rhs.astype(np.longdouble)
    for _ in range(2):
        if not np.all(np.isfinite(sol)):
            break
        resid = rhs_l - kkt_l @ sol.astype(np.longdouble)
        corr = pinv_solve(resid.astype(np.float64))
        if not np.all(np.isfinite(corr)) or not np.any(corr):
            break
        sol = sol + corr
    return sol[:m]


def _polish(qp: SimplexQP, support: np.ndarray) -> tuple[np.ndarray | None, int]:
    """Minimize the QP on the face spanned by ``support``, with backoff.

    Returns a full-length weight vector (None when no feasible face is
    found) and the number of face solves spent.  When the face solution
    has negative weights, those coordinates are dropped and the smaller
    face solved again, so a too-large trial shrinks to a feasible face
    instead of being rejected outright; every round drops a coordinate, so
    at most ``support.sum()`` solves are spent.  The caller's exact
    stationarity check decides whether the candidate is accepted, so an
    inconsistent system merely yields a rejected candidate.
    """
    idx = np.nonzero(support)[0]
    solves = 0
    while idx.size:
        solves += 1
        try:
            w_s = _face_solve(qp, idx)
        except np.linalg.LinAlgError:
            return None, solves
        if not np.all(np.isfinite(w_s)):
            return None, solves
        negative = w_s < -1e-12
        if np.any(negative):
            idx = idx[~negative]
            continue
        # Dust-level coordinates are truly inactive; reporting them as
        # positive would misclassify them in the stationarity check.
        w_s[w_s < 1e-12] = 0.0
        w = np.zeros(qp.n)
        w[idx] = w_s
        total = w.sum()
        if not np.isfinite(total) or abs(total - 1.0) > 1e-8:
            return None, solves
        return w / total, solves
    return None, solves


def _finish(
    w: np.ndarray, objective: float, iterations: int, face_solves: int, kkt: float
) -> QPSolution:
    w = w.copy()
    w[w < 1e-12] = 0.0
    total = w.sum()
    if total <= 0.0:
        raise AssertionError("all weights clamped to zero")
    return QPSolution(
        weights=w / total,
        objective=objective,
        iterations=iterations,
        face_solves=face_solves,
        kkt_residual=kkt,
    )


def solve(
    qp: SimplexQP,
    tol: float = 1e-10,
    max_iter: int = 100000,
    init: np.ndarray | None = None,
    trace: list | None = None,
) -> QPSolution:
    """Minimize the QP over the simplex.

    The run opens with the active-set polish of the starting point.  Each
    round solves, with backoff, the face of the current support and, when
    some zero coordinate's gradient undercuts the support multiplier, the
    face enlarged by those coordinates.  A polished point is accepted when
    it does not raise the objective beyond rounding noise and meets the
    stationarity target; the run then ends with ``iterations == 0``
    ("finished by the opening polish").  A polished point that lowers the
    objective without meeting the target becomes the current point, and
    the next round rebuilds the support and the entering set from it.  The
    rounds stop at a certified point, at a round that does not lower the
    objective, or after ``n`` rounds.  Only then does accelerated
    projected gradient take over, with a monotone safeguard: whenever the
    accelerated step would increase the objective, momentum restarts and a
    plain projected-gradient step (with step-size backtracking) is taken
    instead, so the objective sequence is nonincreasing by construction.
    Its step size comes from a power-iteration estimate of the Lipschitz
    constant, computed only once the loop starts.  Every 20 iterations the
    same polish is repeated, which typically terminates the run exactly.

    Parameters
    ----------
    tol : float
        Stationarity target; the run stops when the KKT residual drops
        below ``tol * (1 + ||gradient||)``.
    max_iter : int
        Iteration budget; exceeding it raises :class:`SolverStall` with the
        best iterate attached.
    init : ndarray, optional
        Starting point, projected onto the simplex unless it already lies
        on it (to within 1e-12 in the sum); defaults to the uniform
        vector.  The solution of a nearby program makes the opening polish
        land on the optimal face directly.
    trace : list, optional
        If given, the starting objective is appended, then one value per
        iteration, then the polished value when a polish ends the run.
    """
    n = qp.n
    if init is None:
        x = np.full(n, 1.0 / n)
    else:
        x = np.array(init, dtype=float)
        # A point already on the simplex is kept as given: projecting it
        # anew can lift its zero coordinates to rounding dust, and the
        # opening polish would then start from the full support.
        if not (np.all(x >= 0.0) and abs(x.sum() - 1.0) <= 1e-12):
            x = project_simplex(x)
    # The objective is evaluated by cancelling terms of this magnitude, so
    # differences below ``noise`` are indistinguishable from rounding; the
    # KKT residual, not the objective, discriminates near the optimum.
    obj_scale = (
        abs(qp.offset)
        + float(np.max(np.abs(qp.gram)))
        + 2.0 * float(np.max(np.abs(qp.linear)))
        + qp.ridge
    )
    noise = 1e-13 * (1.0 + obj_scale)

    f_x = qp.eval(x)
    grad_x = qp.gradient(x)
    if trace is not None:
        trace.append(f_x)
    best_w, best_f, best_kkt = x, f_x, np.inf
    y, t_mom = x, 1.0
    it = face_solves = 0
    while True:
        if it % 20 == 0:
            # At it == 0 this is the opening polish.  Each round tries the
            # current face and the face the gradient points at: a zero
            # coordinate undercutting the support multiplier may be optimal
            # at a weight far below what projected steps can build up, and
            # only the direct solve places it exactly.  An improved but
            # uncertified point starts the next round; every adopted point
            # lowers the objective, so no face is visited twice.
            on_face_optimum = False
            for _ in range(n):
                support = x > 0.0
                nu = float(np.mean(grad_x[support]))
                entering = ~support & (grad_x < nu)
                trials = [] if on_face_optimum else [support]
                if np.any(entering):
                    trials.append(support | entering)
                for trial in trials:
                    polished, solves = _polish(qp, trial)
                    face_solves += solves
                    if polished is None:
                        continue
                    f_p = qp.eval(polished)
                    if f_p > f_x + noise:
                        continue
                    grad_p = qp.gradient(polished)
                    kkt_p = _kkt_residual(polished, grad_p)
                    if kkt_p <= tol * (1.0 + float(np.linalg.norm(grad_p))):
                        if trace is not None:
                            trace.append(f_p)
                        return _finish(polished, f_p, it, face_solves, kkt_p)
                    if f_p < f_x:
                        x, f_x, grad_x = polished, f_p, grad_p
                        y, t_mom = x, 1.0
                        if f_x < best_f:
                            best_w, best_f, best_kkt = x, f_x, kkt_p
                        on_face_optimum = True
                        break
                else:
                    break  # no trial lowered the objective
        if it == max_iter:
            break
        if it == 0:
            lip = _lipschitz(qp.gram, qp.ridge)
        it += 1

        grad_y = qp.gradient(y)
        x_new = project_simplex(y - grad_y / lip)
        f_new = qp.eval(x_new)

        if f_new > f_x:
            # Momentum overshoot: restart and take a guarded plain step.
            grad_x = qp.gradient(x)
            for _ in range(60):
                x_new = project_simplex(x - grad_x / lip)
                f_new = qp.eval(x_new)
                if f_new <= f_x + noise:
                    break
                # A genuine overshoot means the step was too long; a
                # noise-level uptick must not inflate the step size.
                lip *= 2.0
            if f_new > f_x:
                x_new, f_new = x, f_x
            y = x_new
            t_mom = 1.0
        else:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom * t_mom))
            y = x_new + ((t_mom - 1.0) / t_next) * (x_new - x)
            t_mom = t_next

        x, f_x = x_new, f_new
        if trace is not None:
            trace.append(f_x)

        grad_x = qp.gradient(x)
        kkt = _kkt_residual(x, grad_x)
        if f_x < best_f or (f_x == best_f and kkt < best_kkt):
            best_w, best_f, best_kkt = x, f_x, kkt
        if kkt <= tol * (1.0 + float(np.linalg.norm(grad_x))):
            return _finish(x, f_x, it, face_solves, kkt)

    stalled = _finish(best_w, best_f, max_iter, face_solves, best_kkt)
    raise SolverStall(
        f"no convergence in {max_iter} iterations "
        f"(kkt residual {best_kkt:.3e}, tol {tol:.1e})",
        stalled,
    )
