"""Simplex-constrained ridge quadratic programs, solved a stack at a time.

Every weight vector in this package — the estimator's donor weights, oracle
weights on latent structure, and the level-matching baselines — solves

    min_{w in simplex}  ||y - X w||^2 + ridge * ||w||^2

once its metric has been absorbed into ``y`` and ``X`` (the estimator
rescales their eigen-coordinates, the baselines residualize them).
:func:`build` reduces that to coefficient form (gram, linear, offset) for
the baselines; ``hsc.fit_path`` assembles a whole rho grid as one stack of
programs of that form.

:func:`solve` runs one primal active-set method, after Lawson & Hanson
(1974, *Solving Least Squares Problems*, ch. 23), on every program of a
stack in lockstep.  Each round solves the KKT systems of all running
programs, each on its current face, in one batched LAPACK call; a face
solution with negative weights drops them and is solved again (backoff).
A good start (the previous fold's weights at the same rho) finishes most
programs in a round; a program given none starts at its best vertex, as
Lawson & Hanson start from the empty active set.  With ``ridge > 0`` every
face is positive definite; ``ridge == 0`` faces are solved one at a time,
packed to their support, by LU when a Cholesky factorization finds them
definite and by least squares when they are flat.  A program whose round
lowers nothing takes the ratio step of Lawson & Hanson's inner loop, alone,
so every round lowers its objective or ends its run.

Every tolerance, and the reported KKT residual, is relative to
:attr:`SimplexQP.scale`, so data in other units solve alike (Gill, Murray &
Wright, 1981, *Practical Optimization*, treat scaling as part of the
problem).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


#: The stationarity target of :func:`solve`, relative to each program's scale.
#: A test seam, read at call time: the stall tests set it to 0.
TOL = 1e-10


class SolverStall(RuntimeError):
    """The active-set rounds ended short of a certified point.

    The best iterate found is attached as ``solution`` so callers can
    inspect how close the run got.
    """

    def __init__(self, message: str, solution: "QPSolution"):
        super().__init__(message)
        self.solution = solution


@dataclass(frozen=True)
class SimplexQP:
    """Coefficients of ``w' gram w + 2 linear' w + offset + ridge ||w||^2``.

    One program has ``gram`` (n, n), ``linear`` (n,) and a scalar
    ``offset``; a stack of G programs sharing ``ridge`` has (G, n, n),
    (G, n) and (G,), checked once, as a whole.  ``gram`` excludes the ridge
    term; ``offset`` makes the objective equal the original residual norm,
    so values are directly comparable across candidate designs.  ``scale``,
    per program the largest of ``|offset|``, ``max|gram|``,
    ``2 max|linear|`` and ``ridge`` (1 if all are 0), is the magnitude of
    the terms the objective sums.
    """

    gram: np.ndarray
    linear: np.ndarray
    offset: float | np.ndarray
    ridge: float
    scale: float | np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        g = np.asarray(self.gram, dtype=float)
        l = np.asarray(self.linear, dtype=float)
        o = np.asarray(self.offset, dtype=float)
        if g.ndim not in (2, 3) or g.shape[-1] != g.shape[-2]:
            raise ValueError(f"gram must be square, got shape {g.shape}")
        if l.shape != g.shape[:-1] or o.shape != g.shape[:-2]:
            raise ValueError(
                f"linear length {l.shape} and offset shape {o.shape} do not "
                f"match gram shape {g.shape}"
            )
        sizes = {"gram": np.maximum(g.max(axis=(-2, -1)), -g.min(axis=(-2, -1))),
                 "linear": 2.0 * abs(l).max(axis=-1), "offset": abs(o)}
        for name, size in sizes.items():
            if not np.isfinite(size).all():  # NaN and inf reach the max
                raise ValueError(f"{name} must be finite")
        if not np.isfinite(self.ridge) or self.ridge < 0:
            raise ValueError(f"ridge must be finite and nonnegative, got {self.ridge}")
        scale = np.maximum.reduce([*sizes.values(), np.full(o.shape, self.ridge)])
        scale = np.where(scale > 0.0, scale, 1.0)
        if (g != g.swapaxes(-1, -2)).any():  # a syrk product is kept as it is
            asym = abs(g - g.swapaxes(-1, -2)).max(axis=(-2, -1))
            if (asym > 1e-10 * scale).any():
                raise ValueError(f"gram asymmetry {asym.max():.3e} exceeds tolerance")
            g = (g + g.swapaxes(-1, -2)) / 2.0
        object.__setattr__(self, "scale", scale if scale.ndim else float(scale))
        object.__setattr__(self, "gram", g)
        object.__setattr__(self, "linear", l)
        object.__setattr__(self, "offset", o if o.ndim else float(o))


@dataclass(frozen=True)
class QPSolution:
    """Solver output: simplex weights plus convergence diagnostics.

    For one program ``weights`` is a vector and ``objective`` and
    ``kkt_residual`` (the distance from stationarity relative to
    :attr:`SimplexQP.scale`) are floats; a stack adds a leading program
    axis.  ``iterations`` counts ratio steps (0 when the polish rounds
    finished every run) and ``face_solves`` the faces solved, backoff and
    ratio steps included, both summed over the stack.
    """

    weights: np.ndarray
    objective: float | np.ndarray
    iterations: int
    face_solves: int
    kkt_residual: float | np.ndarray


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
    return SimplexQP(
        gram=x.T @ x,
        linear=-(x.T @ y),
        offset=float(y @ y),
        ridge=float(ridge),
    )


def _evaluate(gram, linear, offset, ridge, w):
    """Objective values and gradients at ``w``, from one product ``gram @ w``."""
    half_grad = np.matmul(gram, w[..., None])[..., 0] + ridge * w + linear
    return np.einsum("...i,...i->...", w, half_grad + linear) + offset, 2.0 * half_grad


def _stationarity(x: np.ndarray, grad: np.ndarray, scale):
    """Relative KKT residual of each point, its support and its entering
    coordinates.

    On the support the gradient must be a common constant (the multiplier,
    its mean there); off the support it must not undercut that constant,
    and the coordinates whose gradient does enter.
    """
    support = x > 0.0
    on_support = np.where(support, grad, 0.0).sum(axis=-1, keepdims=True)
    gap = on_support / support.sum(axis=-1, keepdims=True) - grad
    spread = np.where(support, np.abs(gap), gap).max(axis=-1)
    return np.maximum(spread, 0.0) / scale, support, ~support & (gap > 0.0)


def _face_solve(gram, linear, ridge, rows, faces) -> np.ndarray:
    """Stationary points of programs ``rows`` of a stack on ``faces``.

    Row ``b``, zero off ``faces[b]``, solves ``A w + nu 1 = -linear_S``,
    ``1'w = 1`` with ``A = gram_SS + ridge I`` for program ``rows[b]``.
    Every system is posed at full size, the coordinates off its face pinned
    by identity rows and columns with zero right-hand sides (they decouple
    exactly, and partial pivoting never mixes them in), so one LAPACK solve
    with two right-hand sides gives ``A^-1 (-linear_S)`` and ``A^-1 1`` for
    the batch; the sum constraint then fixes each multiplier.  Every
    ``ridge == 0`` face, and every face of a batch with a face singular in
    floating point, is solved packed to its support by
    :func:`_least_squares`, a face at a time, so a face of a stack is
    solved exactly as the same face of a single program.
    """
    if ridge > 0.0:
        n = faces.shape[1]
        mask = faces.astype(float)  # multiplies faster than the bool array
        a = gram.take(rows, axis=0)
        a *= mask[:, :, None]
        a *= mask[:, None, :]
        a.reshape(rows.size, -1)[:, :: n + 1] += np.where(faces, ridge, 1.0)
        rhs = np.empty((rows.size, n, 2))
        rhs[..., 0] = -linear.take(rows, axis=0) * mask
        rhs[..., 1] = mask
        try:
            w0, v = np.linalg.solve(a, rhs).transpose(2, 0, 1)
        except np.linalg.LinAlgError:
            pass
        else:
            nu = (w0.sum(axis=1, keepdims=True) - 1.0) / v.sum(axis=1, keepdims=True)
            return w0 - nu * v
    return np.stack([_least_squares(gram[r], linear[r], ridge, face)
                     for r, face in zip(rows, faces)])


def _least_squares(gram, linear, ridge, face) -> np.ndarray:
    """One program's face solution, packed to the face.

    A Cholesky factorization of ``A = gram_SS + ridge I`` tests the face: a
    definite one (its smallest squared pivot above 1e-8 of ``A``'s largest
    diagonal entry) is solved as in the batch, by one LU solve with two
    right-hand sides and the sum constraint.  The restricted gram of a
    ``ridge == 0`` program may be singular on a flat face (duplicated
    donors, more coordinates than the gram's rank), as may ``A`` in
    floating point when the ridge is below the gram's rounding; there
    ``np.linalg.lstsq`` solves the bordered KKT system, whose minimum-norm
    solution is the face's minimum-norm point.  The border is scaled to the
    size of ``A`` so the singular-value cutoff cannot drop it.
    """
    idx = np.flatnonzero(face)
    s = idx.size
    a = gram.take(idx, axis=0).take(idx, axis=1)
    a.flat[:: s + 1] += ridge
    w = np.zeros(face.size)
    try:
        pivot = np.diagonal(np.linalg.cholesky(a)).min()
    except np.linalg.LinAlgError:
        pivot = 0.0
    if pivot * pivot > 1e-8 * a.diagonal().max():
        w0, v = np.linalg.solve(a, np.stack([-linear[idx], np.ones(s)], axis=1)).T
        w[idx] = w0 - (w0.sum() - 1.0) / v.sum() * v
        return w
    kkt = np.zeros((s + 1, s + 1))
    kkt[:s, :s] = a
    c = float(np.max(np.abs(a))) or 1.0  # any border does when A is zero
    kkt[:s, s] = kkt[s, :s] = c
    w[idx] = np.linalg.lstsq(kkt, np.append(-linear[idx], c), rcond=None)[0][:s]
    return w


def _ratio_step(gram, linear, ridge, r: int, x: np.ndarray, face: np.ndarray):
    """Move program ``r`` from ``x`` toward its solution ``z`` on ``face``
    by the largest ``alpha <= 1`` that keeps ``x + alpha (z - x)``
    nonnegative; when ``face`` holds the support of ``x`` the objective
    does not rise, by convexity.  None when the face cannot be solved or
    the step is blocked (a zero weight of ``x`` would turn negative).
    """
    direction = _face_solve(gram, linear, ridge, np.array([r]), face[None])[0] - x
    if not np.isfinite(direction).all():
        return None
    shrinking = direction < 0.0
    alpha = float(np.min(x[shrinking] / -direction[shrinking], initial=1.0))
    if not alpha > 0.0:
        return None
    w = x + alpha * direction
    w[w < 1e-12] = 0.0
    return w / w.sum()


def solve(
    problem: SimplexQP,
    init: np.ndarray | None = None,
    trace: list | None = None,
) -> QPSolution:
    """Minimize every program of ``problem`` over the simplex.

    Each round polishes, in lockstep, every running program's face: its
    support and the zero coordinates whose gradient undercuts the support
    multiplier.  A polished point is accepted when it does not raise the
    objective beyond rounding noise and meets the stationarity target; one
    that only lowers the objective becomes the current point.  A program
    whose polish lowers nothing, or whose point has no entering coordinate,
    takes a ratio step instead, toward the face of its support plus its
    steepest entering coordinate, else of its support, else of its support
    without its steepest coordinate.  Runs the polish rounds finish report
    ``iterations == 0``.

    A run stops when its relative KKT residual drops below
    ``TOL * (1 + ||gradient|| / scale)``.

    Parameters
    ----------
    init : ndarray, optional
        A start on the simplex (nonnegative, summing to 1 within 1e-12)
        per program, shaped like ``problem.linear``.  By default each
        program starts at its vertex of least objective, or at the uniform
        point when its vertex values tie.  A nearby program's solution
        lands the first round on the optimum.
    trace : list, optional
        If given, the starting objective, then the objective after every
        move, the certified point's last (for a stack, every program's).

    Raises
    ------
    ValueError
        When ``init`` has the wrong shape or lies off the simplex.
    SolverStall
        When no ratio step lowers a program's objective, or ``4 n`` rounds
        pass without certifying it; the whole stack's solution, each
        program's best point, is attached.
    """
    n = problem.gram.shape[-1]
    gram = problem.gram.reshape(-1, n, n)
    linear = problem.linear.reshape(-1, n)
    offset = np.reshape(problem.offset, -1)
    scale = np.reshape(problem.scale, -1)
    ridge = problem.ridge
    stacked = problem.gram.ndim == 3
    # The objective cancels terms of magnitude ``scale``, so differences
    # below ``noise`` are indistinguishable from rounding; the KKT residual,
    # not the objective, discriminates near the optimum.
    noise = 1e-12 * scale
    if init is None:
        # The best vertex, as Lawson & Hanson start NNLS from the empty
        # active set.  A program whose vertex values tie to rounding (a flat
        # one, such as duplicated donors or the zero program) keeps the
        # uniform start, which its first face solve returns.
        vertex = np.einsum("gii->gi", gram) + 2.0 * linear
        x = np.zeros(linear.shape)
        x[np.arange(len(x)), vertex.argmin(axis=1)] = 1.0
        x[np.ptp(vertex, axis=1) <= noise] = 1.0 / n
    else:
        x = np.array(init, dtype=float)
        on_simplex = (x >= 0.0).all() and (abs(x.sum(axis=-1) - 1.0) <= 1e-12).all()
        if x.shape != problem.linear.shape or not on_simplex:
            raise ValueError(f"init must be a point of the {n}-weight simplex")
        # Dust-level weights are inactive, as in every point the run moves
        # to: a ratio step blocked by one would barely move.
        x = np.where(x < 1e-12, 0.0, x).reshape(linear.shape)
        x /= x.sum(axis=1, keepdims=True)
    f, grad = _evaluate(gram, linear, offset, ridge, x)
    kkt = np.full(len(x), np.inf)
    steps = np.zeros(len(x), dtype=int)
    live = np.ones(len(x), dtype=bool)
    face_solves = 0

    def record() -> None:
        if trace is not None:
            trace.append(f.copy() if stacked else float(f[0]))

    _, support, entering = _stationarity(x, grad, scale)
    face = support | entering
    record()
    for _ in range(4 * n):
        if not live.any():
            break
        rows = np.flatnonzero(live)
        # Polish with backoff: a face solution with negative weights drops
        # them and the smaller face is solved again, so a too-large trial
        # shrinks to a feasible face.  One that empties leaves no positive
        # weight and is rejected below, as is any inconsistent system.
        z, trial, todo = np.empty((rows.size, n)), face[rows], np.arange(rows.size)
        while todo.size:
            z[todo] = w = _face_solve(gram, linear, ridge, rows[todo], trial[todo])
            face_solves += todo.size
            negative = w < -1e-12
            trial[todo] &= ~negative
            todo = todo[negative.any(axis=1) & trial[todo].any(axis=1)]
        # Dust-level coordinates are truly inactive; reporting them as
        # positive would misclassify them in the stationarity check.
        z[z < 1e-12] = 0.0
        total = z.sum(axis=1, keepdims=True)
        polished = np.abs(total[:, 0] - 1.0) <= 1e-8  # also rejects NaN
        p = x.copy()
        p[rows[polished]] = z[polished] / total[polished]
        f_p, grad_p = _evaluate(gram, linear, offset, ridge, p)
        kkt_p, support, entering = _stationarity(p, grad_p, scale)
        target = TOL * (1.0 + np.sqrt(np.einsum("gi,gi->g", grad_p, grad_p)) / scale)
        moved = np.zeros(len(x), dtype=bool)
        moved[rows] = polished
        done = moved & (f_p <= f + noise) & (kkt_p <= target)
        moved &= done | (f_p < f)
        x[moved], f[moved], grad[moved] = p[moved], f_p[moved], grad_p[moved]
        face[moved] = support[moved] | entering[moved]
        kkt[done] = kkt_p[done]
        live &= ~done
        if moved.any():
            record()
        # Backoff can land on a worse face; a ratio step stops where the
        # first weight reaches zero instead.  A blocked entering step means
        # x is not optimal on its own face (Lawson & Hanson's inner loop); a
        # flat face (near-duplicate donors at ridge 0) can leave a spread
        # support gradient, lowered by leaving the steepest coordinate.
        stuck = np.flatnonzero(live & ~(moved & entering.any(axis=1)))
        for r in stuck:
            _, support, entering = _stationarity(x[r], grad[r], scale[r])
            trials = [support]
            if entering.any():
                j = np.argmin(np.where(entering, grad[r], np.inf))
                trials.insert(0, support | (np.arange(n) == j))
            if np.count_nonzero(support) > 1:
                steepest = np.argmax(np.where(support, grad[r], -np.inf))
                trials.append(support & (np.arange(n) != steepest))
            for trial in trials:
                face_solves += 1
                w = _ratio_step(gram, linear, ridge, r, x[r], trial)
                if w is not None:
                    f_w, grad_w = _evaluate(gram[r], linear[r], offset[r], ridge, w)
                    if f_w < f[r]:
                        break
            else:
                live[r] = False  # stalled: its residual stays infinite
                continue
            x[r], f[r], grad[r] = w, f_w, grad_w
            steps[r] += 1
            _, support, entering = _stationarity(w, grad_w, scale[r])
            face[r] = support | entering
        if stuck.size:
            record()
    stalled = np.isinf(kkt)
    kkt[stalled] = _stationarity(x[stalled], grad[stalled], scale[stalled])[0]
    x[x < 1e-12] = 0.0
    x /= x.sum(axis=1, keepdims=True)
    solution = QPSolution(
        weights=x if stacked else x[0],
        objective=f if stacked else float(f[0]),
        iterations=int(steps.sum()),
        face_solves=face_solves,
        kkt_residual=kkt if stacked else float(kkt[0]),
    )
    if stalled.any():
        g = np.flatnonzero(stalled)[0]
        where = f" in program {g} of {len(x)}" if stacked else ""
        raise SolverStall(
            f"no certified point after {steps[g]} ratio steps{where} "
            f"(relative kkt residual {kkt[g]:.3e}, tol {TOL:.1e})",
            solution,
        )
    return solution
