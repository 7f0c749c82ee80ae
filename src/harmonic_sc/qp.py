"""Simplex-constrained ridge quadratic programs.

Every weight vector in this package — the estimator's donor weights, oracle
weights on latent structure, and the level-matching baselines — solves

    min_{w in simplex}  ||y - X w||^2 + ridge * ||w||^2

once its metric has been absorbed into ``y`` and ``X`` (the estimator
rescales their eigen-coordinates, the baselines residualize them).
:func:`build` reduces that to coefficient form (gram, linear, offset) for
the baselines; ``hsc.fit_path`` assembles a whole rho grid of estimator
programs at once from the same least-squares form.

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
pay for a least-squares solve (``np.linalg.lstsq``).  A round that lowers
nothing (backoff can land on a worse face) ends in the ratio step of
Lawson & Hanson's inner loop instead: a move toward one face's solution
that stops where the first weight reaches zero, so every round lowers the
objective or ends the run.

Every tolerance, and the reported KKT residual, is relative to
:attr:`SimplexQP.scale`, so data in other units solve alike (Gill, Murray &
Wright, 1981, *Practical Optimization*, treat scaling as part of the
problem).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


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

    ``gram`` excludes the ridge term; ``offset`` makes the objective equal
    the original residual norm, so values are directly comparable across
    candidate designs.  ``scale``, the largest of ``|offset|``,
    ``max|gram|``, ``2 max|linear|`` and ``ridge`` (1 if all are 0), is the
    magnitude of the terms the objective sums.
    """

    gram: np.ndarray
    linear: np.ndarray
    offset: float
    ridge: float
    scale: float = field(init=False)

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
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite")
        if not np.isfinite(self.ridge) or self.ridge < 0:
            raise ValueError(f"ridge must be finite and nonnegative, got {self.ridge}")
        scale = float(max(abs(self.offset), abs(g).max(),
                          2.0 * abs(l).max(), self.ridge)) or 1.0
        asym = float(abs(g - g.T).max())
        if asym > 1e-10 * scale:
            raise ValueError(f"gram asymmetry {asym:.3e} exceeds tolerance")
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "gram", (g + g.T) / 2.0)
        object.__setattr__(self, "linear", l)

    @property
    def n(self) -> int:
        return self.gram.shape[0]

    def evaluate(self, w: np.ndarray) -> tuple[float, np.ndarray]:
        """Objective value and gradient at ``w`` (no feasibility check),
        both from one product ``gram @ w``."""
        w = np.asarray(w, dtype=float)
        half_grad = self.gram @ w + self.ridge * w + self.linear
        return float(w @ (half_grad + self.linear)) + self.offset, 2.0 * half_grad


@dataclass(frozen=True)
class QPSolution:
    """Solver output: simplex weights plus convergence diagnostics.

    ``iterations`` counts ratio steps (0 when the opening polish finished
    the run) and ``face_solves`` the linear solves of the active-set
    method, backoff rounds and ratio steps included.  ``kkt_residual`` is
    the distance from stationarity relative to :attr:`SimplexQP.scale`.
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
    return SimplexQP(
        gram=x.T @ x,
        linear=-(x.T @ y),
        offset=float(y @ y),
        ridge=float(ridge),
    )


def _kkt_residual(qp: SimplexQP, w: np.ndarray, grad: np.ndarray) -> float:
    """Distance from simplex stationarity, relative to ``qp.scale``.

    On the support the gradient must be a common constant (the multiplier);
    off the support it must not undercut that constant.
    """
    active = w > 0.0
    on_support = grad[active]
    if not on_support.size:
        return float(np.inf)
    nu = on_support.mean()
    res = float(abs(on_support - nu).max())
    if on_support.size < w.size:
        res = max(res, float((nu - grad[~active]).max()), 0.0)
    return res / qp.scale


def _face_solve(qp: SimplexQP, idx: np.ndarray) -> np.ndarray:
    """Stationary point of the QP on the face ``{w_idx sums to 1}``.

    Solves ``H w + nu 1 = -2 linear_S``, ``1'w = 1`` with
    ``H = 2 (gram_SS + ridge I)``.  For ``ridge > 0`` ``H`` is positive
    definite and one LAPACK solve with two right-hand sides gives
    ``H^-1 (-2 linear_S)`` and ``H^-1 1``; the sum constraint then fixes
    the multiplier (a Schur complement of one entry).  For ``ridge == 0``
    the restricted gram may be singular on a flat face, as may ``H`` in
    floating point when the ridge is below the gram's rounding, so the
    bordered system is solved by ``np.linalg.lstsq``, whose minimum-norm
    solution picks the face's minimum-norm point; its border is scaled to
    the size of ``H`` so the singular-value cutoff cannot drop the border's.
    """
    m = idx.size
    h = 2.0 * qp.gram.take(idx, axis=0).take(idx, axis=1)
    if qp.ridge > 0.0:
        h.flat[:: m + 1] += 2.0 * qp.ridge
        rhs = np.empty((m, 2))
        rhs[:, 0] = -2.0 * qp.linear[idx]
        rhs[:, 1] = 1.0
        try:
            w0, v = np.linalg.solve(h, rhs).T
        except np.linalg.LinAlgError:
            pass  # singular in floating point: solved by lstsq below
        else:
            return w0 - ((w0.sum() - 1.0) / v.sum()) * v
    c = float(np.max(np.abs(h))) or 1.0  # any border does when H is zero
    kkt = np.zeros((m + 1, m + 1))
    kkt[:m, :m] = h
    kkt[:m, m] = kkt[m, :m] = c
    rhs = np.concatenate([-2.0 * qp.linear[idx], [c]])
    return np.linalg.lstsq(kkt, rhs, rcond=None)[0][:m]


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
    idx = support.nonzero()[0]
    solves = 0
    while idx.size:
        solves += 1
        try:
            w_s = _face_solve(qp, idx)
        except np.linalg.LinAlgError:
            return None, solves
        if not np.isfinite(w_s).all():
            return None, solves
        negative = w_s < -1e-12
        if negative.any():
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


def _ratio_step(qp: SimplexQP, x: np.ndarray, face: np.ndarray) -> np.ndarray | None:
    """Move from ``x`` toward the solution of ``face`` until a weight hits zero.

    The step length is the largest ``alpha <= 1`` that keeps
    ``x + alpha (z - x)`` nonnegative; when ``face`` contains the support
    of ``x``, the objective does not rise, by convexity.  Returns None when
    the face cannot be solved or the step is blocked (``alpha == 0``: a
    zero weight of ``x`` would turn negative).
    """
    idx = np.nonzero(face)[0]
    direction = -x
    try:
        direction[idx] += _face_solve(qp, idx)
    except np.linalg.LinAlgError:
        return None
    shrinking = direction < 0.0
    alpha = float(np.min(x[shrinking] / -direction[shrinking], initial=1.0))
    if not alpha > 0.0:
        return None
    w = x + alpha * direction
    w[w < 1e-12] = 0.0
    return w / w.sum()


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
    init: np.ndarray | None = None,
    trace: list | None = None,
) -> QPSolution:
    """Minimize the QP over the simplex.

    Each round solves, with backoff, the face of the current support and,
    when some zero coordinate's gradient undercuts the support multiplier,
    the face enlarged by those coordinates.  A polished point is accepted
    when it does not raise the objective beyond rounding noise and meets
    the stationarity target.  A polished point that lowers the objective
    without meeting the target becomes the current point, and the next
    round rebuilds the support and the entering set from it.  A round in
    which no polished point lowers the objective ends in a ratio step
    instead: the support, plus the entering coordinate that undercuts the
    multiplier most, spans a face whose solution ``z`` is solved once, and
    the run moves to ``x + alpha (z - x)`` with ``alpha`` the largest step
    up to 1 that keeps every weight nonnegative.  By convexity that step
    never raises the objective.  When it is blocked at ``alpha == 0`` (the
    entering weight would start negative) or lowers nothing, the step is
    taken on the support's face alone, and then toward the support's face
    without its steepest coordinate.  A run the opening rounds finish
    reports ``iterations == 0``.

    Parameters
    ----------
    tol : float
        Stationarity target; the run stops when the relative KKT residual
        drops below ``tol * (1 + ||gradient|| / scale)``.
    init : ndarray, optional
        Starting point on the simplex (nonnegative, summing to 1 within
        1e-12); defaults to the uniform vector.  The solution of a nearby
        program makes the opening polish land on the optimal face directly.
    trace : list, optional
        If given, the starting objective is appended, then the objective of
        every point the run moves to, the certified point's last.

    Raises
    ------
    ValueError
        When ``init`` has the wrong length or lies off the simplex.
    SolverStall
        When no ratio step lowers the objective, or ``4 n`` rounds pass
        without a certified point; the current point, the best the run
        found, is attached.
    """
    n = qp.n
    if init is None:
        x = np.full(n, 1.0 / n)
    else:
        x = np.array(init, dtype=float)
        on_simplex = (x >= 0.0).all() and abs(x.sum() - 1.0) <= 1e-12
        if x.shape != (n,) or not on_simplex:
            raise ValueError(f"init must be a point of the {n}-weight simplex")
        # Dust-level weights are inactive, as in every point the run moves
        # to: a ratio step blocked by one would barely move.
        dust = (x > 0.0) & (x < 1e-12)
        if dust.any():
            x[dust] = 0.0
            x /= x.sum()
    # The objective cancels terms of magnitude ``qp.scale``, so differences
    # below ``noise`` are indistinguishable from rounding; the KKT residual,
    # not the objective, discriminates near the optimum.
    noise = 1e-12 * qp.scale

    f_x, grad_x = qp.evaluate(x)
    if trace is not None:
        trace.append(f_x)
    steps = face_solves = 0
    on_face_optimum = False
    for _ in range(4 * n):
        # Each round tries the current face and the face the gradient
        # points at.  Every adopted point lowers the objective, so no face
        # is visited twice.
        support = x > 0.0
        nu = grad_x[support].mean()
        entering = ~support & (grad_x < nu)
        trials = [] if on_face_optimum else [support]
        any_entering = entering.any()
        if any_entering:
            trials.append(support | entering)
        for trial in trials:
            polished, solves = _polish(qp, trial)
            face_solves += solves
            if polished is None:
                continue
            f_p, grad_p = qp.evaluate(polished)
            if f_p > f_x + noise:
                continue
            kkt_p = _kkt_residual(qp, polished, grad_p)
            if kkt_p <= tol * (1.0 + math.sqrt(grad_p @ grad_p) / qp.scale):
                if trace is not None:
                    trace.append(f_p)
                return _finish(polished, f_p, steps, face_solves, kkt_p)
            if f_p < f_x:
                x, f_x, grad_x = polished, f_p, grad_p
                on_face_optimum = True
                break
        else:
            # Backoff drops every negative coordinate at once and can land
            # on a worse face; a ratio step stops where the first weight
            # reaches zero instead.  The entering coordinate is tried first;
            # when its step is blocked, x is not yet optimal on its own face
            # and the step is taken on that face (Lawson & Hanson's inner
            # loop).  A flat face (near-duplicate donors at ridge 0) can leave
            # its minimum-norm point with a spread support gradient; moving
            # off the steepest coordinate then lowers the objective.
            faces = [support]
            if any_entering:
                j = np.argmin(np.where(entering, grad_x, np.inf))
                faces.insert(0, support | (np.arange(n) == j))
            if np.count_nonzero(support) > 1:
                steepest = np.argmax(np.where(support, grad_x, -np.inf))
                faces.append(support & (np.arange(n) != steepest))
            for face in faces:
                face_solves += 1
                w = _ratio_step(qp, x, face)
                if w is not None:
                    f_w, grad_w = qp.evaluate(w)
                    if f_w < f_x:
                        break
            else:
                break
            steps += 1
            x, f_x, grad_x = w, f_w, grad_w
            on_face_optimum = False
        if trace is not None:
            trace.append(f_x)

    kkt = _kkt_residual(qp, x, grad_x)
    raise SolverStall(
        f"no certified point after {steps} ratio steps "
        f"(relative kkt residual {kkt:.3e}, tol {tol:.1e})",
        _finish(x, f_x, steps, face_solves, kkt),
    )
