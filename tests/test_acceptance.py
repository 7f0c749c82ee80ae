"""Release gate: nine end-to-end checks at their stated tolerances.

Each test prints one status line (PASS or FAIL, with its runtime);
substantive failures also surface as ordinary pytest failures.  The gates
exercise the public API the way a study would: estimator endpoints against
independent reference programs, closed-form spectra, the error-split
identities on simulated panels, envelope dominance, tuning behavior across
regimes, desk-scale simulation orderings, and determinism contracts.
"""

import csv
import json
import sys
import time

import numpy as np
import numpy.testing as npt

from harmonic_sc import (
    GridDgpConfig,
    HscConfig,
    SimpleDgpConfig,
    baselines,
    cli,
    decomp,
    hsc,
    mc,
    qp,
    split,
    spectral,
    tuning,
)
from harmonic_sc.panel import Panel


def _report(
    num: int, name: str, started: float, budget: float, detail: str = "", ok: bool = True
) -> None:
    elapsed = time.monotonic() - started
    tail = f" — {detail}" if detail else ""
    status = "PASS" if ok else "FAIL"
    print(
        f"ACCEPTANCE {num} ({name}): {status} in {elapsed:.1f}s of {budget:.0f}s{tail}",
        file=sys.__stdout__,
        flush=True,
    )
    assert elapsed < budget


# ---------------------------------------------------------------------------
# independent oracle for gate 9: exhaustive simplex grid search
#
# Written against the raw quadratic (no solver code shared): stages of a
# barycentric lattice, each window certified by convexity.  If w* is the
# constrained minimizer and w_k the stage-k lattice argmin, then
# f(w_k) - f(w*) <= lam_max * d_k^2 (nearest lattice point on the active
# face; the lattice contains the face boundaries), and
# ||w_k - w*|| <= sqrt((f(w_k) - f(w*)) / lam_min), so the next window of
# half-width 1.5 * sqrt(lam_max/lam_min) * d_k around w_k contains w*.


def _ticks(lo: float, hi: float, step: float) -> np.ndarray:
    lo = max(0.0, lo)
    hi = min(1.0, hi)
    ticks = np.arange(lo, hi + step / 2.0, step)
    # exact endpoints so the lattice contains the simplex faces it touches
    for endpoint in (0.0, 1.0):
        if lo <= endpoint <= hi and not np.any(np.abs(ticks - endpoint) < step * 1e-9):
            ticks = np.append(ticks, endpoint)
    return np.unique(np.clip(ticks, lo, hi))


def _lattice(n_free: int, lows, highs, step: float) -> np.ndarray:
    """Candidate weight rows: interior lattice plus exact-face lattices."""
    axes = [_ticks(lo, hi, step) for lo, hi in zip(lows, highs)]
    if n_free == 1:
        free = axes[0][:, None]
        return np.column_stack([free, 1.0 - free[:, 0]])
    a, b = np.meshgrid(axes[0], axes[1], indexing="ij")
    free = np.column_stack([a.ravel(), b.ravel()])
    free = free[free.sum(axis=1) <= 1.0 + 1e-12]
    # points exactly on the face w_last = 0 (the meshgrid rarely sums to 1)
    edge_a = np.column_stack([axes[0], 1.0 - axes[0]])
    edge_b = np.column_stack([1.0 - axes[1], axes[1]])
    edges = np.vstack([edge_a, edge_b])
    inside = (
        (edges[:, 0] >= lows[0] - step) & (edges[:, 0] <= highs[0] + step)
        & (edges[:, 1] >= lows[1] - step) & (edges[:, 1] <= highs[1] + step)
        & (edges >= -1e-12).all(axis=1) & (edges <= 1.0 + 1e-12).all(axis=1)
    )
    free = np.vstack([free, edges[inside]])
    last = 1.0 - free.sum(axis=1)
    rows = np.column_stack([free, last])
    # face points were built as t, 1-t so their last coordinate is exactly 0
    rows[np.abs(rows) < 1e-15] = 0.0
    return rows


def dense_simplex_search(y: np.ndarray, x: np.ndarray, ridge: float):
    """Global simplex minimum of ||y - x w||^2 + ridge ||w||^2 by exhaustion."""
    n = x.shape[1]
    gram = x.T @ x
    linear = -(x.T @ y)
    offset = float(y @ y)
    evals = np.linalg.eigvalsh(gram + ridge * np.eye(n))
    lam_min, lam_max = float(evals[0]), float(evals[-1])
    assert lam_min > 1e-8, "oracle needs a strictly convex instance"
    grow = 1.5 * np.sqrt(lam_max / lam_min) * np.sqrt(n - 1)

    def value(w_rows: np.ndarray) -> np.ndarray:
        quad = np.einsum("ij,jk,ik->i", w_rows, gram, w_rows)
        return quad + 2.0 * (w_rows @ linear) + offset + ridge * np.einsum(
            "ij,ij->i", w_rows, w_rows
        )

    steps = (1e-4, 1e-6) if n == 2 else (2e-3, 2e-4, 1e-5, 5e-7)
    lows = [0.0] * (n - 1)
    highs = [1.0] * (n - 1)
    best = None
    for step in steps:
        grid = _lattice(n - 1, lows, highs, step)
        values = value(grid)
        best = grid[int(np.argmin(values))]
        radius = grow * step + step
        lows = [t - radius for t in best[: n - 1]]
        highs = [t + radius for t in best[: n - 1]]
    final_radius = grow * steps[-1]
    assert final_radius < 5e-5, "refinement did not certify the target accuracy"
    return best, float(value(best[None, :])[0])


# ---------------------------------------------------------------------------
# gate 1: estimator endpoints against independent reference programs


def _random_view(rng: np.random.Generator, t0: int = 60, t_post: int = 5, n0: int = 10):
    t_total = t0 + t_post
    factors = np.cumsum(rng.standard_normal((t_total, 2)), axis=0)
    loadings = np.abs(rng.standard_normal((n0, 2)))
    donors = factors @ loadings.T + rng.standard_normal((t_total, n0))
    w = rng.dirichlet(np.ones(n0))
    treated = donors @ w + 3.0 + rng.standard_normal(t_total)
    outcomes = np.column_stack([treated, donors])
    labels = ["treated"] + [f"d{j}" for j in range(n0)]
    return split(Panel(outcomes=outcomes, t0=t0, unit_labels=labels))


def test_gate_1_endpoint_equivalences():
    started = time.monotonic()
    rng = np.random.default_rng(1)
    zeta = 0.1
    worst = 0.0
    for _ in range(50):
        view = _random_view(rng)

        flat = hsc.fit(view, HscConfig(rho=1.0, q=1, zeta=0.0)).weights
        ref = baselines.fit_sc_int(view).weights
        worst = max(worst, float(np.max(np.abs(flat - ref))))

        tilted = hsc.fit(view, HscConfig(rho=1.0, q=2, zeta=0.0)).weights
        ref = baselines.fit_sc_int(view, with_trend=True).weights
        worst = max(worst, float(np.max(np.abs(tilted - ref))))

        for q in (1, 2):
            rough = hsc.fit(view, HscConfig(rho=0.0, q=q, zeta=zeta)).weights
            dy = np.diff(view.y_pre, n=q)
            dx = np.diff(view.x_pre, n=q, axis=0)
            problem = qp.build(dy, dx, ridge=zeta * zeta * view.t0)
            ref = qp.solve(problem).weights
            worst = max(worst, float(np.max(np.abs(rough - ref))))

    assert worst < 1e-5
    _report(1, "endpoint equivalences", started, 30.0, f"max weight gap {worst:.2e}")


# ---------------------------------------------------------------------------
# gate 2: closed-form spectrum and gain identities


def test_gate_2_spectral_identities():
    started = time.monotonic()
    unit = spectral.SpectralBasis(
        n=2, q=1, eigenvalues=np.array([0.0, 1.0]), eigenvectors=np.eye(2)
    )
    for t0 in (10, 80, 200):
        basis = spectral.spectral_basis(t0, 1)
        j = np.arange(t0, dtype=float)
        closed_form = 4.0 * np.sin(j * np.pi / (2.0 * t0)) ** 2
        npt.assert_allclose(np.sort(basis.eigenvalues), closed_form, atol=1e-8)

        positive = basis.eigenvalues[1:]
        for rho in tuning.uniform_grid():
            rho = float(rho)
            w = spectral.path_gains(basis, (rho,))[1][0, 1:]
            lhs = 1.0 / w
            rhs = (1.0 - rho) / positive + rho
            assert np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))) <= 1e-12

            assert spectral.path_gains(unit, (rho,))[1][0, 1] == 1.0

    _report(2, "spectral identities", started, 5.0)


# ---------------------------------------------------------------------------
# gate 3: additive error split and the direct Term-B form


def test_gate_3_error_split_identities():
    started = time.monotonic()
    cfg = SimpleDgpConfig(kappa=1.0, master_seed=3)
    rules = ("last_constant", "arima110", "ar", "hamilton")
    grid = decomp.DEFAULT_RHO_GRID
    worst_split = 0.0
    worst_tb = 0.0
    worst_realized = 0.0
    basis = spectral.spectral_basis(cfg.t0, 1)
    v = basis.eigenvectors
    shrink, _ = spectral.path_gains(basis, grid)
    for rep in range(1, 101):
        _, latent = mc.simulate_simple(cfg, rep)
        view = latent.to_view()
        zeta = hsc.auto_zeta(view.x_pre, view.t_post)
        rule = rules[rep % len(rules)]
        report = decomp.decompose(latent, q=1, rule_kind=rule, zeta=zeta)
        split_gap = np.abs(report.term_a + report.term_b - report.realized_error)
        worst_split = max(worst_split, float(np.max(split_gap)))
        scale = 1.0 + np.max(np.abs(view.y_post))
        for g, rho in enumerate(grid):
            # The split must describe the estimator actually run.
            fit = hsc.fit(view, HscConfig(rho=rho, q=1, rule_kind=rule, zeta=zeta))
            npt.assert_array_equal(report.weights[g], fit.weights)
            realized_gap = np.abs(
                report.realized_error[g] - (view.y_post - fit.counterfactual)
            )
            worst_realized = max(worst_realized, float(np.max(realized_gap)) / scale)

            smoothed = v @ (shrink[g] * (v.T @ report.eta_pre))
            direct = report.eta_post - fit.forecaster.apply(smoothed, latent.t_post)
            worst_tb = max(worst_tb, float(np.max(np.abs(report.term_b[g] - direct))))

    assert worst_split < 1e-10
    assert worst_tb < 1e-9
    assert worst_realized <= 1e-10
    _report(
        3, "error split identities", started, 120.0,
        f"split gap {worst_split:.1e}, direct-form gap {worst_tb:.1e}, "
        f"realized-error gap {worst_realized:.1e} (relative)",
    )


# ---------------------------------------------------------------------------
# gate 4: envelope dominance and the curvature bound


def test_gate_4_envelope_and_curvature():
    started = time.monotonic()
    for kappa in (0.0, 2.0):
        cfg = SimpleDgpConfig(kappa=kappa, master_seed=4)
        for rep in range(1, 51):
            _, latent = mc.simulate_simple(cfg, rep)
            report = decomp.decompose(latent)
            norm_a = np.linalg.norm(report.term_a, axis=1)
            assert np.all(report.envelope + 1e-8 * (1.0 + norm_a) >= norm_a)
            assert np.all(
                report.q_max_inv_eig <= (1.0 + 1e-10) / report.zeta**2
            )
            assert not report.pseudo_inverse.any()
    _report(4, "envelope dominance and curvature bound", started, 300.0)


# ---------------------------------------------------------------------------
# gate 5: tuning adapts to the trend regime


def _selected_rhos(kappa: float, seeds: int = 50) -> np.ndarray:
    cfg = SimpleDgpConfig(
        kappa=kappa, master_seed=5, loading_mean=1.0, loading_sd=1.0, noise_sd=2.0
    )
    plan = tuning.CvPlan(h=1, folds=10, candidates=((1, "last_constant"),))
    picks = []
    for rep in range(1, seeds + 1):
        panel, _ = mc.simulate_simple(cfg, rep)
        view = split(panel)
        picks.append(tuning.cross_validate(view.y_pre, view.x_pre, plan).best_rho)
    return np.array(picks)


def test_gate_5_regime_adaptation():
    """Median rho-hat near 1 under shared trends, near 0 under idiosyncratic ones.

    The shared-trend branch holds with margin (median 1.0 over 50 seeds).
    The idiosyncratic branch does not hold on this design, and the gap is
    structural rather than a seed artifact: averaging the one-step CV curve
    over 80 replications puts its minimum at interior rho (about 0.5 — the
    mean curve runs 13.8 at rho=0, 11.97 at 0.5, 60.2 at 1.0).  With noise
    sd 2 against unit-variance walk increments, smoothing the anchor of the
    constant continuation rule saves more noise variance than the walk-lag
    it costs, so one-step CV genuinely prefers interior smoothing; the
    median selection lands at 0.55-0.65 under every ridge policy (auto,
    fixed from the post horizon, zero), and only drops to about 0.22 if the
    noise sd is cut to 0.5.  The thresholds below encode the design goal of
    decisive regime adaptation; they are asserted as-is rather than relaxed
    to match measured behavior, so this gate currently fails on the
    idiosyncratic branch.
    """
    started = time.monotonic()
    median_shared = float(np.median(_selected_rhos(kappa=0.0)))
    median_idio = float(np.median(_selected_rhos(kappa=2.0)))
    ok = median_shared >= 0.9 and median_idio <= 0.2
    _report(
        5, "regime adaptation", started, 300.0,
        f"median rho-hat {median_shared:.3f} (no idiosyncratic trends) "
        f"vs {median_idio:.3f} (strong ones)",
        ok=ok,
    )
    assert median_shared >= 0.9
    assert median_idio <= 0.2


# ---------------------------------------------------------------------------
# gate 6: pooled-error ordering at desk scale


def test_gate_6_simulation_ordering():
    """Estimator ranking on the factor-plus-walks design at desk scale.

    The no-trend ratio is seed-dependent through two channels that the
    master seed steers.  The frozen loading geometry sets how much the
    ridge term costs relative to the unregularized intercept matcher:
    forcing rho=1 across seeds measures that channel alone at 0.96-1.14
    (seeds 1, 2, 3, 7, 23 land at 0.96-1.03; seed 11 draws a geometry
    where shrinkage costs ~14%).  On top of that, one-step
    cross-validation occasionally selects rho below one — the one-step
    criterion cannot see the multi-period drift of an unmatched
    low-frequency component, so those replications pay a 1.7-2.7x
    post-window penalty.  With both channels included, seeds 1, 2, 3, 7,
    11 and 23 measure 1.18, 1.03, 1.00, 1.12, 1.28 and 1.06; half of the
    sampled seeds meet the 10% bar.  The strong-trend ordering runs master
    seed 3 and the no-trend ratio runs master seed 1, which measures 1.18
    against the 1.10 bar, so this gate fails at the seed it runs.
    """
    started = time.monotonic()
    methods = ("hsc:1:last_constant", "sc_int", "sc")

    strong = mc.run_study(
        "grid", GridDgpConfig(kappa=2.0, rho_u=0.0, master_seed=3),
        methods, reps=100,
    )
    assert all(strong.failures[m] == 0 for m in methods)
    rmse = strong.pooled_rmse
    assert rmse["hsc:1:last_constant"] < rmse["sc_int"]
    assert rmse["hsc:1:last_constant"] < rmse["sc"]

    shared = mc.run_study(
        "grid", GridDgpConfig(kappa=0.0, rho_u=0.0, master_seed=1),
        methods, reps=100,
    )
    assert all(shared.failures[m] == 0 for m in methods)
    ratio = shared.pooled_rmse["hsc:1:last_constant"] / shared.pooled_rmse["sc_int"]
    assert ratio <= 1.10

    _report(
        6, "simulation ordering", started, 900.0,
        "strong-trend RMSE {:.2f} vs sc_int {:.2f} / sc {:.2f}; "
        "no-trend ratio {:.3f}".format(
            rmse["hsc:1:last_constant"], rmse["sc_int"], rmse["sc"], ratio
        ),
    )


# ---------------------------------------------------------------------------
# gate 7: longer validation horizons select smoother metrics


def test_gate_7_horizon_shift():
    started = time.monotonic()
    cfg = GridDgpConfig(kappa=2.0, rho_u=0.5, master_seed=11)
    token = "hsc:1:last_constant"

    short = mc.run_study("grid", cfg, (token,), reps=50, h=1)
    long = mc.run_study("grid", cfg, (token,), reps=50, h=20)
    median_short = float(np.median(short.rho_hat_samples[token]))
    median_long = float(np.median(long.rho_hat_samples[token]))
    assert median_long > median_short
    _report(
        7, "horizon shift", started, 1200.0,
        f"median rho-hat {median_short:.3f} at h=1 vs {median_long:.3f} at h=20",
    )


# ---------------------------------------------------------------------------
# gate 8: no leakage from post-treatment data; thread-count determinism


def _write_long_csv(path, outcomes):
    labels = ["A"] + [f"d{j}" for j in range(outcomes.shape[1] - 1)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["unit", "time", "outcome"])
        for col, label in enumerate(labels):
            for t in range(outcomes.shape[0]):
                writer.writerow([label, t + 1, repr(float(outcomes[t, col]))])


def test_gate_8_leakage_and_determinism(tmp_path):
    started = time.monotonic()
    rng = np.random.default_rng(7)
    t0, t_total = 20, 28
    donors = np.cumsum(rng.standard_normal((t_total, 4)), axis=0)
    treated = donors @ np.array([0.4, 0.3, 0.2, 0.1]) + 0.2 * rng.standard_normal(t_total)
    outcomes = np.column_stack([treated, donors])
    corrupted = outcomes.copy()
    corrupted[t0:] = 1e6 * rng.standard_normal(corrupted[t0:].shape)

    clean_csv = tmp_path / "clean.csv"
    dirty_csv = tmp_path / "dirty.csv"
    _write_long_csv(clean_csv, outcomes)
    _write_long_csv(dirty_csv, corrupted)
    out_clean = tmp_path / "cv_clean"
    out_dirty = tmp_path / "cv_dirty"
    base = ["cv", "--treated", "A", "--t0", str(t0), "--folds", "4"]
    assert cli.main(base + ["--panel", str(clean_csv), "--out", str(out_clean)]) == 0
    assert cli.main(base + ["--panel", str(dirty_csv), "--out", str(out_dirty)]) == 0
    for name in ("cv_table.csv", "selection.json"):
        assert (out_clean / name).read_bytes() == (out_dirty / name).read_bytes()

    sim = ["simulate", "--design", "simple", "--kappa", "2", "--reps", "4",
           "--seed", "7", "--t0", "16", "--tpost", "2", "--n0", "3",
           "--folds", "2", "--methods", "sc,hsc:1:last_constant"]
    out_one = tmp_path / "sim1"
    out_two = tmp_path / "sim2"
    assert cli.main(sim + ["--threads", "1", "--out", str(out_one)]) == 0
    assert cli.main(sim + ["--threads", "2", "--out", str(out_two)]) == 0
    for name in ("errors.csv", "summary.json"):
        assert (out_one / name).read_bytes() == (out_two / name).read_bytes()
    summary = json.loads((out_one / "summary.json").read_text())
    assert set(summary["methods"]) == {"sc", "hsc:1:last_constant"}

    _report(8, "leakage and determinism", started, 120.0)


# ---------------------------------------------------------------------------
# gate 9: solver agrees with exhaustive search on small instances


def test_gate_9_qp_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(9)
    worst_w = 0.0
    worst_f = 0.0
    for i in range(200):
        n = 2 if i < 130 else 3
        y = rng.standard_normal(25)
        x = rng.standard_normal((25, n))
        if n == 2:
            ridge = 0.0 if i % 2 == 0 else 0.5
        else:
            ridge = 0.25 if i % 2 == 0 else 1.0
        w_ref, f_ref = dense_simplex_search(y, x, ridge)
        sol = qp.solve(qp.build(y, x, ridge))
        worst_w = max(worst_w, float(np.max(np.abs(sol.weights - w_ref))))
        worst_f = max(worst_f, abs(sol.objective - f_ref))
    assert worst_w < 2e-4
    assert worst_f < 1e-8
    _report(
        9, "solver vs exhaustive search", started, 60.0,
        f"max weight gap {worst_w:.1e}, max objective gap {worst_f:.1e}",
    )
