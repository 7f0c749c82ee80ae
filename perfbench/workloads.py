"""The benchmark's three workloads.

Each workload has a ``setup()`` (input generation and any warm-up, timed as
``setup_s``), a ``unit(i)`` (the timed operation) and a ``check(result)``
(untimed; raises :class:`checks.CheckFailed`).  ``setup`` must be idempotent:
the runner repeats it between units.  ``unit`` returns how many operations it
attempted, how many of them failed, and what the check needs (None when an
operation failed; failed operations are not checked).  All inputs derive from
the ``seed`` given to the constructor.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

import checks
from harmonic_sc import cli, decomp, hsc, mc, spectral, tuning


def reset_caches() -> None:
    """Drop every spectral basis, as a fresh process starts."""
    spectral.spectral_basis.cache_clear()


# ---------------------------------------------------------------------------
# applied-cold


#: Post-periods and donors of the applied panel.
APPLIED_T_POST = 10
APPLIED_DONORS = 30


def applied_panel(seed: int, t0: int = 80) -> dict:
    """A synthetic applied panel in long format, drawn with NumPy alone.

    Three common factors (a random walk, an integrated AR(1) and a
    stationary AR(1)) with unit loadings and levels; every donor adds its own
    random walk and noise.  The treated unit is a Dirichlet combination of
    six donors' common parts plus an idiosyncratic random walk of scale 0.7
    and noise.  Returns the long rows and the pre/post blocks.
    """
    n_donors = APPLIED_DONORS
    rng = np.random.default_rng([seed, t0, n_donors])
    t_total = t0 + APPLIED_T_POST
    shocks = rng.normal(0.0, 1.0, (t_total, 3))
    factors = np.empty((t_total, 3))
    factors[:, 0] = np.cumsum(shocks[:, 0])
    diff_ar = np.empty(t_total)
    level_ar = np.empty(t_total)
    prev_d = prev_s = 0.0
    for t in range(t_total):
        prev_d = 0.5 * prev_d + shocks[t, 1]
        prev_s = 0.6 * prev_s + shocks[t, 2]
        diff_ar[t], level_ar[t] = prev_d, prev_s
    factors[:, 1] = np.cumsum(diff_ar)
    factors[:, 2] = level_ar
    loadings = rng.normal([1.0, 0.5, 0.0], 0.5, (n_donors, 3))
    levels = rng.uniform(5.0, 15.0, n_donors)
    common = factors @ loadings.T + levels
    donors = common + 0.3 * np.cumsum(rng.normal(0.0, 1.0, (t_total, n_donors)), axis=0)
    donors += rng.normal(0.0, 0.5, (t_total, n_donors))
    support = rng.choice(n_donors, size=6, replace=False)
    mix = rng.dirichlet(np.ones(6))
    treated = common[:, support] @ mix
    treated += 0.7 * np.cumsum(rng.normal(0.0, 1.0, t_total)) + rng.normal(0.0, 0.5, t_total)

    labels = ["treated"] + [f"donor_{j:02d}" for j in range(1, n_donors + 1)]
    series = np.column_stack([treated, donors])
    rows = [
        (label, period, repr(float(series[period - 1, j])))
        for j, label in enumerate(labels)
        for period in range(1, t_total + 1)
    ]
    return {
        "rows": rows,
        "donor_labels": labels[1:],
        "y_pre": series[:t0, 0],
        "x_pre": series[:t0, 1:],
        "y_post": series[t0:, 0],
        "x_post": series[t0:, 1:],
    }


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class AppliedCold:
    """``harmonic-sc cv`` then ``harmonic-sc estimate`` at the selection,
    each started with no spectral basis built."""

    name = "applied-cold"
    t0 = 80
    candidates = "1:last_constant,1:arima110,2:ar"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.panel_csv = workdir / "panel.csv"

    def setup(self) -> None:
        self.panel = applied_panel(self.seed, t0=self.t0)
        self.workdir.mkdir(parents=True, exist_ok=True)
        with open(self.panel_csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["unit", "time", "outcome"])
            writer.writerows(self.panel["rows"])

    def _common(self) -> list[str]:
        return ["--panel", str(self.panel_csv), "--treated", "treated", "--t0", str(self.t0)]

    def unit(self, i: int):
        cv_out = self.workdir / "cv"
        est_out = self.workdir / "estimate"
        reset_caches()
        cv_code = cli.main(
            ["cv", *self._common(), "--h", "4", "--folds", "8", "--grid", "uniform",
             "--candidates", self.candidates, "--out", str(cv_out)]
        )
        if cv_code != 0:
            return 1, 1, None
        with open(cv_out / "selection.json", encoding="utf-8") as fh:
            chosen = json.load(fh)
        reset_caches()
        est_code = cli.main(
            ["estimate", *self._common(), "--method", "hsc",
             "--rho", repr(chosen["best_rho"]), "--q", str(chosen["best_q"]),
             "--forecaster", chosen["best_forecaster"], "--out", str(est_out)]
        )
        if est_code != 0:
            return 1, 1, None
        return 1, 0, (cv_out, est_out, chosen)

    def check(self, result) -> None:
        cv_out, est_out, chosen = result
        p = self.panel
        rows = [
            (float(r["rho"]), int(r["q"]), r["forecaster"], float(r["cv_mspe"]))
            for r in _read_csv(cv_out / "cv_table.csv")
        ]
        picked = (chosen["best_rho"], chosen["best_q"], chosen["best_forecaster"])
        checks.selection(rows, picked, p["y_pre"], p["x_pre"])

        with open(est_out / "weights.json", encoding="utf-8") as fh:
            fitted = json.load(fh)
        w = np.array([fitted["weights"][label] for label in p["donor_labels"]])
        zeta = checks.auto_zeta(p["x_pre"], p["y_post"].size)
        checks.close(fitted["zeta"], zeta, "estimate: auto zeta")
        checks.kkt(w, p["y_pre"], p["x_pre"], picked[1], picked[0], zeta, "estimate")
        checks.estimate_outputs(
            _read_csv(est_out / "counterfactual.csv"),
            _read_csv(est_out / "components.csv"),
            w,
            p,
        )


# ---------------------------------------------------------------------------
# study-warm


class StudyWarm:
    """Replications of the grid-design Monte Carlo study with warm bases.

    One ``unit`` runs ``run_study`` for ``reps`` replications under its own
    master seed, so every call draws a fresh cross-section; the operations
    it reports are replications.
    """

    name = "study-warm"
    methods = ("hsc:1:last_constant", "sc_int", "sdid")
    reps = 2
    t0, t_post, n0, h, folds = 100, 10, 50, 1, 10

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def config(self, i: int) -> mc.GridDgpConfig:
        return mc.GridDgpConfig(
            kappa=2.0, rho_u=0.5, master_seed=self.seed * 1000 + i,
            t0=self.t0, t_post=self.t_post, n0=self.n0,
        )

    def setup(self) -> None:
        # Every training length the rolling origins use, plus the full
        # pre-period of the final fit; q=1 is the only order in the methods.
        for n in tuning.rolling_origins(self.t0, self.h, self.folds) + [self.t0]:
            spectral.spectral_basis(n, 1)

    def unit(self, i: int):
        cfg = self.config(i)
        table = mc.run_study(
            "grid", cfg, self.methods, reps=self.reps, h=self.h, folds=self.folds, threads=1
        )
        ok = np.all(
            [np.all(np.isfinite(table.errors[t]), axis=1) for t in self.methods], axis=0
        )
        failed = int(self.reps - np.count_nonzero(ok))
        return self.reps, failed, None if failed else (cfg, table)

    def check(self, result) -> None:
        cfg, table = result
        checks.pooled_identity(table)
        token = self.methods[0]
        samples = table.rho_hat_samples[token]
        checks.on_grid(samples, tuning.uniform_grid())
        # Refit the first replication at its selected rho.
        _, latent = mc.simulate_grid(cfg, 1)
        view = latent.to_view()
        fit = hsc.fit(view, hsc.HscConfig(rho=float(samples[0]), q=1, rule_kind="last_constant"))
        checks.close(
            fit.counterfactual - view.y_post, table.errors[token][0], "study: refit errors", 0.0
        )
        zeta = checks.auto_zeta(view.x_pre, view.t_post)
        checks.kkt(fit.weights, view.y_pre, view.x_pre, 1, float(samples[0]), zeta, "study refit")


# ---------------------------------------------------------------------------
# decompose-q2


class DecomposeQ2:
    """Simulate one simple-design panel and decompose its error at q=2."""

    name = "decompose-q2"
    t0 = 80

    def __init__(self, seed: int, workdir: Path):
        self.cfg = mc.SimpleDgpConfig(kappa=2.0, master_seed=seed, t0=self.t0)

    def setup(self) -> None:
        spectral.spectral_basis(self.t0, 2)

    def unit(self, i: int):
        _, latent = mc.simulate_simple(self.cfg, i + 1)
        report = decomp.decompose(latent, q=2, rule_kind="ar")
        return 1, 0, (latent, report)

    def check(self, result) -> None:
        latent, report = result
        view = latent.to_view()
        zeta = checks.auto_zeta(view.x_pre, view.t_post)
        checks.close(report.zeta, zeta, "decompose: auto zeta")
        if report.rho_grid.size != len(decomp.DEFAULT_RHO_GRID):
            raise checks.CheckFailed("decompose: grid is not the 19-point default")
        checks.decomposition(report, zeta)
        sig = latent.signal[: latent.t0]
        checks.kkt(report.oracle_weights, sig[:, 0], sig[:, 1:], 2, 1.0, zeta, "decompose oracle")


WORKLOADS = {w.name: w for w in (AppliedCold, StudyWarm, DecomposeQ2)}
