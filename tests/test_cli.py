import csv
import json

import numpy as np
import numpy.testing as npt
import pytest

from harmonic_sc import baselines, cli, hsc, load_csv, mc, qp, split


def write_panel_csv(path, t_total=14, noise=0.05, seed=0, scale=1.0):
    """Toy long-format panel: treated unit A is a fixed donor combination.

    Every outcome is multiplied by ``scale``.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(1, t_total + 1, dtype=float)
    donors = {
        "B": 2.0 + 0.3 * t + np.sin(0.4 * t),
        "C": 1.0 + 0.1 * t + np.cos(0.3 * t),
        "D": 3.0 + 0.2 * t,
    }
    treated = 0.5 * donors["B"] + 0.3 * donors["C"] + 0.2 * donors["D"]
    if noise:
        treated = treated + noise * rng.standard_normal(t_total)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["unit", "time", "outcome"])
        for label, series in [("A", treated)] + sorted(donors.items()):
            for period, value in zip(range(1, t_total + 1), series):
                writer.writerow([label, period, repr(scale * float(value))])
    return path


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# estimate


def test_estimate_writes_artifacts(tmp_path):
    panel_csv = write_panel_csv(tmp_path / "panel.csv")
    out = tmp_path / "run"
    code = cli.main(
        [
            "estimate",
            "--panel",
            str(panel_csv),
            "--treated",
            "A",
            "--t0",
            "10",
            "--method",
            "hsc",
            "--rho",
            "0.5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    for name in ("counterfactual.csv", "components.csv", "weights.json", "manifest.json"):
        assert (out / name).exists()

    weights = json.loads((out / "weights.json").read_text())
    assert weights["method"] == "hsc"
    npt.assert_allclose(sum(weights["weights"].values()), 1.0, atol=1e-8)
    assert set(weights["weights"]) == {"B", "C", "D"}

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "estimate"
    assert manifest["tool_version"]
    assert len(manifest["input_digest"]) == 64
    assert isinstance(manifest["config_snapshot"]["zeta"], float)
    assert "timestamp" not in manifest


def test_estimate_output_round_trips_exactly(tmp_path):
    panel_csv = write_panel_csv(tmp_path / "panel.csv")
    out = tmp_path / "run"
    cli.main(
        ["estimate", "--panel", str(panel_csv), "--treated", "A", "--t0", "10",
         "--rho", "0.8", "--out", str(out)]
    )
    view = split(load_csv(str(panel_csv), "A", 10))
    fit = hsc.fit(view, hsc.HscConfig(rho=0.8))
    rows = read_rows(out / "counterfactual.csv")
    got = np.array([float(r["counterfactual"]) for r in rows])
    npt.assert_array_equal(got, fit.counterfactual)


def test_estimate_baseline_method(tmp_path):
    panel_csv = write_panel_csv(tmp_path / "panel.csv")
    out = tmp_path / "run"
    code = cli.main(
        ["estimate", "--panel", str(panel_csv), "--treated", "A", "--t0", "10",
         "--method", "sdid", "--out", str(out)]
    )
    assert code == 0
    weights = json.loads((out / "weights.json").read_text())
    assert weights["method"] == "sdid"
    assert "intercept" in weights
    rows = read_rows(out / "components.csv")
    for row in rows:
        total = float(row["donor_component"]) + float(row["adjustment"])
        npt.assert_allclose(total, float(row["counterfactual"]), rtol=1e-15)


def test_estimate_q2_past_420_pre_periods(tmp_path):
    # At 421 pre-periods the smallest nonzero q=2 eigenvalue is 1.59e-8.
    panel_csv = write_panel_csv(tmp_path / "panel.csv", t_total=425)
    code = cli.main(
        ["estimate", "--panel", str(panel_csv), "--treated", "A", "--t0", "421",
         "--q", "2", "--rho", "0.5", "--out", str(tmp_path / "run")]
    )
    assert code == 0


def test_estimate_validation_failures(tmp_path, capsys):
    panel_csv = write_panel_csv(tmp_path / "panel.csv")
    base = ["estimate", "--panel", str(panel_csv), "--treated", "A", "--t0", "10",
            "--out", str(tmp_path / "x")]
    assert cli.main(base + ["--rho", "1.5"]) == 1
    assert "error:" in capsys.readouterr().err
    assert cli.main(base + ["--method", "wavelets"]) == 1
    assert cli.main(base[:2] + [str(tmp_path / "nope.csv")] + base[3:] + ["--rho", "0.5"]) == 1
    # hsc without --rho is a validation problem, not a crash
    assert cli.main(base) == 1
    assert "--rho" in capsys.readouterr().err


def test_estimate_non_finite_zeta_names_zeta(tmp_path, capsys):
    panel_csv = write_panel_csv(tmp_path / "panel.csv")
    base = ["estimate", "--panel", str(panel_csv), "--treated", "A", "--t0", "10",
            "--rho", "0.5", "--out", str(tmp_path / "x")]
    for zeta in ("nan", "inf"):
        assert cli.main(base + ["--zeta", zeta]) == 1
        assert "zeta must be finite" in capsys.readouterr().err


def test_estimate_overflowing_levels_name_the_cell(tmp_path, capsys):
    panel_csv = write_panel_csv(tmp_path / "panel.csv", scale=1e200)
    code = cli.main(
        ["estimate", "--panel", str(panel_csv), "--treated", "A", "--t0", "10",
         "--rho", "0.5", "--out", str(tmp_path / "x")]
    )
    assert code == 1
    err = capsys.readouterr().err
    # The cell is named by the file's labels: the treated unit A at time 1.
    assert "outcome 2.6076e+200 at (time='1', unit='A')" in err
    assert "gram" not in err


@pytest.mark.parametrize("t0", [3, 4, 5])
def test_estimate_too_short_for_the_forecaster_exits_1(tmp_path, capsys, t0):
    # A pre-period too short for its rule is an input problem, not a
    # numerical failure.
    panel_csv = write_panel_csv(tmp_path / "panel.csv", t_total=30)
    code = cli.main(
        ["estimate", "--panel", str(panel_csv), "--treated", "A", "--t0", str(t0),
         "--rho", "0.5", "--forecaster", "ar", "--out", str(tmp_path / "x")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert f"ar(4) needs at least 6 observations, got {t0}" in err
    assert "numerical failure" not in err


def stalled_solve(problem, **kwargs):
    raise qp.SolverStall("no certified point", solution=None)


REAL_SVD = np.linalg.svd


def singular_svd(a, full_matrices=True):
    u, s, vt = REAL_SVD(a, full_matrices=full_matrices)
    return np.full_like(u, np.nan), s, vt


@pytest.mark.parametrize(
    "target, name, fake, message",
    [(qp, "solve", stalled_solve, "no certified point"),
     (np.linalg, "svd", singular_svd, "ar regression is singular")],
)
def test_estimate_numerical_failure_exits_2(
    tmp_path, capsys, monkeypatch, target, name, fake, message
):
    panel_csv = write_panel_csv(tmp_path / "panel.csv")
    monkeypatch.setattr(target, name, fake)
    code = cli.main(
        ["estimate", "--panel", str(panel_csv), "--treated", "A", "--t0", "10",
         "--rho", "0.5", "--forecaster", "ar", "--out", str(tmp_path / "x")]
    )
    assert code == 2
    assert f"error: numerical failure: {message}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# cv


def test_cv_outputs_and_tie_rule(tmp_path):
    panel_csv = write_panel_csv(tmp_path / "panel.csv", noise=0.0)
    out = tmp_path / "cv"
    code = cli.main(
        ["cv", "--panel", str(panel_csv), "--treated", "A", "--t0", "10",
         "--folds", "3", "--candidates", "1:last_constant,1:arima110",
         "--zeta", "0", "--out", str(out)]
    )
    assert code == 0
    rows = read_rows(out / "cv_table.csv")
    assert list(rows[0]) == ["rho", "q", "forecaster", "cv_mspe"]
    assert len(rows) == 2 * 21
    assert {r["forecaster"] for r in rows} == {"last_constant", "arima110"}

    selection = json.loads((out / "selection.json").read_text())
    # Exact donor combination: every grid point fits perfectly, and ties
    # resolve to the largest rho.
    assert selection["best_rho"] == 1.0
    assert selection["best_q"] == 1
    assert selection["excluded"] == []
    assert selection["origins"] == [7, 8, 9]


def test_cv_infeasible_folds_exit(tmp_path, capsys):
    panel_csv = write_panel_csv(tmp_path / "panel.csv")
    code = cli.main(
        ["cv", "--panel", str(panel_csv), "--treated", "A", "--t0", "10",
         "--h", "8", "--folds", "9", "--out", str(tmp_path / "cv")]
    )
    assert code == 1
    assert "largest feasible fold count" in capsys.readouterr().err


def test_cv_short_first_window_exit(tmp_path, capsys):
    # At t0 = 3, one-step folds train the first fold on one period: the
    # fold layout is named, not a failure deep inside the weight solve.
    panel_csv = write_panel_csv(tmp_path / "panel.csv")
    code = cli.main(
        ["cv", "--panel", str(panel_csv), "--treated", "A", "--t0", "3",
         "--h", "1", "--folds", "2", "--out", str(tmp_path / "cv")]
    )
    assert code == 1
    assert "1-period first training window; q=1 needs 3" in capsys.readouterr().err


def test_cv_overflowing_levels_exit(tmp_path, capsys):
    # Squares of levels near 1e301 overflow: an input error, not a traceback.
    panel_csv = write_panel_csv(tmp_path / "panel.csv", scale=1e301)
    code = cli.main(
        ["cv", "--panel", str(panel_csv), "--treated", "A", "--t0", "10",
         "--folds", "3", "--out", str(tmp_path / "cv")]
    )
    assert code == 1
    assert "exceeds 1e+100 in magnitude" in capsys.readouterr().err


def test_cv_log_lambda_grid(tmp_path):
    panel_csv = write_panel_csv(tmp_path / "panel.csv")
    out = tmp_path / "cv"
    code = cli.main(
        ["cv", "--panel", str(panel_csv), "--treated", "A", "--t0", "10",
         "--folds", "2", "--grid", "log_lambda", "--out", str(out)]
    )
    assert code == 0
    rho_values = [float(r["rho"]) for r in read_rows(out / "cv_table.csv")]
    assert rho_values[0] == 0.0 and rho_values[-1] == 1.0
    assert len(rho_values) == 23


# ---------------------------------------------------------------------------
# config file


def test_config_file_supplies_and_flags_override(tmp_path):
    panel_csv = write_panel_csv(tmp_path / "panel.csv")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"rho": 0.3, "q": 1, "t0": 10, "treated": "A"}))
    base = ["estimate", "--panel", str(panel_csv), "--config", str(config)]

    out_a = tmp_path / "a"
    assert cli.main(base + ["--out", str(out_a)]) == 0
    snap_a = json.loads((out_a / "manifest.json").read_text())["config_snapshot"]
    assert snap_a["rho"] == 0.3

    out_b = tmp_path / "b"
    assert cli.main(base + ["--rho", "0.7", "--out", str(out_b)]) == 0
    snap_b = json.loads((out_b / "manifest.json").read_text())["config_snapshot"]
    assert snap_b["rho"] == 0.7


@pytest.mark.parametrize(
    "key, value",
    [("zeta", None), ("rho", None), ("t0", [80]), ("treated", {"id": "A"})],
    ids=["zeta-null", "rho-null", "t0-list", "treated-object"],
)
def test_config_value_of_wrong_json_type_exits(tmp_path, capsys, key, value):
    panel_csv = write_panel_csv(tmp_path / "panel.csv")
    settings = {"rho": 0.3, "t0": 10, "treated": "A", key: value}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(settings))
    code = cli.main(["estimate", "--panel", str(panel_csv), "--config", str(config),
                     "--out", str(tmp_path / "x")])
    assert code == 1
    assert repr(key) in capsys.readouterr().err


def test_config_key_that_is_no_flag_exits(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"tpsot": 3}))
    code = cli.main(["simulate", "--design", "simple", "--kappa", "0", "--reps", "1",
                     "--config", str(config), "--out", str(tmp_path / "s")])
    assert code == 1
    assert "'tpsot'" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


# ---------------------------------------------------------------------------
# simulate


def simulate_args(out, threads, seed="7"):
    return [
        "simulate", "--design", "simple", "--kappa", "2", "--reps", "3",
        "--seed", seed, "--t0", "16", "--tpost", "2", "--n0", "3",
        "--folds", "2", "--methods", "sc,hsc:1:last_constant",
        "--threads", str(threads), "--out", str(out),
    ]


def test_simulate_outputs_and_thread_invariance(tmp_path):
    out_1 = tmp_path / "t1"
    out_3 = tmp_path / "t3"
    assert cli.main(simulate_args(out_1, threads=1)) == 0
    assert cli.main(simulate_args(out_3, threads=3)) == 0
    assert (out_1 / "errors.csv").read_bytes() == (out_3 / "errors.csv").read_bytes()
    assert (
        out_1 / "summary.json"
    ).read_bytes() == (out_3 / "summary.json").read_bytes()

    rows = read_rows(out_1 / "errors.csv")
    assert list(rows[0]) == ["method", "rep", "period", "error"]
    assert len(rows) == 2 * 3 * 2  # methods x reps x periods
    summary = json.loads((out_1 / "summary.json").read_text())
    hsc_summary = summary["methods"]["hsc:1:last_constant"]
    assert len(hsc_summary["rho_hat_samples"]) == 3
    assert hsc_summary["failures"] == 0


def test_simulate_is_seed_sensitive(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli.main(simulate_args(out_a, threads=1, seed="7")) == 0
    assert cli.main(simulate_args(out_b, threads=1, seed="8")) == 0
    assert (out_a / "errors.csv").read_bytes() != (out_b / "errors.csv").read_bytes()


def test_threads_below_one_exit(tmp_path, capsys):
    assert cli.main(simulate_args(tmp_path / "t0", threads=0)) == 1
    assert "--threads must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "t0" / "errors.csv").exists()


def test_cli_and_study_share_the_baseline_registry(tmp_path, monkeypatch):
    # Both front ends look the fitter up on the baselines module at call
    # time, so a patched attribute is what runs.
    calls = []
    real_sdid = baselines.fit_sdid

    def patched(view, *args, **kwargs):
        calls.append(view.t0)
        return real_sdid(view, *args, **kwargs)

    monkeypatch.setattr(baselines, "fit_sdid", patched)
    panel_csv = write_panel_csv(tmp_path / "panel.csv")
    code = cli.main(
        ["estimate", "--panel", str(panel_csv), "--treated", "A", "--t0", "10",
         "--method", "sdid", "--out", str(tmp_path / "est")]
    )
    assert code == 0
    assert calls == [10]
    cfg = mc.SimpleDgpConfig(kappa=2.0, master_seed=3, t0=16, t_post=2, n0=3)
    table = mc.run_study("simple", cfg, ("sdid",), reps=2)
    assert calls == [10, 16, 16]
    assert table.failures["sdid"] == 0


def test_simulate_grid_with_fewer_than_eight_donors(tmp_path):
    out = tmp_path / "g"
    code = cli.main(["simulate", "--design", "grid", "--kappa", "1", "--reps", "1",
                     "--t0", "20", "--tpost", "3", "--n0", "5", "--folds", "2",
                     "--out", str(out)])
    assert code == 0
    assert len(read_rows(out / "errors.csv")) == 2 * 1 * 3  # methods x reps x periods


def test_simulate_unknown_method_exit(tmp_path, capsys):
    code = cli.main(
        ["simulate", "--design", "simple", "--kappa", "0", "--reps", "1",
         "--methods", "sc,telepathy", "--out", str(tmp_path / "s")]
    )
    assert code == 1
    assert "unknown method token" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# decompose


def test_decompose_schema(tmp_path):
    out = tmp_path / "dec"
    code = cli.main(
        ["decompose", "--design", "simple", "--kappa", "2", "--reps", "2",
         "--seed", "3", "--t0", "12", "--tpost", "2", "--n0", "3",
         "--out", str(out)]
    )
    assert code == 0
    with open(out / "decomposition.csv", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        body = list(reader)
    assert header == [
        "rho", "rmse", "term_a_norm", "term_b_norm",
        "a1", "a2", "a3", "lambda_max_q_inv", "transfer", "envelope",
    ]
    assert len(body) == 19
    summary = json.loads((out / "summary.json").read_text())
    assert summary["reps"] == 2
    assert 0.0 <= summary["best_rho_by_rmse"] <= 1.0


def test_decompose_rejects_grid_design(tmp_path, capsys):
    code = cli.main(
        ["decompose", "--design", "grid", "--kappa", "1", "--out",
         str(tmp_path / "d")]
    )
    assert code == 1
    assert "simple" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# manifests


def test_identical_reruns_are_byte_identical(tmp_path):
    panel_csv = write_panel_csv(tmp_path / "panel.csv")
    args = ["estimate", "--panel", str(panel_csv), "--treated", "A",
            "--t0", "10", "--rho", "0.5"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(args + ["--out", str(out_a)]) == 0
    assert cli.main(args + ["--out", str(out_b)]) == 0
    for name in ("counterfactual.csv", "components.csv", "weights.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    # Manifests differ only in the output path they record.
    man_a = json.loads((out_a / "manifest.json").read_text())
    man_b = json.loads((out_b / "manifest.json").read_text())
    man_a["config_snapshot"].pop("out")
    man_b["config_snapshot"].pop("out")
    assert man_a == man_b
