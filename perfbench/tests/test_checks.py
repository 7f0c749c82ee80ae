"""Each workload check accepts the program's output and rejects a corrupted one.

The workloads run here on shortened pre-periods (t0=30) so that the tests
take seconds; the checks are the ones the benchmark runs.
"""

import copy
import dataclasses
import json
import shutil

import numpy as np
import pytest

import checks
import workloads


class SmallApplied(workloads.AppliedCold):
    t0 = 30


class SmallStudy(workloads.StudyWarm):
    t0, n0, folds = 30, 10, 5


class SmallDecompose(workloads.DecomposeQ2):
    t0 = 30


@pytest.fixture(scope="module")
def applied(tmp_path_factory):
    w = SmallApplied(3, tmp_path_factory.mktemp("applied"))
    w.setup()
    tried, lost, result = w.unit(0)
    assert (tried, lost) == (1, 0)
    return w, result


@pytest.fixture(scope="module")
def study():
    w = SmallStudy(2, None)
    w.setup()
    tried, lost, result = w.unit(0)
    assert (tried, lost) == (w.reps, 0)
    return w, result


@pytest.fixture(scope="module")
def decomposed():
    w = SmallDecompose(4, None)
    w.setup()
    tried, lost, result = w.unit(0)
    assert (tried, lost) == (1, 0)
    return w, result


# ---------------------------------------------------------------------------
# applied-cold


def test_applied_outputs_pass(applied):
    w, result = applied
    w.check(result)


def test_applied_rejects_wrong_selection(applied):
    w, (cv_out, est_out, chosen) = applied
    wrong = dict(chosen, best_rho=0.5 if chosen["best_rho"] != 0.5 else 0.55)
    with pytest.raises(checks.CheckFailed, match="selection"):
        w.check((cv_out, est_out, wrong))


def _tampered_estimate(est_out, tmp_path, edit):
    copy_dir = tmp_path / "estimate"
    shutil.copytree(est_out, copy_dir)
    edit(copy_dir)
    return copy_dir


def test_applied_rejects_perturbed_weights(applied, tmp_path):
    w, (cv_out, est_out, chosen) = applied

    def perturb(d):
        fitted = json.loads((d / "weights.json").read_text())
        labels = sorted(fitted["weights"], key=fitted["weights"].get)
        fitted["weights"][labels[-1]] -= 1e-4
        fitted["weights"][labels[0]] += 1e-4
        (d / "weights.json").write_text(json.dumps(fitted))

    with pytest.raises(checks.CheckFailed, match="KKT"):
        w.check((cv_out, _tampered_estimate(est_out, tmp_path, perturb), chosen))


def test_applied_rejects_inconsistent_components(applied, tmp_path):
    w, (cv_out, est_out, chosen) = applied

    def shift(d):
        lines = (d / "components.csv").read_text().splitlines()
        cells = lines[1].split(",")
        cells[2] = repr(float(cells[2]) + 1e-3)  # the adjustment column
        lines[1] = ",".join(cells)
        (d / "components.csv").write_text("\n".join(lines) + "\n")

    with pytest.raises(checks.CheckFailed, match="adjustment"):
        w.check((cv_out, _tampered_estimate(est_out, tmp_path, shift), chosen))


def test_selection_tie_rule():
    y, x = np.zeros(3), np.zeros((3, 2))
    rows = [(0.0, 1, "a", 1.0), (0.5, 1, "a", 0.5), (1.0, 1, "a", 0.5),
            (0.0, 2, "b", 0.5), (0.5, 2, "b", 2.0), (1.0, 2, "b", 2.0)]
    # Equal minima: the larger rho within a candidate, the earlier candidate.
    assert checks.expected_selection(rows, y, x) == (1.0, 1, "a")
    rows[3] = (0.0, 2, "b", 0.25)
    assert checks.expected_selection(rows, y, x) == (0.0, 2, "b")
    rows[4] = (0.5, 2, "b", float("nan"))  # an excluded candidate cannot win
    assert checks.expected_selection(rows, y, x) == (1.0, 1, "a")
    with pytest.raises(checks.CheckFailed):
        checks.selection(rows, (0.5, 1, "a"), y, x)


def test_dense_metric_endpoints_are_limits():
    n = 20
    for q in (1, 2):
        k = checks.penalty(n, q)
        assert np.allclose(checks.metric(n, q, 1e-9), k, atol=1e-6)
        assert np.allclose(checks.metric(n, q, 1.0 - 1e-12), checks.metric(n, q, 1.0), atol=1e-3)
        # I - P0 annihilates polynomials of degree < q.
        t = np.arange(n, dtype=float)
        assert np.allclose(checks.metric(n, q, 1.0) @ t ** (q - 1), 0.0, atol=1e-10)


# ---------------------------------------------------------------------------
# study-warm


def test_study_outputs_pass(study):
    w, result = study
    w.check(result)


def test_study_rejects_shifted_errors(study):
    w, (cfg, table) = study
    bad = copy.deepcopy(table)
    bad.errors[w.methods[0]][0] += 1e-6
    with pytest.raises(checks.CheckFailed, match="refit"):
        w.check((cfg, bad))


def test_study_rejects_off_grid_rho(study):
    w, (cfg, table) = study
    bad = copy.deepcopy(table)
    bad.rho_hat_samples[w.methods[0]] = bad.rho_hat_samples[w.methods[0]] + 0.01
    with pytest.raises(checks.CheckFailed, match="grid"):
        w.check((cfg, bad))


def test_study_rejects_broken_pooled_identity(study):
    w, (cfg, table) = study
    bad = copy.deepcopy(table)
    bad.pooled_variance["sdid"] *= 1.01
    with pytest.raises(checks.CheckFailed, match="bias"):
        w.check((cfg, bad))


# ---------------------------------------------------------------------------
# decompose-q2


def test_decomposition_outputs_pass(decomposed):
    w, result = decomposed
    w.check(result)


@pytest.mark.parametrize(
    "field, corrupt, message",
    [
        ("term_b", lambda r: r.term_b + 1e-6, "term_a"),
        ("envelope", lambda r: 0.5 * np.linalg.norm(r.term_a, axis=1), "envelope"),
        ("q_max_inv_eig", lambda r: 2.0 / r.zeta**2 + 0.0 * r.q_max_inv_eig, "zeta"),
        ("oracle_weights", lambda r: np.roll(r.oracle_weights, 1), "oracle"),
    ],
)
def test_decomposition_rejects_corruption(decomposed, field, corrupt, message):
    w, (latent, report) = decomposed
    bad = dataclasses.replace(report, **{field: corrupt(report)})
    with pytest.raises(checks.CheckFailed, match=message):
        w.check((latent, bad))
