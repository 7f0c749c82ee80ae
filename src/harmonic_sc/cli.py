"""Command-line front end: estimate, cross-validate, simulate, decompose.

Every run writes its outputs plus a single ``manifest.json`` recording the
fully resolved parameter set, the tool version, and a content digest of any
input files — and nothing time- or host-dependent, so a rerun with an
identical manifest is byte-identical.  Tabular outputs are CSV with floats
at 17 significant digits (lossless for 64-bit values); scalar summaries are
JSON.

Exit codes: 0 success, 1 validation problem (bad flags, malformed input,
infeasible layout), 2 numerical failure inside an estimator.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, baselines, decomp, forecast, hsc, mc, qp, spectral, tuning
from .panel import PanelDataError, load_csv, split

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2

_VALIDATION_ERRORS = (ValueError, PanelDataError, OSError, json.JSONDecodeError)
_NUMERICAL_ERRORS = (qp.SolverStall, forecast.ForecastError, spectral.EigenSolverError)


# ---------------------------------------------------------------------------
# Serialization helpers


def _fmt(value) -> str:
    """One CSV cell: floats at 17 significant digits, ints plain."""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])


def _jsonable(obj):
    """Recursively convert to plain JSON types; non-finite floats -> null."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        return value if np.isfinite(value) else None
    return obj


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _digest(paths) -> str:
    """sha256 over the raw bytes of the input files, in argument order."""
    sha = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            sha.update(fh.read())
    return sha.hexdigest() if paths else ""


def _write_manifest(out_dir: Path, command: str, resolved: dict, inputs) -> None:
    _write_json(
        out_dir / "manifest.json",
        {
            "command": command,
            "config_snapshot": resolved,
            "seed": resolved.get("seed"),
            "tool_version": __version__,
            "input_digest": _digest(inputs),
        },
    )


# ---------------------------------------------------------------------------
# Argument handling

_DEFAULTS = {
    "estimate": {
        "method": "hsc",
        "q": 1,
        "forecaster": "last_constant",
        "zeta": "auto",
    },
    "cv": {
        "h": 1,
        "folds": 10,
        "grid": "uniform",
        "candidates": "1:last_constant",
        "zeta": "auto",
    },
    "simulate": {
        "rho_u": 0.0,
        "methods": "hsc:1:last_constant,sc_int",
        "seed": 0,
        "h": 1,
        "folds": 10,
        "threads": 1,
    },
    "decompose": {
        "reps": 50,
        "seed": 0,
        "q": 1,
        "forecaster": "last_constant",
        "zeta": "auto",
        "threads": 1,
    },
}

# Reps when the flag is absent: enough for a desk check, far below the full
# study scale.
_DESK_REPS = {"grid": 100, "simple": 50}


def _add(parser, *names, **kwargs):
    kwargs.setdefault("default", argparse.SUPPRESS)
    parser.add_argument(*names, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harmonic-sc",
        description="Synthetic control estimation with a tunable "
        "smoothness-weighted matching metric.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="fit one method on a panel CSV")
    _add(est, "--panel", help="long-format CSV with columns unit,time,outcome")
    _add(est, "--treated", help="unit label of the treated series")
    _add(est, "--t0", type=int, help="number of pre-treatment periods")
    _add(est, "--method", help="hsc | sc | sc_int | sc_int_trend | diff_sc | sdid")
    _add(est, "--rho", type=float, help="smoothing level in [0, 1] (hsc only)")
    _add(est, "--q", type=int, help="penalty order, 1 or 2")
    _add(est, "--forecaster", help="residual continuation rule (hsc only)")
    _add(est, "--zeta", help='ridge level: "auto" or a number')

    cv = sub.add_parser("cv", help="rolling-origin cross-validation on a panel CSV")
    _add(cv, "--panel")
    _add(cv, "--treated")
    _add(cv, "--t0", type=int)
    _add(cv, "--h", type=int, help="forecast horizon of each fold")
    _add(cv, "--folds", type=int)
    _add(cv, "--grid", help="uniform | log_lambda")
    _add(cv, "--candidates", help="comma list of q:rule pairs")
    _add(cv, "--zeta")

    sim = sub.add_parser("simulate", help="replicate a simulation design")
    _add(sim, "--design", help="grid | simple")
    _add(sim, "--kappa", type=float)
    _add(sim, "--rho-u", dest="rho_u", type=float)
    _add(sim, "--reps", type=int)
    _add(sim, "--methods", help="comma list of method tokens")
    _add(sim, "--seed", type=int)
    _add(sim, "--h", type=int, help="cross-validation horizon for hsc tokens")
    _add(sim, "--folds", type=int)
    _add(sim, "--threads", type=int, help="worker threads >= 1 (default 1; GIL-bound)")
    _add(sim, "--t0", type=int, help="override the design's pre-period length")
    _add(sim, "--tpost", type=int, help="override the post-period length")
    _add(sim, "--n0", type=int, help="override the donor count")

    dec = sub.add_parser(
        "decompose", help="error anatomy on simulated panels (latent truth)"
    )
    _add(dec, "--design", help="must be simple")
    _add(dec, "--kappa", type=float)
    _add(dec, "--reps", type=int)
    _add(dec, "--seed", type=int)
    _add(dec, "--q", type=int)
    _add(dec, "--forecaster")
    _add(dec, "--zeta")
    _add(dec, "--threads", type=int, help="worker threads, as for simulate")
    _add(dec, "--t0", type=int)
    _add(dec, "--tpost", type=int)
    _add(dec, "--n0", type=int)

    for p in (est, cv, sim, dec):
        _add(p, "--config", help="JSON file supplying any flag; flags override it")
        _add(p, "--out", help="output directory (created if absent)")
    return parser


def _resolve(ns: argparse.Namespace) -> dict:
    """Defaults <- config file <- explicit flags, in increasing priority."""
    explicit = {k: v for k, v in vars(ns).items() if k != "command"}
    resolved = dict(_DEFAULTS[ns.command])
    config_path = explicit.pop("config", None)
    if config_path is not None:
        with open(config_path, encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("--config file must hold a JSON object of flags")
        for key, value in loaded.items():
            if not isinstance(value, (str, int, float)):
                raise ValueError(
                    f"--config value of {key!r} must be a string, number or "
                    f"boolean, got {json.dumps(value)}"
                )
            resolved[key.replace("-", "_")] = value
    resolved.update(explicit)
    resolved["command"] = ns.command
    return resolved


def _require(resolved: dict, *keys) -> None:
    missing = [k for k in keys if k not in resolved]
    if missing:
        flags = ", ".join("--" + k.replace("_", "-") for k in missing)
        raise ValueError(f"missing required flags: {flags}")


def _zeta_value(raw):
    if isinstance(raw, str) and raw != "auto":
        return float(raw)  # raises ValueError on junk
    return raw if isinstance(raw, str) else float(raw)


def _out_dir(resolved: dict) -> Path:
    out = Path(resolved["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _thread_count(resolved: dict) -> int:
    threads = int(resolved["threads"])
    if threads < 1:
        raise ValueError(f"--threads must be at least 1, got {threads}")
    return threads


# ---------------------------------------------------------------------------
# Subcommands


def _load_view(resolved):
    panel = load_csv(resolved["panel"], resolved["treated"], int(resolved["t0"]))
    return panel, split(panel)


def cmd_estimate(resolved: dict) -> int:
    _require(resolved, "panel", "treated", "t0", "out")
    panel, view = _load_view(resolved)
    method = resolved["method"]
    extras: dict = {}
    if method == "hsc":
        _require(resolved, "rho")
        zeta = _zeta_value(resolved["zeta"])
        cfg = hsc.HscConfig(
            rho=float(resolved["rho"]),
            q=int(resolved["q"]),
            rule_kind=resolved["forecaster"],
            zeta=zeta,
        )
        fit = hsc.fit(view, cfg)
        weights = fit.weights
        counterfactual = fit.counterfactual
        donor_part = fit.donor_component
        solution = fit.solution
        extras = {
            "rho": cfg.rho,
            "q": cfg.q,
            "forecaster": cfg.rule_kind,
            "zeta": fit.zeta,
        }
    elif method in baselines.METHODS:
        fit = baselines.fit(method, view)
        weights = fit.weights
        counterfactual = fit.counterfactual
        donor_part = view.x_post @ weights
        solution = fit.solution
        extras = dict(fit.aux)
    else:
        raise ValueError(f"unknown method token {method!r}")

    out = _out_dir(resolved)
    post_labels = panel.time_labels[panel.t0 :] or list(
        range(panel.t0 + 1, panel.t0 + panel.t_post + 1)
    )
    _write_csv(
        out / "counterfactual.csv",
        ["period", "actual", "counterfactual", "gap"],
        [
            (label, actual, fitted, actual - fitted)
            for label, actual, fitted in zip(
                post_labels, view.y_post, counterfactual
            )
        ],
    )
    _write_csv(
        out / "components.csv",
        ["period", "donor_component", "adjustment", "counterfactual"],
        [
            (label, donor, fitted - donor, fitted)
            for label, donor, fitted in zip(post_labels, donor_part, counterfactual)
        ],
    )
    _write_json(
        out / "weights.json",
        {
            "method": method,
            "weights": dict(zip(panel.donor_labels, weights)),
            "kkt_residual": solution.kkt_residual,
            "objective": solution.objective,
            **extras,
        },
    )
    resolved = dict(resolved)
    if method == "hsc":
        resolved["zeta"] = fit.zeta  # echo the resolved ridge level
    _write_manifest(out, "estimate", resolved, [resolved["panel"]])
    return EXIT_OK


def _parse_candidates(raw: str):
    pairs = []
    for item in raw.split(","):
        q, _, rule = item.strip().partition(":")
        if not rule:
            raise ValueError(
                f"bad candidate {item!r}; expected q:rule like 1:last_constant"
            )
        pairs.append((int(q), rule))
    return tuple(pairs)


def cmd_cv(resolved: dict) -> int:
    _require(resolved, "panel", "treated", "t0", "out")
    _, view = _load_view(resolved)
    grid_token = resolved["grid"]
    if grid_token == "uniform":
        rho_grid = tuning.uniform_grid()
    elif grid_token == "log_lambda":
        rho_grid = tuning.log_lambda_grid()
    else:
        raise ValueError(f"unknown grid {grid_token!r}; use uniform or log_lambda")
    plan = tuning.CvPlan(
        h=int(resolved["h"]),
        folds=int(resolved["folds"]),
        rho_grid=rho_grid,
        grid_mode=grid_token,
        candidates=_parse_candidates(resolved["candidates"]),
        zeta=_zeta_value(resolved["zeta"]),
    )
    result = tuning.cross_validate(view.y_pre, view.x_pre, plan)

    out = _out_dir(resolved)
    rows = []
    for ci, (q, rule) in enumerate(result.candidates):
        for gi, rho in enumerate(result.rho_grid):
            rows.append((rho, q, rule, result.table[ci, gi]))
    _write_csv(out / "cv_table.csv", ["rho", "q", "forecaster", "cv_mspe"], rows)
    _write_json(
        out / "selection.json",
        {
            "best_rho": result.best_rho,
            "best_q": result.best_candidate[0],
            "best_forecaster": result.best_candidate[1],
            "best_value": result.best_value,
            "origins": list(result.origins),
            "excluded": [
                {"q": cand[0], "forecaster": cand[1], "fold": fold, "reason": why}
                for cand, fold, why in result.excluded
            ],
        },
    )
    _write_manifest(out, "cv", resolved, [resolved["panel"]])
    return EXIT_OK


def _sim_config(resolved: dict):
    design = resolved["design"]
    overrides = {
        name: int(resolved[key])
        for key, name in (("t0", "t0"), ("tpost", "t_post"), ("n0", "n0"))
        if key in resolved
    }
    if design == "grid":
        cfg = mc.GridDgpConfig(
            kappa=float(resolved["kappa"]),
            rho_u=float(resolved["rho_u"]),
            master_seed=int(resolved["seed"]),
            **overrides,
        )
    elif design == "simple":
        cfg = mc.SimpleDgpConfig(
            kappa=float(resolved["kappa"]),
            master_seed=int(resolved["seed"]),
            **overrides,
        )
    else:
        raise ValueError(f"unknown design {design!r}; use grid or simple")
    return design, cfg


def cmd_simulate(resolved: dict) -> int:
    _require(resolved, "design", "kappa", "out")
    design, cfg = _sim_config(resolved)
    reps = int(resolved.get("reps", _DESK_REPS[design]))
    methods = tuple(tok.strip() for tok in resolved["methods"].split(","))
    table = mc.run_study(
        design,
        cfg,
        methods,
        reps=reps,
        h=int(resolved["h"]),
        folds=int(resolved["folds"]),
        threads=_thread_count(resolved),
    )

    out = _out_dir(resolved)
    rows = []
    for token in table.method_tokens:
        err = table.errors[token]
        for rep in range(err.shape[0]):
            for period in range(err.shape[1]):
                rows.append((token, rep + 1, period + 1, err[rep, period]))
    _write_csv(out / "errors.csv", ["method", "rep", "period", "error"], rows)
    _write_json(
        out / "summary.json",
        {
            "design": design,
            "kappa": table.kappa,
            "rho_u": table.rho_u,
            "reps": reps,
            "h": table.h,
            "methods": {
                token: {
                    "pooled_rmse": table.pooled_rmse[token],
                    "pooled_bias": table.pooled_bias[token],
                    "pooled_variance": table.pooled_variance[token],
                    "per_period_rmse": table.per_period_rmse[token],
                    "failures": table.failures[token],
                    **(
                        {"rho_hat_samples": table.rho_hat_samples[token]}
                        if token in table.rho_hat_samples
                        else {}
                    ),
                }
                for token in table.method_tokens
            },
        },
    )
    snapshot = dict(resolved)
    snapshot["reps"] = reps
    _write_manifest(out, "simulate", snapshot, [])
    return EXIT_OK


def cmd_decompose(resolved: dict) -> int:
    _require(resolved, "design", "kappa", "out")
    if resolved["design"] != "simple":
        raise ValueError(
            "decompose requires --design simple (latent truth is available "
            "only for simulated panels)"
        )
    _, cfg = _sim_config(resolved)
    reps = int(resolved["reps"])
    if reps < 1:
        raise ValueError("reps must be >= 1")
    q = int(resolved["q"])
    rule = resolved["forecaster"]
    zeta = _zeta_value(resolved["zeta"])

    def one_rep(rep: int):
        _, latent = mc.simulate_simple(cfg, rep)
        report = decomp.decompose(latent, q=q, rule_kind=rule, zeta=zeta)
        return np.column_stack(
            [
                report.rmse,
                np.linalg.norm(report.term_a, axis=1),
                np.linalg.norm(report.term_b, axis=1),
                report.a1,
                report.a2,
                report.a3,
                report.q_max_inv_eig,
                report.transfer,
                report.envelope,
            ]
        )

    stacks = mc.map_replications(one_rep, reps, _thread_count(resolved))
    mean = np.mean(np.stack(stacks), axis=0)
    grid = np.array(decomp.DEFAULT_RHO_GRID)

    out = _out_dir(resolved)
    header = [
        "rho",
        "rmse",
        "term_a_norm",
        "term_b_norm",
        "a1",
        "a2",
        "a3",
        "lambda_max_q_inv",
        "transfer",
        "envelope",
    ]
    _write_csv(
        out / "decomposition.csv",
        header,
        [(grid[g], *mean[g]) for g in range(grid.size)],
    )
    _write_json(
        out / "summary.json",
        {
            "design": "simple",
            "kappa": cfg.kappa,
            "reps": reps,
            "q": q,
            "forecaster": rule,
            "best_rho_by_rmse": float(grid[int(np.argmin(mean[:, 0]))]),
        },
    )
    _write_manifest(out, "decompose", resolved, [])
    return EXIT_OK


_COMMANDS = {
    "estimate": cmd_estimate,
    "cv": cmd_cv,
    "simulate": cmd_simulate,
    "decompose": cmd_decompose,
}


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        resolved = _resolve(ns)
        return _COMMANDS[ns.command](resolved)
    except _NUMERICAL_ERRORS as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
