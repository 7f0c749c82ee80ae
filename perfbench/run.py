"""Benchmark of the harmonic_sc package: one workload, one process.

    python3 perfbench/run.py --workload applied-cold --seed 1 --seconds 30 --trace 0

Runs the workload's set-up, then a window of ``--seconds`` that holds timed
units and repeats of the set-up between them, checking every unit's output
outside the timed part.  The median set-up time is reported.  The last line
of standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` every layer entry point is wrapped and the metrics are per
layer: the set-up's share plus the mean per unit.  See README.md in this directory.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before NumPy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import sys
import traceback
import warnings
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Set-ups per untraced run.  The first precedes the window; the others are
#: spread over it, so that their median samples the shared machine at several
#: moments rather than once.  study-warm builds eleven bases per set-up (about
#: 12 s), so it sets up twice; the others take milliseconds to a second.
SETUP_REPEATS = {"applied-cold": 5, "study-warm": 2, "decompose-q2": 5}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUP_REPEATS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(workload_name: str, seed: int, seconds: float, traced: bool) -> dict:
    """One benchmark run; returns the result object printed as JSON.

    The package must already be importable (see :func:`main`).
    """
    import checks
    import tracing
    import workloads

    workdir = HERE / "_work" / f"{workload_name}-{os.getpid()}"
    workload = workloads.WORKLOADS[workload_name](seed, workdir)
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
    repeats = 1 if tracer else SETUP_REPEATS[workload_name]
    setup_times = []

    def set_up():
        workloads.reset_caches()
        t = perf_counter()
        workload.setup()
        setup_times.append(perf_counter() - t)

    try:
        set_up()
        after_setup = tracer.mark() if tracer else None

        correct = True
        attempted = failed = 0
        unit_times = []  # wall time per operation, one entry per call
        timed = 0.0  # unit time
        window = 0.0  # unit time plus the set-ups repeated in the window
        while window < seconds or not unit_times:
            t = perf_counter()
            try:
                tried, lost, result = workload.unit(len(unit_times))
            except Exception:
                traceback.print_exc()
                tried, lost, result = 1, 1, None
            elapsed = perf_counter() - t
            timed += elapsed
            window += elapsed
            unit_times.append(elapsed / tried)
            attempted += tried
            failed += lost
            while len(setup_times) < repeats and window >= seconds * len(setup_times) / repeats:
                set_up()
                window += setup_times[-1]
            if result is None:
                continue
            if tracer:
                tracer.enabled = False
            try:
                workload.check(result)
            except checks.CheckFailed as exc:
                print(f"check failed: {exc}", file=sys.stderr)
                correct = False
            finally:
                if tracer:
                    tracer.enabled = True
    finally:
        if tracer:
            tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer:
        setup_part = tracing.layer_metrics(tracer.layer_totals(until=after_setup))
        unit_part = tracing.layer_metrics(tracer.layer_totals(since=after_setup))
        values = {k: setup_part[k] + unit_part[k] / attempted for k in setup_part}
        values["qp.iters_per_solve"] = (
            values["qp.iterations"] / values["qp.solves"] if values["qp.solves"] else 0.0
        )
        values["trace.unit_s_p50"] = statistics.median(unit_times)
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in tracing.UNITS.items()}
    else:
        metrics = {
            "unit_s_p50": {"value": statistics.median(unit_times), "unit": "s"},
            "units_per_s": {"value": (attempted - failed) / timed, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    print(f"{workload_name}: {attempted} units in {len(unit_times)} calls, "
          f"{failed} failed, {timed:.2f} s timed")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "harmonic_sc" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    # Nonstationary-fit warnings would otherwise print thousands of lines.
    warnings.simplefilter("ignore", RuntimeWarning)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
