"""In-memory span tracing around the package's public entry points.

:class:`Tracer` replaces module attributes with wrappers that record one
span per call — name, start, end and the enclosing span — plus per-name call
counts and any counters a result callback adds.  The package itself is not
modified: calls reach the wrappers because every caller looks the entry
point up on its module at call time.  Spans are kept in flat arrays until
:meth:`Tracer.layer_totals` aggregates them; a layer's self time is the
duration of its spans minus the time their child spans cover.

The tracer is single-threaded: the workloads run with one worker thread.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # One entry per finished span, written at its exit; ids are assigned
        # at entry, so a child's record names a parent not yet written.
        self.sid = array("q")
        self.parent = array("q")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self.overhead_s = 0.0
        self.enabled = True
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, owner, attr: str, span: str, on_result=None) -> None:
        """Trace every call of ``owner.attr`` as a span named ``span``.

        ``on_result(counters, result)`` runs after a call that returned.
        """
        original = getattr(owner, attr)
        name_id = self._intern(span)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            t_enter = perf_counter()
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            t_start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                t_end = perf_counter()
                self._stack.pop()
                self.sid.append(sid)
                self.parent.append(parent)
                self.name.append(name_id)
                self.start.append(t_start)
                self.end.append(t_end)
            if on_result is not None:
                on_result(self.counters, result)
            self.overhead_s += (t_start - t_enter) + (perf_counter() - t_end)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped attribute back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def mark(self) -> dict:
        """Position in the record, to aggregate the spans finished after it."""
        return {
            "spans": len(self.sid),
            "counters": Counter(self.counters),
            "overhead_s": self.overhead_s,
        }

    def layer_totals(self, since: dict | None = None, until: dict | None = None) -> dict:
        """Per span name: calls, total time and self time, over a record slice.

        Spans are counted in the slice in which they finished; their
        children always finish first, so a slice taken between top-level
        calls holds whole trees.
        """
        lo = since["spans"] if since else 0
        hi = until["spans"] if until else len(self.sid)
        sid = np.frombuffer(self.sid, dtype=np.int64)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int64)[lo:hi]
        name = np.frombuffer(self.name, dtype=np.int32)[lo:hi]
        dur = (
            np.frombuffer(self.end, dtype=np.float64)[lo:hi]
            - np.frombuffer(self.start, dtype=np.float64)[lo:hi]
        )
        # Child time per parent, mapped back onto the parent's record.
        row_of = {int(s): i for i, s in enumerate(sid)}
        child = np.zeros(sid.size)
        for p, d in zip(parent.tolist(), dur.tolist()):
            if p >= 0:
                child[row_of[p]] += d
        out = {}
        for i, label in enumerate(self.names):
            rows = name == i
            out[label] = {
                "calls": int(np.count_nonzero(rows)),
                "total_s": float(dur[rows].sum()),
                "self_s": float((dur[rows] - child[rows]).sum()),
            }
        c_lo = since["counters"] if since else Counter()
        c_hi = until["counters"] if until else self.counters
        out["counters"] = {k: c_hi[k] - c_lo.get(k, 0) for k in c_hi}
        o_lo = since["overhead_s"] if since else 0.0
        o_hi = until["overhead_s"] if until else self.overhead_s
        out["overhead_s"] = o_hi - o_lo
        return out


def _add_iterations(counters: Counter, solution) -> None:
    counters["qp.iterations"] += solution.iterations


def instrument(tracer: Tracer) -> None:
    """Wrap the public entry point of every layer of ``harmonic_sc``."""
    from harmonic_sc import baselines, cli, decomp, forecast, hsc, mc, panel, qp, spectral, tuning

    tracer.wrap(spectral, "eigendecompose", "spectral.eigendecompose")
    tracer.wrap(qp, "solve", "qp.solve", on_result=_add_iterations)
    tracer.wrap(forecast, "fit_composed", "forecast.fit_composed")
    tracer.wrap(forecast.ComposedForecaster, "apply", "forecast.apply")
    tracer.wrap(forecast, "null_continuation", "forecast.null_continuation")
    tracer.wrap(tuning, "cross_validate", "tuning.cross_validate")
    tracer.wrap(hsc, "fit", "hsc.fit")
    for name in ("fit_sc", "fit_sc_int", "fit_diff_sc", "fit_sdid"):
        tracer.wrap(baselines, name, f"baselines.{name}")
    tracer.wrap(decomp, "decompose", "decomp.decompose")
    tracer.wrap(decomp, "oracle_weights", "decomp.oracle_weights")
    tracer.wrap(mc, "run_study", "mc.run_study")
    tracer.wrap(mc, "simulate_grid", "mc.simulate_grid")
    tracer.wrap(mc, "simulate_simple", "mc.simulate_simple")
    # The CLI binds the loader by name at import, so both names are wrapped.
    tracer.wrap(panel, "load_csv", "panel.load_csv")
    tracer.wrap(cli, "load_csv", "panel.load_csv")
    tracer.wrap(cli, "main", "cli.main")


def layer_metrics(totals: dict) -> dict:
    """Per-layer metric values from :meth:`Tracer.layer_totals` output;
    their units are in :data:`UNITS`."""
    def calls(*names):
        return sum(totals[n]["calls"] for n in names)

    def self_s(*names):
        return sum(totals[n]["self_s"] for n in names)

    baselines = [n for n in totals if n.startswith("baselines.")]
    forecast = ("forecast.fit_composed", "forecast.apply", "forecast.null_continuation")
    simulate = ("mc.simulate_grid", "mc.simulate_simple")
    return {
        "spectral.bases_built": calls("spectral.eigendecompose"),
        "spectral.build_s": self_s("spectral.eigendecompose"),
        "qp.solves": calls("qp.solve"),
        "qp.iterations": totals["counters"].get("qp.iterations", 0),
        "qp.solve_s": self_s("qp.solve"),
        "forecast.fits": calls("forecast.fit_composed"),
        "forecast.applies": calls("forecast.apply"),
        "forecast.null_continuations": calls("forecast.null_continuation"),
        "forecast.self_s": self_s(*forecast),
        "tuning.cv_runs": calls("tuning.cross_validate"),
        "tuning.cv_self_s": self_s("tuning.cross_validate"),
        "hsc.fits": calls("hsc.fit"),
        "hsc.fit_self_s": self_s("hsc.fit"),
        "baselines.fits": calls(*baselines),
        "baselines.fit_self_s": self_s(*baselines),
        "decomp.oracle_solves": calls("decomp.oracle_weights"),
        "decomp.self_s": self_s("decomp.decompose", "decomp.oracle_weights"),
        "mc.simulations": calls(*simulate),
        "mc.simulate_s": self_s(*simulate),
        "mc.study_self_s": self_s("mc.run_study"),
        "panel.load_s": self_s("panel.load_csv"),
        "cli.self_s": self_s("cli.main"),
        "trace.overhead_s": totals["overhead_s"],
    }


#: Unit of every per-layer metric, in the order the README lists them.
UNITS = {
    "spectral.bases_built": "count",
    "spectral.build_s": "s",
    "qp.solves": "count",
    "qp.iterations": "count",
    "qp.iters_per_solve": "ratio",
    "qp.solve_s": "s",
    "forecast.fits": "count",
    "forecast.applies": "count",
    "forecast.null_continuations": "count",
    "forecast.self_s": "s",
    "tuning.cv_runs": "count",
    "tuning.cv_self_s": "s",
    "hsc.fits": "count",
    "hsc.fit_self_s": "s",
    "baselines.fits": "count",
    "baselines.fit_self_s": "s",
    "decomp.oracle_solves": "count",
    "decomp.self_s": "s",
    "mc.simulations": "count",
    "mc.simulate_s": "s",
    "mc.study_self_s": "s",
    "panel.load_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "trace.unit_s_p50": "s",
}
