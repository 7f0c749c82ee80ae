"""The tracer's arithmetic, and the traced run's counts repeating exactly."""

import time
import types

import pytest

import run
import tracing


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _toy_module():
    ns = types.SimpleNamespace()
    ns.inner = lambda: _busy(0.002)

    def outer():
        _busy(0.001)
        ns.inner()
        ns.inner()

    ns.outer = outer
    return ns


def test_self_time_is_span_time_minus_children():
    ns = _toy_module()
    original = ns.outer
    tracer = tracing.Tracer()
    tracer.wrap(ns, "outer", "toy.outer")
    tracer.wrap(ns, "inner", "toy.inner")
    ns.outer()
    totals = tracer.layer_totals()
    outer, inner = totals["toy.outer"], totals["toy.inner"]
    assert (outer["calls"], inner["calls"]) == (1, 2)
    assert inner["self_s"] == pytest.approx(inner["total_s"], abs=1e-12)
    assert outer["self_s"] == pytest.approx(outer["total_s"] - inner["total_s"], abs=1e-12)
    assert 0.0 < outer["self_s"] < inner["total_s"]
    assert totals["overhead_s"] > 0.0
    tracer.restore()
    assert ns.outer is original


def test_marks_split_the_record_and_disabling_records_nothing():
    ns = _toy_module()
    tracer = tracing.Tracer()
    tracer.wrap(ns, "outer", "toy.outer")
    ns.outer()
    mark = tracer.mark()
    ns.outer()
    tracer.enabled = False
    ns.outer()
    assert tracer.layer_totals(until=mark)["toy.outer"]["calls"] == 1
    assert tracer.layer_totals(since=mark)["toy.outer"]["calls"] == 1


#: Counts the benchmark's README cites; each must not depend on timing or seed.
EXACT = ("qp.solves", "spectral.bases_built", "decomp.oracle_solves",
         "forecast.null_continuations", "forecast.fits", "hsc.fits", "tuning.cv_runs")


@pytest.mark.parametrize("workload", ["applied-cold", "study-warm", "decompose-q2"])
def test_traced_counts_repeat_exactly(workload):
    first, second = (run.run(workload, seed, 0.0, True) for seed in (1, 2))
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(tracing.UNITS)
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name], name
