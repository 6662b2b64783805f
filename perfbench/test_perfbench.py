"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from ledger import LayerTracer, _own_attribute, self_times  # noqa: E402
from run import run_round  # noqa: E402
from stats import MIN_BEYOND, TooFewSamples, percentile  # noqa: E402
from workloads import WORKLOADS, _duration_for  # noqa: E402


class TestSelfTimes:
    def test_nested_spans(self):
        spans = [
            ["outer", 0, 100, -1],
            ["middle", 10, 40, 0],
            ["inner", 20, 30, 1],
            ["middle", 50, 70, 0],
        ]
        assert self_times(spans) == {
            "outer": (1, 100 - 30 - 20),
            "middle": (2, (30 - 10) + 20),
            "inner": (1, 10),
        }
        # Self times add up to the outermost span's duration.
        assert sum(ns for __, ns in self_times(spans).values()) == 100

    def test_live_spans_nest_and_reentry_merges(self):
        tracer = LayerTracer()
        tracer.active = True

        def inner():
            return tracer.call("b", lambda: tracer.call("b", lambda: 7))

        assert tracer.call("a", inner) == 7
        with tracer.span("c"):
            pass
        names = [(name, parent) for name, __, __, parent in tracer.spans]
        # The re-entered "b" stays one span under "a"; "c" is a new root.
        assert names == [("a", -1), ("b", 0), ("c", -1)]
        for __, start, end, __ in tracer.spans:
            assert end >= start

    def test_inactive_tracer_records_nothing(self):
        tracer = LayerTracer()
        assert tracer.call("a", lambda: 1) == 1
        assert tracer.spans == []


class TestPercentile:
    def test_p99_needs_ten_samples_beyond(self):
        values = list(range(1, 1001))
        assert percentile(values, 0.99) == (990, 1000)
        assert len([v for v in values if v > 990]) == MIN_BEYOND
        with pytest.raises(TooFewSamples):
            percentile(values[:999], 0.99)

    def test_median_and_count(self):
        assert percentile(list(range(1, 22)), 0.5) == (11, 21)
        with pytest.raises(TooFewSamples):
            percentile([1.0, 2.0, 3.0], 0.5)


def _boundaries():
    """Every patched (owner, attr) with its original value."""
    tracer = LayerTracer()
    with tracer.installed():
        patched = list(tracer._patches)
    return tracer, [(owner, attr, original) for owner, attr, original in patched]


class TestRestore:
    def test_no_wrapper_left_after_traced_round(self):
        tracer, boundaries = _boundaries()
        assert len(boundaries) > 20
        workload = WORKLOADS["ingest"](seed=3, run_seconds=1, scale=0.05)
        with tracer.installed():
            result = run_round(workload, tracer, traced=True)
        assert result.layers["shell"][0] > 0
        assert tracer.patched == []
        for owner, attr, original in boundaries:
            assert _own_attribute(owner, attr) is original, (owner, attr)

    def test_restore_after_failure(self):
        tracer, boundaries = _boundaries()
        with pytest.raises(RuntimeError), tracer.installed():
            raise RuntimeError("boom")
        for owner, attr, original in boundaries:
            assert _own_attribute(owner, attr) is original, (owner, attr)


def test_stream_duration_gives_exact_count():
    from repro.cm import ConstraintManager, Scenario
    from repro.workloads import UpdateStream

    for seed in (1, 2, 3):
        duration = _duration_for(seed, "f", rate=2.0, updates=50)
        stream = UpdateStream(
            ConstraintManager(Scenario(seed=seed)), "f", None, rate=2.0, duration=duration
        )
        assert len(stream.schedule) == 50


#: Small enough for a smoke run; the wire one takes about a wall second.
SMOKE = {"fanout": 0.1, "polling": 0.1, "ingest": 0.05, "wire": 0.1}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_passes_output_checks(name):
    workload = WORKLOADS[name](seed=5, run_seconds=1, scale=SMOKE[name])
    tracer = LayerTracer()
    plain = run_round(workload, tracer, traced=False)
    with tracer.installed():
        traced = run_round(workload, tracer, traced=True)
    for result in (plain, traced):
        assert result.events > 0
        assert result.checked > 0
        assert result.mismatches == []
        assert result.notes == []
        assert result.propagation
    if workload.DETERMINISTIC:
        assert plain.signature == traced.signature
        assert plain.counts["shell.fired"] == traced.counts["shell.fired"]
    # Self times never exceed the traced window.
    attributed = sum(ns for __, ns in traced.layers.values()) / 1e9
    assert 0 < attributed <= traced.wall_s
