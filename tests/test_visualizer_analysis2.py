"""Tests for the extended Visualizer displays: stage breakdown + histogram."""

import pytest

from repro.apps import benchmark_mapping, fft2d_model
from repro.core.codegen import generate_glue
from repro.core.runtime import DEFAULT_CONFIG, ProbeEvent, SageRuntime, Trace
from repro.core.visualizer import latency_histogram, stage_breakdown
from repro.machine import cspi


def ev(time, kind, function="f", thread=0, it=0):
    return ProbeEvent(time, kind, function, 0, thread, 0, it)


class TestStageBreakdown:
    def test_filters_by_iteration(self):
        trace = Trace()
        for k, (t0, t1) in enumerate([(0.0, 1.0), (2.0, 2.5)]):
            trace.record(ev(t0, "enter", it=k))
            trace.record(ev(t1, "exit", it=k))
        assert stage_breakdown(trace, 0) == {"f": pytest.approx(1.0)}
        assert stage_breakdown(trace, 1) == {"f": pytest.approx(0.5)}
        assert stage_breakdown(trace, 9) == {}

    def test_sums_threads_within_iteration(self):
        trace = Trace()
        for t in range(3):
            trace.record(ev(0.0, "enter", thread=t))
            trace.record(ev(2.0, "exit", thread=t))
        assert stage_breakdown(trace, 0) == {"f": pytest.approx(6.0)}

    def test_on_real_run(self):
        nodes = 4
        app = fft2d_model(64, nodes)
        glue = generate_glue(app, benchmark_mapping(app, nodes), num_processors=nodes)
        runtime = SageRuntime.build(glue, cspi(), config=DEFAULT_CONFIG.timing_only())
        result = runtime.run(iterations=2)
        bd = stage_breakdown(result.trace, 1)
        assert set(bd) == {"src", "rowfft", "colfft", "sink"}
        assert bd["rowfft"] > bd["src"]


class TestLatencyHistogram:
    def test_empty(self):
        assert latency_histogram([]) == "(no latencies)"

    def test_constant_latencies_collapse(self):
        text = latency_histogram([0.005] * 7)
        assert "all 7 iterations at 5.000 ms" in text

    def test_bins_and_counts(self):
        lats = [0.001] * 5 + [0.010] * 3
        text = latency_histogram(lats, bins=2, width=10)
        rows = text.splitlines()
        assert len(rows) == 2
        assert rows[0].endswith("| 5")
        assert rows[1].endswith("| 3")

    def test_peak_bar_full_width(self):
        lats = [0.001] * 8 + [0.002]
        text = latency_histogram(lats, bins=2, width=20)
        assert "#" * 20 in text

    def test_validation(self):
        with pytest.raises(ValueError):
            latency_histogram([0.1], bins=0)
        with pytest.raises(ValueError):
            latency_histogram([0.1], width=0)

    def test_all_latencies_counted(self):
        import random

        rng = random.Random(0)
        lats = [rng.uniform(0.001, 0.02) for _ in range(100)]
        text = latency_histogram(lats, bins=8)
        counts = [int(row.rsplit(" ", 1)[1]) for row in text.splitlines()]
        assert sum(counts) == 100
