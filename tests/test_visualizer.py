"""Visualizer tests: analysis queries, timeline rendering, full report."""

import pytest

from repro.apps import MatrixProvider, benchmark_mapping, corner_turn_model, fft2d_model
from repro.core.codegen import generate_glue
from repro.core.runtime import DEFAULT_CONFIG, ProbeEvent, SageRuntime, Trace
from repro.core.visualizer import (
    build_lanes,
    communication_volume,
    find_bottleneck,
    function_busy_time,
    latency_violations,
    render_gantt,
    run_report,
    utilization,
)
from repro.machine import cspi


@pytest.fixture(scope="module")
def run_result():
    nodes, n = 4, 64
    app = fft2d_model(n, nodes)
    glue = generate_glue(app, benchmark_mapping(app, nodes), num_processors=nodes)
    runtime = SageRuntime.build(glue, cspi(), config=DEFAULT_CONFIG.timing_only())
    return runtime.run(iterations=3)


def make_trace(events):
    trace = Trace()
    for e in events:
        trace.record(e)
    return trace


def ev(time, kind, function="f", fid=0, thread=0, proc=0, it=0, detail="", nbytes=0):
    return ProbeEvent(time, kind, function, fid, thread, proc, it, detail, nbytes)


class TestAnalysisUnits:
    def test_utilization_single_span(self):
        trace = make_trace([
            ev(0.0, "enter", proc=0),
            ev(1.0, "exit", proc=0),
            ev(2.0, "enter", function="g", proc=1),
            ev(2.0, "exit", function="g", proc=1),
        ])
        util = utilization(trace, 2)
        assert util[0] == pytest.approx(0.5)
        assert util[1] == pytest.approx(0.0)

    def test_utilization_empty_trace(self):
        assert utilization(Trace(), 2) == [0.0, 0.0]

    def test_utilization_invalid_processors(self):
        with pytest.raises(ValueError):
            utilization(Trace(), 0)

    def test_function_busy_time_sums_threads(self):
        trace = make_trace([
            ev(0.0, "enter", thread=0),
            ev(1.0, "exit", thread=0),
            ev(0.0, "enter", thread=1),
            ev(2.0, "exit", thread=1),
        ])
        assert function_busy_time(trace) == {"f": pytest.approx(3.0)}

    def test_find_bottleneck(self):
        trace = make_trace([
            ev(0.0, "enter", function="cheap"),
            ev(1.0, "exit", function="cheap"),
            ev(0.0, "enter", function="heavy", thread=1),
            ev(5.0, "exit", function="heavy", thread=1),
            ev(5.0, "send", function="heavy", detail="b", nbytes=100),
        ])
        b = find_bottleneck(trace)
        assert b.function == "heavy"
        assert b.share == pytest.approx(5 / 6)
        assert b.comm_share == pytest.approx(1.0)

    def test_find_bottleneck_empty(self):
        assert find_bottleneck(Trace()) is None

    def test_latency_violations(self):
        assert latency_violations([0.1, 0.5, 0.2], threshold=0.3) == [(1, 0.5)]
        with pytest.raises(ValueError):
            latency_violations([0.1], threshold=0)

    def test_communication_volume_groups_by_buffer(self):
        trace = make_trace([
            ev(0.0, "send", detail="a->b", nbytes=10),
            ev(1.0, "send", detail="a->b", nbytes=20),
            ev(2.0, "send", detail="b->c", nbytes=5),
        ])
        assert communication_volume(trace) == {"a->b": 30, "b->c": 5}

    def test_disabled_trace_records_nothing(self):
        trace = Trace(enabled=False)
        trace.record(ev(0.0, "enter"))
        assert len(trace) == 0

    def test_bad_probe_kind_rejected(self):
        with pytest.raises(ValueError):
            ev(0.0, "teleport")


class TestTimeline:
    def test_lanes_grouped_by_processor(self, run_result):
        lanes = build_lanes(run_result.trace, 4)
        assert len(lanes) == 4
        assert all(lane.spans for lane in lanes)

    def test_lane_spans_sorted(self, run_result):
        for lane in build_lanes(run_result.trace, 4):
            starts = [s for s, _, _ in lane.spans]
            assert starts == sorted(starts)

    def test_gantt_renders_rows_per_processor(self, run_result):
        text = render_gantt(run_result.trace, 4, width=40)
        rows = text.splitlines()
        assert rows[0].startswith("P0  |")
        assert rows[3].startswith("P3  |")
        assert "#" in rows[0]
        assert "s/col" in rows[-1]

    def test_gantt_empty_trace(self):
        assert render_gantt(Trace(), 2) == "(empty trace)"

    def test_gantt_width_validation(self):
        with pytest.raises(ValueError):
            render_gantt(Trace(), 2, width=3)


class TestRunReport:
    def test_report_contains_all_sections(self, run_result):
        report = run_report(run_result, processors=4)
        for section in (
            "SAGE Visualizer run report",
            "processor utilization",
            "function busy time",
            "bottleneck",
            "communication volume",
            "timeline",
        ):
            assert section in report

    def test_report_names_the_heavy_functions(self, run_result):
        report = run_report(run_result, processors=4)
        assert "rowfft" in report
        assert "colfft" in report

    def test_report_latency_threshold_section(self, run_result):
        # impossible threshold: every iteration violates
        report = run_report(run_result, processors=4, latency_threshold=1e-12)
        assert "3 violation(s)" in report

    def test_report_on_real_data_run(self):
        nodes, n = 2, 16
        app = corner_turn_model(n, nodes)
        glue = generate_glue(app, benchmark_mapping(app, nodes), num_processors=nodes)
        runtime = SageRuntime.build(glue, cspi())
        result = runtime.run(iterations=1, input_provider=MatrixProvider(n))
        report = run_report(result, processors=nodes)
        assert "turn" in report
