"""HTML report tests."""

import pytest

from repro.apps import benchmark_mapping, fft2d_model
from repro.core.codegen import generate_glue
from repro.core.runtime import DEFAULT_CONFIG, SageRuntime
from repro.core.visualizer import render_html_report
from repro.machine import cspi


@pytest.fixture(scope="module")
def run_result():
    nodes = 4
    app = fft2d_model(64, nodes)
    glue = generate_glue(app, benchmark_mapping(app, nodes), num_processors=nodes)
    runtime = SageRuntime.build(glue, cspi(), config=DEFAULT_CONFIG.timing_only())
    return runtime.run(iterations=2)


class TestHtmlReport:
    def test_standalone_document(self, run_result):
        doc = render_html_report(run_result, processors=4)
        assert doc.startswith("<!DOCTYPE html>")
        assert doc.endswith("</html>")
        assert "<svg" in doc and "</svg>" in doc
        assert "http" not in doc  # no external assets

    def test_one_lane_per_processor(self, run_result):
        doc = render_html_report(run_result, processors=4)
        for p in range(4):
            assert f">P{p}</text>" in doc

    def test_bars_for_every_span_with_tooltips(self, run_result):
        doc = render_html_report(run_result, processors=4)
        spans = run_result.trace.spans()
        assert doc.count("<rect") == len(spans)
        # one tooltip per bar, plus the document <title>
        assert doc.count("<title>") == len(spans) + 1
        assert "rowfft" in doc

    def test_stats_present(self, run_result):
        doc = render_html_report(run_result, processors=4)
        assert "mean latency" in doc
        assert "Processor utilization" in doc
        assert "Function busy time" in doc

    def test_escapes_title(self, run_result):
        doc = render_html_report(run_result, processors=4, title="<script>x</script>")
        assert "<script>x</script>" not in doc
        assert "&lt;script&gt;" in doc


class TestFaultMarkers:
    @pytest.fixture(scope="class")
    def shrink_result(self):
        from repro.faults import FaultPlan, FaultPolicy

        nodes = 8
        app = fft2d_model(32, nodes)
        glue = generate_glue(app, benchmark_mapping(app, nodes),
                             num_processors=nodes)
        plan = FaultPlan(seed=5).crash_node(3, at=0.0006, permanent=True)
        runtime = SageRuntime.build(glue, cspi(), fault_plan=plan,
                                    fault_policy=FaultPolicy.shrink_restripe(),
                                    config=DEFAULT_CONFIG.timing_only())
        return runtime.run(iterations=3)

    def test_fault_event_markers_and_table(self, shrink_result):
        doc = render_html_report(shrink_result, processors=8)
        for kind in ("fault_injected", "suspect", "declare_dead",
                     "checkpoint", "shrink", "restripe", "restore"):
            assert kind in doc, kind
        assert "Fault-tolerance events" in doc
        assert "stroke-dasharray" in doc  # the vertical markers

    def test_fault_free_report_has_no_marker_table(self, run_result):
        doc = render_html_report(run_result, processors=4)
        assert "Fault-tolerance events" not in doc
