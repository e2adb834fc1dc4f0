"""End-to-end run-time tests: glue generation -> execution on the simulated
CSPI machine -> numerically correct results and sane timing behaviour."""

import numpy as np
import pytest

from repro.apps import MatrixProvider, benchmark_mapping, corner_turn_model, fft2d_model
from repro.core.codegen import generate_glue
from repro.core.model import (
    ApplicationModel,
    DataType,
    FunctionBlock,
    cspi_hardware,
    round_robin_mapping,
)
from repro.core.runtime import (
    DEFAULT_CONFIG,
    RuntimeError_,
    SageRuntime,
)
from repro.faults import FaultPlan
from repro.machine import cspi


def run_sage(app, nodes, iterations=1, config=None, provider=None, n=None):
    mapping = benchmark_mapping(app, nodes)
    glue = generate_glue(app, mapping, num_processors=nodes)
    runtime = SageRuntime.build(glue, cspi(), config=config or DEFAULT_CONFIG)
    return runtime.run(iterations=iterations, input_provider=provider)


class TestFft2dCorrectness:
    @pytest.mark.parametrize("nodes", [1, 2, 4])
    @pytest.mark.parametrize("n", [16, 64])
    def test_matches_numpy_fft2(self, nodes, n):
        provider = MatrixProvider(n, seed=7)
        app = fft2d_model(n, nodes)
        result = run_sage(app, nodes, provider=provider, n=n)
        got = result.full_result(0)
        expected = np.fft.fft2(provider(0))
        np.testing.assert_allclose(got, expected, rtol=0, atol=2e-1)

    def test_multiple_iterations_distinct_data(self):
        n, nodes = 16, 2
        provider = MatrixProvider(n, seed=3)
        app = fft2d_model(n, nodes)
        result = run_sage(app, nodes, iterations=3, provider=provider, n=n)
        for k in range(3):
            np.testing.assert_allclose(
                result.full_result(k), np.fft.fft2(provider(k)), atol=2e-1
            )


class TestCornerTurnCorrectness:
    @pytest.mark.parametrize("nodes", [1, 2, 4, 8])
    def test_result_is_transpose(self, nodes):
        n = 16
        provider = MatrixProvider(n, seed=11)
        app = corner_turn_model(n, nodes)
        result = run_sage(app, nodes, provider=provider, n=n)
        np.testing.assert_array_equal(result.full_result(0), provider(0).T)


class TestTimingBehaviour:
    def test_latency_positive_and_finite(self):
        app = corner_turn_model(64, 4)
        result = run_sage(app, 4, provider=MatrixProvider(64))
        assert 0 < result.mean_latency < 1.0

    def test_phantom_mode_same_latency_as_real(self):
        n, nodes = 64, 4
        app = corner_turn_model(n, nodes)
        real = run_sage(app, nodes, provider=MatrixProvider(n))
        fake = run_sage(
            app, nodes, config=DEFAULT_CONFIG.timing_only(),
        )
        assert fake.mean_latency == pytest.approx(real.mean_latency, rel=1e-12)
        assert fake.full_result(0) is None

    def test_more_nodes_reduce_fft_latency(self):
        n = 256
        lat = {}
        for nodes in (1, 2, 4, 8):
            app = fft2d_model(n, nodes)
            r = run_sage(app, nodes, config=DEFAULT_CONFIG.timing_only())
            lat[nodes] = r.mean_latency
        assert lat[8] < lat[4] < lat[2] < lat[1]

    def test_pipelining_period_below_latency(self):
        app = fft2d_model(64, 4)
        # Unbounded admission: the pipeline fills and the steady-state period
        # drops below the single-data-set latency.
        r = run_sage(
            app, 4, iterations=8, config=DEFAULT_CONFIG.timing_only().pipelined()
        )
        assert r.period < r.mean_latency

    def test_latency_protocol_serialises_data_sets(self):
        app = fft2d_model(64, 4)
        r = run_sage(app, 4, iterations=4, config=DEFAULT_CONFIG.timing_only())
        # max_in_flight=1: iteration k+1's source starts after sink k, so
        # per-iteration latency stays flat instead of growing with queueing.
        lats = r.latencies
        assert max(lats) - min(lats) < 1e-9

    def test_deterministic_runs(self):
        app = corner_turn_model(64, 4)
        r1 = run_sage(app, 4, config=DEFAULT_CONFIG.timing_only())
        r2 = run_sage(app, 4, config=DEFAULT_CONFIG.timing_only())
        assert r1.sink_times == r2.sink_times

    def test_optimized_config_is_faster(self):
        app = corner_turn_model(256, 4)
        base = run_sage(app, 4, config=DEFAULT_CONFIG.timing_only())
        opt = run_sage(
            app, 4, config=DEFAULT_CONFIG.optimized().timing_only()
        )
        assert opt.mean_latency < base.mean_latency

    def test_optimized_glue_flag_applies(self):
        n, nodes = 64, 4
        app = corner_turn_model(n, nodes)
        mapping = benchmark_mapping(app, nodes)
        glue_opt = generate_glue(app, mapping, num_processors=nodes, optimize_buffers=True)
        runtime = SageRuntime.build(glue_opt, cspi(), config=DEFAULT_CONFIG.timing_only())
        assert runtime.config.stage_dma_sources is False

    def test_source_interval_throttles_period(self):
        app = fft2d_model(64, 4)
        mapping = benchmark_mapping(app, 4)
        glue = generate_glue(app, mapping, num_processors=4)
        runtime = SageRuntime.build(glue, cspi(), config=DEFAULT_CONFIG.timing_only())
        interval = 0.5
        result = runtime.run(iterations=4, source_interval=interval)
        assert result.period == pytest.approx(interval, rel=0.01)


class TestTrace:
    def test_probe_events_recorded(self):
        app = corner_turn_model(16, 2)
        provider = MatrixProvider(16)
        mapping = benchmark_mapping(app, 2)
        glue = generate_glue(app, mapping, num_processors=2)
        runtime = SageRuntime.build(glue, cspi())
        result = runtime.run(iterations=2, input_provider=provider)
        trace = result.trace
        assert len(trace.by_kind("enter")) == len(trace.by_kind("exit")) == 2 * 3 * 2
        assert len(trace.by_kind("sink")) == 2 * 2
        sends = trace.by_kind("send")
        assert sends and all(e.nbytes > 0 for e in sends)
        spans = trace.spans()
        assert all(t1 <= t2 for *_, t1, t2 in spans)


class TestRuntimeErrors:
    def test_cluster_too_small(self):
        app = corner_turn_model(16, 4)
        glue = generate_glue(app, benchmark_mapping(app, 4), num_processors=4)
        with pytest.raises(RuntimeError_, match="expects 4 processors"):
            SageRuntime.build(glue, cspi_hardware(2))

    def test_build_sizes_the_cluster_and_injects_the_plan(self):
        app = corner_turn_model(16, 2)
        glue = generate_glue(app, benchmark_mapping(app, 2), num_processors=2)
        plan = FaultPlan(seed=1).crash_node(1, at=1.0)
        on_platform = SageRuntime.build(glue, cspi(), job_scope="job-1")
        on_hardware = SageRuntime.build(glue, cspi_hardware(4), fault_plan=plan)
        assert (len(on_platform.cluster), len(on_hardware.cluster)) == (2, 4)
        assert on_platform.cluster.faults is None
        assert on_hardware.cluster.faults.plan is plan
        assert (on_platform.trace.job, on_hardware.trace.job) == ("job-1", "")

    def test_unknown_kernel_rejected_at_load(self):
        t = DataType("m", "complex64", (8, 8))
        app = ApplicationModel("bad")
        src = app.add_block(FunctionBlock("src", kernel="matrix_source"))
        src.add_out("out", t)
        odd = app.add_block(FunctionBlock("odd", kernel="quantum_annealer"))
        odd.add_in("in", t)
        app.connect(src.port("out"), odd.port("in"))
        glue = generate_glue(app, round_robin_mapping(app, 1), num_processors=1)
        with pytest.raises(RuntimeError_, match="no binding for kernel"):
            SageRuntime.build(glue, cspi())

    def test_missing_provider_in_execute_mode(self):
        app = corner_turn_model(16, 2)
        glue = generate_glue(app, benchmark_mapping(app, 2), num_processors=2)
        runtime = SageRuntime.build(glue, cspi())
        with pytest.raises(RuntimeError_, match="input_provider"):
            runtime.run(iterations=1)

    def test_zero_iterations_rejected(self):
        app = corner_turn_model(16, 2)
        glue = generate_glue(app, benchmark_mapping(app, 2), num_processors=2)
        runtime = SageRuntime.build(glue, cspi(), config=DEFAULT_CONFIG.timing_only())
        with pytest.raises(RuntimeError_):
            runtime.run(iterations=0)

    def test_app_without_source_rejected(self):
        t = DataType("m", "complex64", (8, 8))
        app = ApplicationModel("loopless")
        a = app.add_block(FunctionBlock("a", kernel="identity"))
        a.add_in("in", t)
        a.add_out("out", t)
        b = app.add_block(FunctionBlock("b", kernel="identity"))
        b.add_in("in", t)
        b.add_out("out", t)
        app.connect(a.port("out"), b.port("in"))
        app.connect(b.port("out"), a.port("in"))
        # cycle: generation itself refuses via validation
        from repro.core.model import ModelError

        with pytest.raises(ModelError):
            generate_glue(app, round_robin_mapping(app, 1), num_processors=1)
