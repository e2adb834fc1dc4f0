"""Failure-injection tests: the runtime must fail loudly and legibly when
kernels crash, glue is tampered with, or the dataflow wedges."""

import numpy as np
import pytest

from repro.apps import MatrixProvider, benchmark_mapping, corner_turn_model
from repro.core.codegen import generate_glue, load_glue_source
from repro.core.model import ModelError
from repro.core.runtime import (
    DEFAULT_CONFIG,
    KernelBinding,
    KernelError,
    RuntimeError_,
    SageRuntime,
)
from repro.machine import Environment, SimCluster, SimulationError, cspi


def make_runtime(nodes=2, n=16, bindings=None, config=None):
    app = corner_turn_model(n, nodes)
    glue = generate_glue(app, benchmark_mapping(app, nodes), num_processors=nodes)
    env = Environment()
    cluster = SimCluster.from_platform(env, cspi(), nodes)
    return SageRuntime(
        glue, cluster, config=config or DEFAULT_CONFIG, bindings=bindings
    ), glue


class TestKernelFailures:
    def test_crashing_kernel_surfaces_with_context(self):
        def explode(ctx, inputs):
            raise ZeroDivisionError("numeric blowup")

        bad = KernelBinding("block_transpose", explode, lambda ctx, ins: 0.0)
        runtime, _ = make_runtime(bindings={"block_transpose": bad})
        with pytest.raises(RuntimeError_, match="block_transpose.*turn.*numeric blowup"):
            runtime.run(iterations=1, input_provider=MatrixProvider(16))

    def test_kernel_error_passes_through_unwrapped(self):
        def refuse(ctx, inputs):
            raise KernelError("unsupported configuration")

        bad = KernelBinding("block_transpose", refuse, lambda ctx, ins: 0.0)
        runtime, _ = make_runtime(bindings={"block_transpose": bad})
        with pytest.raises(KernelError, match="unsupported configuration"):
            runtime.run(iterations=1, input_provider=MatrixProvider(16))

    def test_kernel_missing_output_port(self):
        def lazy(ctx, inputs):
            return {}  # produces nothing

        bad = KernelBinding("block_transpose", lazy, lambda ctx, ins: 0.0)
        runtime, _ = make_runtime(bindings={"block_transpose": bad})
        with pytest.raises(RuntimeError_, match="produced no data for port"):
            runtime.run(iterations=1, input_provider=MatrixProvider(16))

    def test_kernel_wrong_shape_output(self):
        def wrong(ctx, inputs):
            (port,) = ctx.out_regions.keys()
            return {port: np.zeros((3, 3), dtype="complex64")}

        bad = KernelBinding("block_transpose", wrong, lambda ctx, ins: 0.0)
        runtime, _ = make_runtime(bindings={"block_transpose": bad})
        with pytest.raises(Exception, match="region needs"):
            runtime.run(iterations=1, input_provider=MatrixProvider(16))

    def test_provider_exception_reaches_caller(self):
        runtime, _ = make_runtime()

        def broken_provider(k):
            raise IOError("sensor offline")

        with pytest.raises(Exception, match="sensor offline"):
            runtime.run(iterations=1, input_provider=broken_provider)


class TestGlueTampering:
    def test_missing_table_rejected(self):
        with pytest.raises(ModelError, match="missing globals"):
            load_glue_source("MODEL_NAME='x'\nNUM_PROCESSORS=1\n")

    def test_syntax_error_in_glue(self):
        with pytest.raises(SyntaxError):
            load_glue_source("def broken(:\n")

    def test_thread_map_hole_detected_at_run(self):
        runtime, glue = make_runtime()
        # remove one thread's mapping after load
        key = next(iter(glue.thread_map))
        del glue.namespace["THREAD_MAP"][key]
        with pytest.raises(KeyError):
            runtime.run(iterations=1, input_provider=MatrixProvider(16))


class TestDeadlockDetection:
    def test_missing_message_reports_deadlock(self, monkeypatch):
        """If an arrival event is never triggered, the simulator names the
        problem instead of hanging forever."""
        runtime, _ = make_runtime(config=DEFAULT_CONFIG.timing_only())

        # Sabotage: the transport "loses" every message (no transfer is
        # started, so no arrival event fires) and receivers wait forever.
        monkeypatch.setattr(
            "repro.core.runtime.threads.Transfer", lambda *args: None
        )
        with pytest.raises(SimulationError, match="deadlock"):
            runtime.run(iterations=1)
