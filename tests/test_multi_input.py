"""Multi-input dataflow tests: functions with several in-ports (binary
kernels), multiple sources, and fan-out (one producer, several consumers)."""

import numpy as np
import pytest

from repro.core.codegen import generate_glue
from repro.core.model import (
    ApplicationModel,
    DataType,
    FunctionBlock,
    REPLICATED,
    round_robin_mapping,
    striped,
)
from repro.core.runtime import SageRuntime
from repro.machine import cspi

N = 16
MTYPE = DataType("m", "complex64", (N, N))


def run_app(app, nodes, providers):
    """providers: path -> callable(k) (each matrix_source pulls by its path)."""
    glue = generate_glue(app, round_robin_mapping(app, nodes), num_processors=nodes)
    runtime = SageRuntime.build(glue, cspi())

    # One provider per source function: dispatch on nothing but iteration is
    # ambiguous, so sources carry a 'which' param the provider keys on.
    def provider(k):
        raise AssertionError("unused")

    # Replace the per-context fetch with param-aware dispatch.
    original_make_ctx = runtime._make_ctx

    def make_ctx(entry, thread, iteration):
        ctx = original_make_ctx(entry, thread, iteration)
        which = entry["params"].get("which")
        if which is not None:
            ctx.fetch_input = lambda k: providers[which](k)
        return ctx

    runtime._make_ctx = make_ctx
    return runtime.run(iterations=1, input_provider=provider)


def two_source_app(nodes, kernel="vadd"):
    app = ApplicationModel("twosrc")
    a = app.add_block(FunctionBlock("srca", kernel="matrix_source", threads=nodes,
                                    params={"which": "a"}))
    a.add_out("out", MTYPE, striped(0))
    b = app.add_block(FunctionBlock("srcb", kernel="matrix_source", threads=nodes,
                                    params={"which": "b"}))
    b.add_out("out", MTYPE, striped(0))
    op = app.add_block(FunctionBlock("op", kernel=kernel, threads=nodes))
    op.add_in("a", MTYPE, striped(0))
    op.add_in("b", MTYPE, striped(0))
    op.add_out("out", MTYPE, striped(0))
    sink = app.add_block(FunctionBlock("sink", kernel="matrix_sink", threads=nodes))
    sink.add_in("in", MTYPE, striped(0))
    app.connect(a.port("out"), op.port("a"))
    app.connect(b.port("out"), op.port("b"))
    app.connect(op.port("out"), sink.port("in"))
    return app


@pytest.fixture
def matrices():
    rng = np.random.default_rng(5)
    a = (rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))).astype("complex64")
    b = (rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))).astype("complex64")
    return a, b


@pytest.mark.parametrize("nodes", [1, 2, 4])
def test_vadd_two_sources(nodes, matrices):
    a, b = matrices
    app = two_source_app(nodes, "vadd")
    result = run_app(app, nodes, {"a": lambda k: a, "b": lambda k: b})
    np.testing.assert_allclose(result.full_result(0), a + b, atol=1e-5)


def test_vmul_two_sources(matrices):
    a, b = matrices
    app = two_source_app(2, "vmul")
    result = run_app(app, 2, {"a": lambda k: a, "b": lambda k: b})
    np.testing.assert_allclose(result.full_result(0), a * b, atol=1e-4)


def test_mismatched_stripe_axes_still_correct(matrices):
    """Source B striped on the other axis: the runtime must redistribute
    before the add."""
    a, b = matrices
    app = ApplicationModel("mixed")
    sa = app.add_block(FunctionBlock("srca", kernel="matrix_source", threads=2,
                                     params={"which": "a"}))
    sa.add_out("out", MTYPE, striped(0))
    sb = app.add_block(FunctionBlock("srcb", kernel="matrix_source", threads=2,
                                     params={"which": "b"}))
    sb.add_out("out", MTYPE, striped(1))  # column blocks!
    op = app.add_block(FunctionBlock("op", kernel="vadd", threads=2))
    op.add_in("a", MTYPE, striped(0))
    op.add_in("b", MTYPE, striped(0))  # forces redistribution of srcb's data
    op.add_out("out", MTYPE, striped(0))
    sink = app.add_block(FunctionBlock("sink", kernel="matrix_sink"))
    sink.add_in("in", MTYPE, REPLICATED)
    app.connect(sa.port("out"), op.port("a"))
    app.connect(sb.port("out"), op.port("b"))
    app.connect(op.port("out"), sink.port("in"))
    result = run_app(app, 2, {"a": lambda k: a, "b": lambda k: b})
    np.testing.assert_allclose(result.full_result(0), a + b, atol=1e-5)


def test_fan_out_one_producer_two_consumers(matrices):
    """One source feeding two sinks through separate arcs."""
    a, _ = matrices
    app = ApplicationModel("fanout")
    src = app.add_block(FunctionBlock("src", kernel="matrix_source", threads=2,
                                      params={"which": "a"}))
    src.add_out("out", MTYPE, striped(0))
    id1 = app.add_block(FunctionBlock("id1", kernel="identity", threads=2))
    id1.add_in("in", MTYPE, striped(0))
    id1.add_out("out", MTYPE, striped(0))
    id2 = app.add_block(FunctionBlock("id2", kernel="identity", threads=2))
    id2.add_in("in", MTYPE, striped(1))
    id2.add_out("out", MTYPE, striped(1))
    s1 = app.add_block(FunctionBlock("s1", kernel="matrix_sink"))
    s1.add_in("in", MTYPE, REPLICATED)
    s2 = app.add_block(FunctionBlock("s2", kernel="matrix_sink"))
    s2.add_in("in", MTYPE, REPLICATED)
    # NOTE: two arcs from the same OUT port
    app.connect(src.port("out"), id1.port("in"))
    app.connect(src.port("out"), id2.port("in"))
    app.connect(id1.port("out"), s1.port("in"))
    app.connect(id2.port("out"), s2.port("in"))
    result = run_app(app, 2, {"a": lambda k: a})
    pieces = result.sink_results[0]
    assert len(pieces) == 2  # both sinks delivered
    for _region, data in pieces:
        np.testing.assert_allclose(np.asarray(data), a, atol=1e-6)
