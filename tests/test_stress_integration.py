"""Large-configuration stress tests: 16 nodes, deep chains, mixed
distributions — the shapes the paper's production users would build."""

import numpy as np

from repro.apps import MatrixProvider, benchmark_mapping, corner_turn_model, fft2d_model
from repro.core.codegen import generate_glue
from repro.core.model import (
    ApplicationModel,
    DataType,
    FunctionBlock,
    cyclic,
    round_robin_mapping,
    striped,
)
from repro.core.runtime import DEFAULT_CONFIG, SageRuntime
from repro.machine import cspi, sky


def test_sixteen_node_fft_correct():
    n, nodes = 64, 16
    provider = MatrixProvider(n, seed=21)
    app = fft2d_model(n, nodes)
    glue = generate_glue(app, benchmark_mapping(app, nodes), num_processors=nodes)
    result = SageRuntime.build(glue, cspi()).run(iterations=1, input_provider=provider)
    np.testing.assert_allclose(result.full_result(0), np.fft.fft2(provider(0)), atol=2e-1)


def test_sixteen_node_hundred_iterations_timing():
    app = corner_turn_model(1024, 16)
    glue = generate_glue(app, benchmark_mapping(app, 16), num_processors=16)
    runtime = SageRuntime.build(glue, sky(), config=DEFAULT_CONFIG.timing_only())
    result = runtime.run(iterations=100)
    assert result.iterations == 100
    assert len(result.trace.by_kind("sink")) == 100 * 16
    # steady state: latencies flat under serial admission
    lats = result.latencies
    assert max(lats) - min(lats) < 1e-9


def test_deep_mixed_distribution_chain():
    """8 stages alternating striped/cyclic layouts over 8 nodes, exact data."""
    n, nodes = 32, 8
    t = DataType("m", "complex64", (n, n))
    app = ApplicationModel("deepchain")
    src = app.add_block(FunctionBlock("src", kernel="matrix_source", threads=nodes))
    src.add_out("out", t, striped(0))
    layouts = [
        striped(0), cyclic(0), striped(1), cyclic(1, block=2),
        striped(0), cyclic(0, block=4), striped(1), striped(0),
    ]
    prev = src
    for i, layout in enumerate(layouts):
        blk = app.add_block(FunctionBlock(f"s{i}", kernel="identity", threads=nodes))
        blk.add_in("in", t, layout)
        blk.add_out("out", t, layout)
        app.connect(prev.port("out"), blk.port("in"))
        prev = blk
    sink = app.add_block(FunctionBlock("sink", kernel="matrix_sink", threads=nodes))
    sink.add_in("in", t, striped(0))
    app.connect(prev.port("out"), sink.port("in"))

    provider = MatrixProvider(n, seed=22)
    glue = generate_glue(app, round_robin_mapping(app, nodes), num_processors=nodes)
    result = SageRuntime.build(glue, cspi()).run(iterations=2, input_provider=provider)
    for k in range(2):
        np.testing.assert_array_equal(result.full_result(k), provider(k))


def test_many_iterations_memory_stays_bounded():
    """Buffer storage is freed as iterations drain (no unbounded growth)."""
    app = corner_turn_model(64, 4)
    glue = generate_glue(app, benchmark_mapping(app, 4), num_processors=4)
    runtime = SageRuntime.build(glue, cspi(), config=DEFAULT_CONFIG.timing_only())
    runtime.run(iterations=200)
    assert all(buf.live_iterations == 0 for buf in runtime.buffers)
    # arrival-event bookkeeping is bounded by messages, not unbounded state
    assert len(runtime._arrivals) <= sum(len(b.plan) for b in runtime.buffers) * 200
