"""Property-based integration tests: random dataflow applications through
codegen + runtime must satisfy system invariants (completion, probe balance,
message-plan conservation, determinism)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codegen import generate_glue
from repro.core.model import (
    ApplicationModel,
    DataType,
    FunctionBlock,
    REPLICATED,
    cyclic,
    round_robin_mapping,
    striped,
)
from repro.core.runtime import DEFAULT_CONFIG, SageRuntime
from repro.machine import cspi

N = 16

_stripings = st.sampled_from(
    [REPLICATED, striped(0), striped(1), cyclic(0), cyclic(1, block=2)]
)


@st.composite
def chain_apps(draw):
    """A random linear chain: source -> k x identity stages -> sink, with
    random thread counts and stripings on every port."""
    t = DataType("m", "complex64", (N, N))
    stages = draw(st.integers(1, 4))
    nodes = draw(st.sampled_from([1, 2, 4]))
    app = ApplicationModel("randchain")
    src_threads = draw(st.sampled_from([1, nodes]))
    src = app.add_block(
        FunctionBlock("src", kernel="matrix_source", threads=src_threads)
    )
    src.add_out("out", t, draw(_stripings))
    prev = src
    for i in range(stages):
        threads = draw(st.sampled_from([1, 2, nodes]))
        blk = app.add_block(FunctionBlock(f"f{i}", kernel="identity", threads=threads))
        in_striping = draw(_stripings)
        # identity can only emit data it received: with a replicated input
        # any output layout is legal, otherwise the ports must agree.
        out_striping = draw(_stripings) if not in_striping.is_striped else in_striping
        blk.add_in("in", t, in_striping)
        blk.add_out("out", t, out_striping)
        app.connect(prev.port("out"), blk.port("in"))
        prev = blk
    sink = app.add_block(FunctionBlock("sink", kernel="matrix_sink"))
    sink.add_in("in", t, REPLICATED)
    app.connect(prev.port("out"), sink.port("in"))
    return app, nodes


@given(chain_apps(), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_random_chain_preserves_data_and_balances_probes(app_and_nodes, iterations):
    app, nodes = app_and_nodes
    glue = generate_glue(app, round_robin_mapping(app, nodes), num_processors=nodes)
    runtime = SageRuntime.build(glue, cspi())
    rng = np.random.default_rng(7)
    data = (rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))).astype(
        "complex64"
    )
    result = runtime.run(iterations=iterations, input_provider=lambda k: data)

    # 1) identity chain: output == input, every iteration
    for k in range(iterations):
        np.testing.assert_array_equal(result.full_result(k), data)

    # 2) probe balance: every enter has an exit, every send an arrive
    trace = result.trace
    assert len(trace.by_kind("enter")) == len(trace.by_kind("exit"))
    assert len(trace.by_kind("send")) == len(trace.by_kind("arrive"))

    # 3) message conservation: sends per iteration == planned messages
    planned = sum(len(buf.plan) for buf in runtime.buffers)
    assert len(trace.by_kind("send")) == planned * iterations

    # 4) every buffer's storage was drained (no leaks)
    assert all(buf.live_iterations == 0 for buf in runtime.buffers)

    # 5) time sanity: source precedes sink, latencies positive
    assert all(lat > 0 for lat in result.latencies)
    assert result.makespan >= max(result.sink_times)


@given(chain_apps())
@settings(max_examples=20, deadline=None)
def test_random_chain_timing_deterministic(app_and_nodes):
    app, nodes = app_and_nodes
    glue = generate_glue(app, round_robin_mapping(app, nodes), num_processors=nodes)

    def run_once():
        runtime = SageRuntime.build(glue, cspi(), config=DEFAULT_CONFIG.timing_only())
        return runtime.run(iterations=2)

    r1, r2 = run_once(), run_once()
    assert r1.sink_times == r2.sink_times
    assert r1.source_times == r2.source_times


@given(chain_apps())
@settings(max_examples=20, deadline=None)
def test_timing_mode_matches_data_mode_clock(app_and_nodes):
    """Phantom payloads must produce the identical virtual timeline."""
    app, nodes = app_and_nodes
    glue = generate_glue(app, round_robin_mapping(app, nodes), num_processors=nodes)
    data = np.zeros((N, N), dtype="complex64")

    def run_once(config, provider):
        runtime = SageRuntime.build(glue, cspi(), config=config)
        return runtime.run(iterations=1, input_provider=provider)

    real = run_once(DEFAULT_CONFIG, lambda k: data)
    fake = run_once(DEFAULT_CONFIG.timing_only(), None)
    assert fake.sink_times == pytest.approx(real.sink_times, rel=1e-12)
