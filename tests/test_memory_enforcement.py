"""Runtime DRAM-footprint enforcement tests (the §3.2 64 MB-per-CPU limit)."""

import dataclasses
import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import (
    admission,
    check_buffer_hazards,
    lint_job_spec,
    logical_buffer_specs,
    predicted_footprint,
)
from repro.apps import benchmark_mapping, corner_turn_model, fft2d_model
from repro.core.atot import random_mapping
from repro.core.codegen import generate_glue
from repro.core.runtime import DEFAULT_CONFIG, SageRuntime
from repro.machine import cspi
from repro.service.jobs import JobSpec


def make_runtime(app, nodes, config=None):
    glue = generate_glue(app, benchmark_mapping(app, nodes), num_processors=nodes)
    return SageRuntime.build(glue, cspi(), config=config or DEFAULT_CONFIG.timing_only())


def test_benchmark_sizes_fit():
    """Every Table 1.0 configuration fits the 64 MB boards."""
    for n in (256, 512, 1024):
        for nodes in (2, 4, 8):
            make_runtime(corner_turn_model(n, nodes), nodes)
            make_runtime(fft2d_model(n, nodes), nodes)


def test_oversized_matrix_rejected():
    app = corner_turn_model(4096, 2)  # 128 MB logical buffer
    with pytest.raises(MemoryError, match="physical buffers need"):
        make_runtime(app, 2)


def test_more_nodes_make_it_fit():
    # 2048^2 complex64 = 32 MB logical; 2 nodes hold ~48 MB each (3 buffer
    # endpoints x 16 MB regions) - fits; verify the footprint arithmetic.
    runtime = make_runtime(corner_turn_model(2048, 2), 2)
    fp = runtime.memory_footprint()
    assert all(v <= 64 * 1024 * 1024 for v in fp.values())


def test_enforcement_can_be_disabled():
    app = corner_turn_model(4096, 2)
    cfg = DEFAULT_CONFIG.timing_only()
    cfg = dataclasses.replace(cfg, enforce_memory=False)
    runtime = make_runtime(app, 2, config=cfg)  # no raise
    assert max(runtime.memory_footprint().values()) > 64 * 1024 * 1024


def test_footprint_scales_inversely_with_nodes():
    fp4 = make_runtime(fft2d_model(1024, 4), 4).memory_footprint()
    fp8 = make_runtime(fft2d_model(1024, 8), 8).memory_footprint()
    assert max(fp8.values()) < max(fp4.values())


# -- the three DRAM checks agree ------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    app_name=st.sampled_from(["fft2d", "corner_turn"]),
    size=st.sampled_from([16, 32, 64]),
    nodes=st.sampled_from([1, 2, 4, 8]),
    seed=st.integers(0, 10_000),
    data=st.data(),
)
def test_runtime_admission_and_verifier_dram_checks_agree(
    app_name, size, nodes, seed, data
):
    """The run-time's enforce_memory, admission's JOB002 and the Verifier's
    BUF206 fire together, on the same processors, for any placement and any
    per-node DRAM size around the peak footprint."""
    spec = JobSpec(app=app_name, size=size, nodes=nodes)
    app = spec.build_model()
    mapping = random_mapping(app, nodes, seed=seed)
    peak = max(predicted_footprint(app, mapping).values())
    delta = data.draw(
        st.sampled_from([-1, 0, 1]) | st.integers(-peak // 2, peak // 2), label="delta"
    )
    limit = max(1, peak + delta)
    base = cspi()
    platform = dataclasses.replace(
        base, cpu=dataclasses.replace(base.cpu, memory_bytes=limit)
    )
    glue = generate_glue(app, mapping, num_processors=nodes)

    def runtime(enforce: bool):
        config = dataclasses.replace(DEFAULT_CONFIG.timing_only(), enforce_memory=enforce)
        return SageRuntime.build(glue, platform, config=config)

    over = {p for p, n in runtime(False).memory_footprint().items() if n > limit}
    try:
        runtime(True)
        refused = None
    except MemoryError as exc:
        refused = int(re.search(r"processor (\d+):", str(exc)).group(1))

    # lint_job_spec places the job round-robin; judge the drawn placement.
    with mock.patch.object(admission, "round_robin_mapping", lambda _app, _n: mapping):
        report = lint_job_spec(spec, platform)
    job002 = {
        int(re.search(r":proc(\d+)$", f.where).group(1))
        for f in report.findings if f.rule == "JOB002"
    }
    buf206 = {
        int(f.where.split()[-1])
        for f in check_buffer_hazards(
            logical_buffer_specs(app), mapping=mapping, nprocs=nodes,
            memory_bytes=limit,
        )
        if f.rule == "BUF206"
    }
    assert job002 == buf206 == over
    assert refused == (min(over) if over else None)
