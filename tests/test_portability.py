"""§4 portability claim tests.

*"since the current SAGE tool makes the target system transparent to the
engineer, the application developed is portable to other SAGE supported
hardware platforms. The designer simply needs to re-generate the glue code
for the new hardware platform."*

One model, four platforms: identical numerics everywhere, different
modeled performance, no model changes.
"""

import numpy as np
import pytest

from repro.apps import MatrixProvider, benchmark_mapping, corner_turn_model, fft2d_model
from repro.core.codegen import generate_glue
from repro.core.runtime import DEFAULT_CONFIG, SageRuntime
from repro.machine import PLATFORMS, get_platform

N, NODES = 32, 4


def run_on(platform_name, app, provider=None, config=None):
    glue = generate_glue(app, benchmark_mapping(app, NODES), num_processors=NODES)
    runtime = SageRuntime.build(glue, get_platform(platform_name), config=config or DEFAULT_CONFIG)
    return runtime.run(iterations=1, input_provider=provider)


@pytest.mark.parametrize("platform", sorted(PLATFORMS))
def test_same_model_correct_on_every_platform(platform):
    provider = MatrixProvider(N, seed=6)
    app = fft2d_model(N, NODES)
    result = run_on(platform, app, provider)
    np.testing.assert_allclose(
        result.full_result(0), np.fft.fft2(provider(0)), atol=1e-1
    )


def test_glue_is_platform_independent():
    """The glue encodes the model + mapping, not the machine: regeneration
    for a new platform yields the same source (§4: 'simply ... re-generate'
    — and in this architecture, reuse directly)."""
    app = corner_turn_model(N, NODES)
    glue = generate_glue(app, benchmark_mapping(app, NODES), num_processors=NODES)
    again = generate_glue(app, benchmark_mapping(app, NODES), num_processors=NODES)
    assert glue.source == again.source


def test_performance_differs_results_do_not():
    provider = MatrixProvider(N, seed=9)
    app = corner_turn_model(N, NODES)
    results = {p: run_on(p, app, provider) for p in sorted(PLATFORMS)}
    # identical data everywhere
    reference = results["cspi"].full_result(0)
    for _p, r in results.items():
        np.testing.assert_array_equal(r.full_result(0), reference)
    # but the modeled latencies reflect each machine
    latencies = {p: r.mean_latency for p, r in results.items()}
    assert len(set(latencies.values())) == len(latencies)
    # and the fastest fabric is not the slowest bus
    assert latencies["sigi"] > min(latencies.values())
