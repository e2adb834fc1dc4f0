"""Engine event counts are part of the behavioural contract.

``SageService`` publishes ``sim_events=env.events_processed`` in every job's
``telemetry`` bus record, and the benchmark pins that bus stream
(``bench/expected.json``), so a change to *how many* events a run schedules
— not only to what they do — turns ``service_mix`` incorrect.  These counts
were recorded at the commit before the transfer state machine replaced the
per-message generator process; a refactor of the run-time kernel or the
engine that moves one fails here first, not in the benchmark.

(Removing events is legitimate, but only in a change that also re-pins the
benchmark's bus digests; update the table in the same commit.)
"""

import pytest

from repro.apps import benchmark_mapping, fft2d_model
from repro.core.codegen import generate_glue
from repro.core.runtime import DEFAULT_CONFIG, SageRuntime
from repro.machine import Environment, SimCluster, get_platform

from .golden_traces import SCENARIOS, digest_of, load_golden, run_scenario_in_env

GOLDEN_EVENTS = {
    "fft2d_4n_clean": 916,
    "cornerturn_4n_clean": 688,
    "fft2d_4n_crash_ckpt": 1251,
    "cornerturn_4n_lossy_retry": 468,
    "fft2d_8n_rejoin_grow": 10374,
    "fft2d_8n_straggler_migrate": 139680,
}

#: (nodes, iterations) -> events, fft2d 256^2 on the CSPI platform,
#: timing-only: the benchmark's steady_8n and scale_32n designs.
FFT2D_256_EVENTS = {(8, 5): 4326, (32, 2): 19203}


def test_every_golden_scenario_has_a_count():
    assert set(GOLDEN_EVENTS) == set(SCENARIOS)


@pytest.mark.parametrize("name", sorted(GOLDEN_EVENTS))
def test_golden_scenario_event_count(name):
    """Faulted scenarios included: retries, recovery's cancellations and the
    seeded loss draws all have to land on the same events as before."""
    result, env = run_scenario_in_env(name)
    assert digest_of(result) == load_golden()[name]["trace_sha256"]
    assert env.events_processed == GOLDEN_EVENTS[name]


@pytest.mark.parametrize("nodes,iterations", sorted(FFT2D_256_EVENTS))
def test_fft2d_256_event_count(nodes, iterations):
    model = fft2d_model(256, nodes)
    glue = generate_glue(model, benchmark_mapping(model, nodes),
                         num_processors=nodes)
    env = Environment()
    cluster = SimCluster.from_platform(env, get_platform("cspi"), nodes)
    runtime = SageRuntime(glue, cluster, config=DEFAULT_CONFIG.timing_only())
    runtime.run(iterations=iterations)
    assert env.events_processed == FFT2D_256_EVENTS[nodes, iterations]
    assert not runtime._in_flight
