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

The three runs that start a failure detector — ``fft2d_8n_rejoin_grow``,
``fft2d_8n_straggler_migrate`` and the restripe retry under
``shrink_restripe`` — were re-pinned lower (10,374 → 5,795, 139,680 →
89,512, 2,490 → 1,660) when heartbeats stopped being one generator process
each; their digests did not move.  No service job starts a detector, so
the bus digests stand, and every detector-free count here (the clean
goldens, ``FFT2D_256_EVENTS``, ``HAND_MPI``) is as recorded before.

The hand-coded MPI baselines (Table 1.0's denominator), a retried
``repro.mpi`` exchange and a retried restripe shipment are pinned the same
way: event count plus a digest of the virtual timeline, recorded before
``repro.mpi`` and restripe shipping moved onto fabric crossings.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.apps import benchmark_mapping, corner_turn_model, fft2d_model
from repro.core.codegen import generate_glue
from repro.core.runtime import DEFAULT_CONFIG, FaultPolicy, SageRuntime
from repro.experiments.runner import APP_BUILDERS
from repro.machine import Environment, FaultPlan, SimCluster, get_platform
from repro.mpi import MpiWorld, RetryPolicy

from .golden_traces import SCENARIOS, digest_of, load_golden, run_scenario_in_env

GOLDEN_EVENTS = {
    "fft2d_4n_clean": 916,
    "cornerturn_4n_clean": 688,
    "fft2d_4n_crash_ckpt": 1251,
    "cornerturn_4n_lossy_retry": 468,
    "fft2d_8n_rejoin_grow": 5795,
    "fft2d_8n_straggler_migrate": 89512,
}

#: (nodes, iterations) -> events, fft2d 256^2 on the CSPI platform,
#: timing-only: the benchmark's steady_8n and scale_32n designs.
FFT2D_256_EVENTS = {(8, 5): 4326, (32, 2): 19203}

#: Corner turn 256^2 on 8 CSPI nodes, 5 iterations, timing-only: the
#: benchmark's other steady_8n design, as (events, trace digest).
CORNER_TURN_256_8N = (
    3566, "5f0a4a0b8c3a06be611f28ceb028ea3e75a7ace6c5f0ae6d2819474a9ef62eec")

#: (app, alltoall algorithm, nodes) -> (events, digest of every rank's
#: starts/finishes): the hand-coded baselines, 256^2, 5 iterations, CSPI,
#: phantom data.  Recorded before repro.mpi moved onto fabric crossings.
HAND_MPI = {
    ("fft2d", "bruck", 4): (508, "92fd002e8a7322cf"),
    ("fft2d", "bruck", 16): (3065, "daf255a63ac69f17"),
    ("fft2d", "direct", 4): (582, "e03d7881808fc0eb"),
    ("fft2d", "direct", 16): (9056, "69606d4319c6f820"),
    ("fft2d", "pairwise", 4): (559, "95ddc413527d99a9"),
    ("fft2d", "pairwise", 16): (8473, "798e595ae14a4b6a"),
    ("fft2d", "ring", 4): (554, "95ddc413527d99a9"),
    ("fft2d", "ring", 16): (8394, "899c358dcdf42175"),
    ("corner_turn", "bruck", 4): (428, "c487b293e960084f"),
    ("corner_turn", "bruck", 16): (2745, "102098074bad834d"),
    ("corner_turn", "direct", 4): (502, "7180beb23e8303fe"),
    ("corner_turn", "direct", 16): (8736, "d4d10a89a1ae6245"),
    ("corner_turn", "pairwise", 4): (479, "3da4cd1127133fa9"),
    ("corner_turn", "pairwise", 16): (8153, "4d8ddfd21e414c46"),
    ("corner_turn", "ring", 4): (474, "3da4cd1127133fa9"),
    ("corner_turn", "ring", 16): (8074, "7c3b7b69aed07ecc"),
}


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


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
    runtime = SageRuntime.build(glue, get_platform("cspi"),
                                config=DEFAULT_CONFIG.timing_only())
    runtime.run(iterations=iterations)
    assert runtime.env.events_processed == FFT2D_256_EVENTS[nodes, iterations]
    assert not runtime._in_flight


def test_corner_turn_256_event_count_and_digest():
    model = corner_turn_model(256, 8)
    glue = generate_glue(model, benchmark_mapping(model, 8), num_processors=8)
    runtime = SageRuntime.build(glue, get_platform("cspi"),
                                config=DEFAULT_CONFIG.timing_only())
    result = runtime.run(iterations=5)
    assert (runtime.env.events_processed, digest_of(result)) == CORNER_TURN_256_8N
    assert not runtime._in_flight


@pytest.mark.parametrize("app,algorithm,nodes", sorted(HAND_MPI))
def test_hand_mpi_timing_and_event_count(app, algorithm, nodes):
    env = Environment()
    world = MpiWorld(SimCluster.from_platform(env, get_platform("cspi"), nodes))
    world.spawn(APP_BUILDERS[app][1], 256, iterations=5,
                alltoall_algorithm=algorithm, execute_data=False)
    timings = world.run()
    got = _sha([(t.starts, t.finishes) for t in timings])
    assert (env.events_processed, got) == HAND_MPI[app, algorithm, nodes]


def test_lossy_mpi_retry_with_jitter():
    """Seeded loss, retransmission under a jittered backoff: the attempts,
    the loss draws and every rank's timeline stay where they were."""
    env = Environment()
    cluster = SimCluster.from_platform(
        env, get_platform("cspi"), 4, fault_plan=FaultPlan(seed=5).message_loss(0.2))
    world = MpiWorld(cluster, retry_policy=RetryPolicy(
        max_attempts=8, backoff=1e-5, jitter=0.5))
    lost = []
    cluster.faults.subscribe(lambda time, kind, detail, node: lost.append(kind))

    def program(comm):
        times = []
        for _ in range(3):
            yield from comm.alltoall([np.zeros(256)] * comm.size)
            times.append(comm.now)
        return times

    world.spawn(program)
    times = world.run()
    assert len(lost) == 7
    assert world.total_messages == 4 * 3 * 3 + len(lost)
    assert _sha(times) == "1b5e6095d54665a0"
    assert env.events_processed == 271


def test_restripe_retry_under_shrink_restripe():
    """A permanent crash under seeded loss: a region shipped by the shrink's
    restripe is lost and retransmitted under a jittered backoff."""
    plan = FaultPlan(seed=3).message_loss(0.2)
    plan.crash_node(2, at=0.0005, permanent=True)
    model = fft2d_model(32, 4)
    glue = generate_glue(model, benchmark_mapping(model, 4), num_processors=4)
    policy = dataclasses.replace(
        FaultPolicy.shrink_restripe(max_retries=4), backoff_jitter=0.25)
    runtime = SageRuntime.build(glue, get_platform("cspi"), fault_plan=plan,
                                fault_policy=policy,
                                config=DEFAULT_CONFIG.timing_only())
    result = runtime.run(iterations=3)
    retries = [e.detail for e in result.trace.by_kind("retry")
               if e.detail.startswith("restripe")]
    assert retries[0] == (
        "restripe src.out->rowfft.in.src[2] 3->0 attempt 1: message lost")
    assert len(retries) == 3
    assert digest_of(result) == (
        "3e4f8fbbcc0ed5a5ff9454cc647b172c342c45184b64a6121d6c5cdc0c434957")
    assert runtime.env.events_processed == 1660
