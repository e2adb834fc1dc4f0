"""Gray-failure resilience: RTT-probe straggler detection, adaptive
timeouts under lossy fabrics, and the runtime's drain/restore migration."""

import math

import pytest

from repro.apps import benchmark_mapping, fft2d_slack_model
from repro.core.codegen import generate_glue
from repro.core.runtime import DEFAULT_CONFIG, SageRuntime
from repro.faults import FaultPlan, FaultPolicy
from repro.machine import Environment, SimCluster, get_platform
from repro.mpi.adaptive import RttEstimator
from repro.mpi.detector import FailureDetector, HeartbeatConfig
from repro.perf.registry import REGISTRY

PERIOD = 1e-4


def _detector(nodes=4, plan=None, **cfg):
    env = Environment()
    cluster = SimCluster.from_platform(env, get_platform("cspi"), nodes,
                                       fault_plan=plan)
    detector = FailureDetector(cluster, HeartbeatConfig(period=PERIOD, **cfg))
    return env, detector.start()


# -- the estimator's peak watermark ------------------------------------------

def test_estimator_peak_tracks_and_decays():
    est = RttEstimator()
    for _ in range(10):
        est.observe(1.0)
    est.observe(5.0)                      # one big spike
    assert est.peak == 5.0
    for _ in range(300):
        est.observe(1.0)
    assert est.peak < 1.5                 # decayed back toward the mean
    assert est.peak >= est.mean


def test_estimator_peak_decay_scales():
    slow = RttEstimator(peak_decay=RttEstimator.PEAK_DECAY / 10)
    fast = RttEstimator()
    for est in (slow, fast):
        est.observe(1.0)
        est.observe(5.0)
        for _ in range(50):
            est.observe(1.0)
    assert slow.peak > fast.peak


def test_estimator_validates_peak_decay():
    with pytest.raises(ValueError):
        RttEstimator(peak_decay=0.0)
    with pytest.raises(ValueError):
        RttEstimator(peak_decay=1.5)


# -- slow-node suspicion via RTT probes --------------------------------------

def test_slow_node_raises_and_clears_suspect_slow():
    plan = FaultPlan(seed=3).slow_node(2, at=20 * PERIOD, factor=0.2,
                                       duration=60 * PERIOD)
    env, det = _detector(plan=plan, adaptive=True, rtt_probe_every=4)
    env.run(until=60 * PERIOD)            # mid-limp: suspicion is standing
    assert det.first_slow(2) is not None
    env.run(until=200 * PERIOD)
    det.stop()
    kinds = [(e.kind, e.target) for e in det.log]
    assert ("suspect_slow", 2) in kinds
    assert ("clear_slow", 2) in kinds
    suspected = next(e.time for e in det.log if e.kind == "suspect_slow")
    assert suspected > 20 * PERIOD
    # A limping node is alive: liveness detection must not fire at all.
    assert all(e.kind != "declare_dead" for e in det.log)
    # clear_slow retires the standing suspicion entirely.
    assert det.first_slow(2) is None


def test_sub_threshold_limp_stays_invisible():
    # slow_factor=3.0: a 2x stretch is within normal variance by design.
    plan = FaultPlan(seed=3).slow_node(2, at=20 * PERIOD, factor=0.5)
    env, det = _detector(plan=plan, adaptive=True, rtt_probe_every=4)
    env.run(until=200 * PERIOD)
    det.stop()
    assert all(e.kind not in ("suspect_slow", "declare_dead")
               for e in det.log)


# -- adaptive grace under a lossy fabric -------------------------------------

def _false_declares(adaptive, seed=82, nodes=4, loss=0.15, periods=600):
    plan = FaultPlan(seed=seed).message_loss(loss)
    env, det = _detector(nodes=nodes, plan=plan, adaptive=adaptive)
    env.run(until=periods * PERIOD)
    det.stop()
    # Nothing ever dies here: every declaration is a false positive.
    return sum(1 for e in det.log if e.kind == "declare_dead")


def test_fixed_grace_false_positives_under_loss():
    assert _false_declares(adaptive=False) > 0


def test_adaptive_grace_suppresses_false_positives():
    assert _false_declares(adaptive=True) == 0


def test_adaptive_still_declares_a_real_crash():
    plan = (FaultPlan(seed=5).message_loss(0.10)
            .crash_node(2, at=100 * PERIOD, permanent=True))
    env, det = _detector(plan=plan, adaptive=True)
    env.run(until=600 * PERIOD)
    det.stop()
    first = det.first_detection(2)
    assert first is not None
    declared_at, _observer = first
    latency = declared_at - 100 * PERIOD
    # Bounded by the adaptive ceiling plus the suspicion threshold.
    cfg = det.config
    assert latency <= (cfg.max_grace_periods + cfg.threshold + 1) * PERIOD
    # Only the dead node is declared — the lossy fabric alone never is.
    assert {e.target for e in det.log if e.kind == "declare_dead"} == {2}


# -- the runtime's drain/restore migration -----------------------------------

def _run_limping(model, nodes, plan, policy, iterations):
    glue = generate_glue(model, benchmark_mapping(model, nodes),
                         num_processors=nodes)
    runtime = SageRuntime.build(glue, get_platform("cspi"), fault_plan=plan,
                                fault_policy=policy,
                                config=DEFAULT_CONFIG.timing_only())
    return runtime.run(iterations=iterations)


@pytest.fixture(scope="module")
def straggler_run():
    # Node 2 carries the light half of the stripe (its clean busy time is
    # ~0.6x the median), so the 4x limp must persist across two full
    # iteration boundaries before the 2x-median strike count reaches
    # straggler_patience; 9ms covers that with room to restore after.
    plan = FaultPlan(seed=9).slow_node(2, at=5e-4, factor=0.25,
                                       duration=9e-3)
    return _run_limping(fft2d_slack_model(28, 14), 4, plan,
                        FaultPolicy.migrate_stragglers(), iterations=12)


def test_migration_drains_and_restores(straggler_run):
    moves = straggler_run.trace.by_kind("migrate_straggler")
    assert len(moves) >= 2
    details = [m.detail for m in moves]
    assert any(d.startswith("drained") for d in details)
    assert any(d.startswith("restored") for d in details)
    assert straggler_run.trace.by_kind("suspect_slow")
    # Proactive migration, not fail-over: nobody is declared dead.
    assert not straggler_run.trace.by_kind("declare_dead")


def test_migration_completes_all_iterations(straggler_run):
    assert straggler_run.iterations == 12
    assert len(straggler_run.sink_times) == 12
    assert all(b > a for a, b in zip(straggler_run.sink_times,
                                     straggler_run.sink_times[1:]))
    assert math.isfinite(straggler_run.makespan)


def test_migration_beats_no_migration():
    def run(policy):
        plan = FaultPlan(seed=9).slow_node(2, at=5e-4, factor=0.25)
        return _run_limping(fft2d_slack_model(28, 14), 4, plan, policy,
                            iterations=10)

    unassisted = run(FaultPolicy.checkpoint_restart())
    migrated = run(FaultPolicy.migrate_stragglers())
    assert migrated.makespan < unassisted.makespan


def test_bench_straggler_pause_stat():
    """A straggler drain records its (virtual) re-striping pause into the
    process-wide registry as ``runtime.straggler_pause_s``."""
    before = REGISTRY.timers.get("runtime.straggler_pause_s")
    count_before, total_before = (before.count, before.total) if before else (0, 0.0)
    plan = FaultPlan(seed=72).slow_node(4, at=5e-4, factor=0.25)
    _run_limping(fft2d_slack_model(), 8, plan,
                 FaultPolicy.migrate_stragglers(), iterations=12)
    stats = REGISTRY.timers["runtime.straggler_pause_s"]
    assert stats.count - count_before >= 1
    assert stats.total - total_before > 0
