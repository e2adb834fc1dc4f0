"""Elastic membership: node join, re-grow after shrink, live migration.

Covers the whole stack: simulator/cluster slot hygiene on remove/re-add,
the detector's join/admission handshake, ``grow_mapping``, and the
run-time's ``grow_restripe`` policy end to end.
"""

import numpy as np
import pytest

from repro.apps import (
    MatrixProvider,
    benchmark_mapping,
    corner_turn_model,
    fft2d_model,
)
from repro.core.codegen import generate_glue
from repro.core.model import Mapping
from repro.core.model.mapping import grow_mapping, shrink_mapping
from repro.core.runtime import SageRuntime
from repro.faults import FaultPlan, FaultPolicy
from repro.machine import Environment, SimCluster, cspi
from repro.machine.simulator import SimulationError
from repro.mpi.detector import FailureDetector, HeartbeatConfig
from repro.perf.registry import REGISTRY

N = 32
NODES = 8


def make_runtime(builder=fft2d_model, plan=None, policy=None):
    app = builder(N, NODES)
    glue = generate_glue(app, benchmark_mapping(app, NODES),
                         num_processors=NODES)
    return SageRuntime.build(glue, cspi(), fault_plan=plan, fault_policy=policy)


def run(runtime, iterations=6):
    return runtime.run(iterations=iterations, input_provider=MatrixProvider(N))


@pytest.fixture(scope="module")
def baselines():
    """Fault-free runs under the same policy as the elastic runs, so probe
    content (checkpoints, detector chatter) is comparable event for event."""
    return {
        "clean": {
            "fft2d": run(make_runtime(fft2d_model)),
            "corner_turn": run(make_runtime(corner_turn_model)),
        },
        "grow_policy": {
            "fft2d": run(make_runtime(
                fft2d_model, policy=FaultPolicy.grow_restripe())),
            "corner_turn": run(make_runtime(
                corner_turn_model, policy=FaultPolicy.grow_restripe())),
        },
    }


def elastic_plan(base_makespan, kills=1, seed=5):
    """Permanent kills staggered mid-run, same-slot rejoins later."""
    plan = FaultPlan(seed=seed)
    for i in range(kills):
        plan.crash_node(NODES - 1 - i,
                        at=base_makespan * (0.20 + 0.10 * i),
                        permanent=True)
    for i in range(kills):
        plan.join_node(NODES - 1 - i,
                       at=base_makespan * (0.55 + 0.05 * i))
    return plan


# -- machine layer -----------------------------------------------------------

class TestClusterElasticity:
    def test_resource_reset_drops_holders_and_waiters(self):
        env = Environment()
        cluster = SimCluster.from_platform(env, cspi(), 2)
        node = cluster.node(0)
        failures = []

        def holder():
            req = node.cpu.request()
            yield req
            yield env.timeout(10.0)

        def waiter():
            req = node.cpu.request()
            try:
                yield req
            except SimulationError as exc:
                failures.append(str(exc))

        env.process(holder())
        env.process(waiter())
        env.run(until=0.1)
        assert node.cpu.count == node.cpu.capacity
        dropped = node.reset()
        assert dropped >= 1
        assert node.cpu.count == 0
        env.run(until=0.2)
        assert failures  # the queued waiter was failed, not leaked

    def test_readded_node_starts_with_clean_capacity(self):
        """Satellite: removing a node mid-transfer must not leak slots into
        a replacement that reuses the same id."""
        env = Environment()
        cluster = SimCluster.from_platform(env, cspi(), 4)

        def transfer():
            yield from cluster.transfer(0, 3, 1 << 20)

        env.process(transfer())
        env.run(until=1e-6)  # mid-flight
        cluster.remove_node(3)
        cluster.add_node(index=3)
        node = cluster.node(3)
        assert node.cpu.count == 0
        assert node.allocated_bytes == 0
        # And the replacement is fully usable.
        done = []

        def transfer2():
            outcome = yield from cluster.transfer(0, 3, 4096)
            done.append(outcome.ok)

        env.process(transfer2())
        env.run(until=env.now + 1.0)
        assert done == [True]

    def test_add_node_new_capacity_gets_fresh_board(self):
        env = Environment()
        cluster = SimCluster.from_platform(env, cspi(), 4)
        boards_before = dict(cluster.fabric.boards)
        node = cluster.add_node()
        assert node.index == 4
        assert len(cluster) == 5
        assert cluster.fabric.boards[4] not in set(boards_before.values())

    def test_add_node_gap_index_rejected(self):
        env = Environment()
        cluster = SimCluster.from_platform(env, cspi(), 4)
        with pytest.raises(ValueError):
            cluster.add_node(index=9)


# -- detector join protocol --------------------------------------------------

class TestJoinProtocol:
    def _detector(self, plan=None, nodes=NODES, period=1e-4):
        env = Environment()
        cluster = SimCluster.from_platform(env, cspi(), nodes,
                                           fault_plan=plan)
        det = FailureDetector(cluster, HeartbeatConfig(period=period)).start()
        return env, cluster, det

    def test_rejoin_after_death_is_admitted(self):
        plan = (FaultPlan(seed=5)
                .crash_node(NODES - 1, at=0.002, permanent=True)
                .join_node(NODES - 1, at=0.005))
        env, cluster, det = self._detector(plan)
        env.run(until=det.death_event(NODES - 1))
        env.run(until=0.0051)
        ev = det.request_join(NODES - 1)
        env.run(until=ev)
        at, coordinator = det.admitted(NODES - 1)
        assert coordinator == 0  # lowest live rank acks
        lat = det.join_latency(NODES - 1)
        assert 0 < lat <= det.config.window
        # The readmitted rank heartbeats again: soak and assert no relapse.
        env.run(until=env.now + 20 * det.config.period)
        assert NODES - 1 not in det.declared_dead()
        det.stop()

    def test_new_rank_join_extends_membership(self):
        env, cluster, det = self._detector(nodes=4)
        env.run(until=0.001)
        cluster.add_node()  # index 4, powered on
        ev = det.request_join(4)
        env.run(until=ev)
        assert det.admitted(4) is not None
        assert det.ranks == [0, 1, 2, 3, 4]
        env.run(until=env.now + 20 * det.config.period)
        assert not det.declared_dead()
        det.stop()

    def test_join_succeeds_over_lossy_channel(self):
        plan = (FaultPlan(seed=23)
                .message_loss(0.30)
                .crash_node(NODES - 1, at=0.002, permanent=True)
                .join_node(NODES - 1, at=0.005))
        env, cluster, det = self._detector(plan)
        env.run(until=det.death_event(NODES - 1))
        env.run(until=0.0051)
        ev = det.request_join(NODES - 1)
        env.run(until=env.any_of([ev, env.timeout(100 * det.config.period)]))
        assert det.admitted(NODES - 1) is not None
        det.stop()

    def test_join_events_are_deterministic(self):
        def trace():
            plan = (FaultPlan(seed=7)
                    .crash_node(3, at=0.002, permanent=True)
                    .join_node(3, at=0.004))
            env, cluster, det = self._detector(plan, nodes=4)
            log = []
            det.subscribe(lambda t, kind, obs, tgt, detail:
                          log.append((t, kind, obs, tgt)))
            env.run(until=det.death_event(3))
            env.run(until=0.0041)
            ev = det.request_join(3)
            env.run(until=ev)
            det.stop()
            return log

        assert trace() == trace()


# -- grow mapping ------------------------------------------------------------

class TestGrowMapping:
    def test_replacements_restore_original_home(self):
        original = Mapping({(0, t): t % 4 for t in range(8)})
        current = shrink_mapping(original, [0, 1, 2])
        out = grow_mapping(current, original, {3: 3})
        assert dict(out.items()) == dict(original.items())

    def test_fresh_id_stands_in_for_lost_processor(self):
        original = Mapping({(0, t): t % 4 for t in range(8)})
        current = shrink_mapping(original, [0, 1, 2])
        out = grow_mapping(current, original, {3: 7})
        for t in range(8):
            want = 7 if t % 4 == 3 else t % 4
            assert out.processor_of(0, t) == want

    def test_partial_regrow_composes(self):
        original = Mapping({(0, t): t % 4 for t in range(8)})
        degraded = shrink_mapping(original, [0, 1])
        wave1 = grow_mapping(degraded, original, {2: 2})
        wave2 = grow_mapping(wave1, original, {3: 3})
        assert dict(wave2.items()) == dict(original.items())


# -- run-time end to end -----------------------------------------------------

APP_EVENT_KINDS = ("enter", "exit", "send", "arrive", "source", "sink",
                   "checkpoint")


def structural_events(result, from_iteration):
    """Time-stripped canonical events from ``from_iteration`` onwards."""
    return [
        (e.kind, e.function, e.function_id, e.thread, e.processor,
         e.iteration, e.detail, e.nbytes)
        for e in result.trace
        if e.kind in APP_EVENT_KINDS and e.iteration >= from_iteration
    ]


class TestGrowRestripe:
    @pytest.mark.parametrize("app_name,builder",
                             [("fft2d", fft2d_model),
                              ("corner_turn", corner_turn_model)])
    def test_full_cycle_bitwise_and_fully_restored(self, baselines,
                                                   app_name, builder):
        """Acceptance: crash -> shrink -> rejoin -> migrate completes with
        bitwise-identical results and ends back at the original mapping."""
        base = baselines["clean"][app_name]
        runtime = make_runtime(builder, plan=elastic_plan(base.makespan),
                               policy=FaultPolicy.grow_restripe())
        result = run(runtime)
        for k in range(6):
            assert np.array_equal(result.full_result(k), base.full_result(k))
        for kind in ("shrink", "restripe", "join", "grow", "migrate"):
            assert result.trace.by_kind(kind), kind
        # Fully restored: no overrides left, all processors active again.
        assert runtime._proc_override == {}
        assert sorted(runtime._active_processors) == list(range(NODES))
        assert runtime._lost_processors == []

    @pytest.mark.parametrize("kills", [2, 3])
    def test_multi_node_replacement(self, baselines, kills):
        base = baselines["clean"]["corner_turn"]
        runtime = make_runtime(
            corner_turn_model,
            plan=elastic_plan(base.makespan, kills=kills, seed=6),
            policy=FaultPolicy.grow_restripe(max_restarts=kills + 2))
        result = run(runtime)
        for k in range(6):
            assert np.array_equal(result.full_result(k), base.full_result(k))
        assert runtime._proc_override == {}
        assert sorted(runtime._active_processors) == list(range(NODES))

    def test_post_migration_trace_matches_from_scratch_run(self, baselines):
        """Acceptance: after the migration, the probe trace is byte-identical
        (modulo the virtual-time offset the recovery added) to a from-scratch
        run at the final mapping — which, for same-slot replacement, is the
        fault-free run under the same policy."""
        base = baselines["grow_policy"]["fft2d"]
        clean_makespan = baselines["clean"]["fft2d"].makespan
        runtime = make_runtime(fft2d_model,
                               plan=elastic_plan(clean_makespan),
                               policy=FaultPolicy.grow_restripe())
        result = run(runtime)
        migrates = result.trace.by_kind("migrate")
        assert migrates
        k_grow = migrates[-1].iteration
        assert k_grow < 5  # post-migration iterations exist to compare
        assert (structural_events(result, k_grow)
                == structural_events(base, k_grow))

    def test_throughput_restored_within_5pct(self, baselines):
        """Acceptance: steady-state rate after re-grow is within 5% of the
        pre-failure rate (same-policy fault-free baseline)."""
        base = baselines["grow_policy"]["fft2d"]
        base_intervals = np.diff(base.sink_times)
        runtime = make_runtime(
            fft2d_model,
            plan=elastic_plan(baselines["clean"]["fft2d"].makespan),
            policy=FaultPolicy.grow_restripe())
        result = run(runtime)
        t_migrate = max(e.time for e in result.trace.by_kind("migrate"))
        post = [t for t in result.sink_times if t > t_migrate]
        assert len(post) >= 2
        recovered = float(np.mean(np.diff(post)))
        baseline = float(np.mean(base_intervals[-len(post) + 1:]))
        assert recovered == pytest.approx(baseline, rel=0.05)

    def test_migration_pause_recorded(self, baselines):
        base = baselines["clean"]["fft2d"]
        before = REGISTRY.timers.get("runtime.migration_pause_s")
        count_before = before.count if before else 0
        runtime = make_runtime(fft2d_model, plan=elastic_plan(base.makespan),
                               policy=FaultPolicy.grow_restripe())
        run(runtime)
        stats = REGISTRY.timers["runtime.migration_pause_s"]
        assert stats.count == count_before + 1
        assert stats.max > 0

    def test_shrink_policy_ignores_joins(self, baselines):
        """shrink_restripe never re-grows: the join is announced but the
        run completes degraded."""
        base = baselines["clean"]["fft2d"]
        runtime = make_runtime(fft2d_model, plan=elastic_plan(base.makespan),
                               policy=FaultPolicy.shrink_restripe())
        result = run(runtime)
        for k in range(6):
            assert np.array_equal(result.full_result(k), base.full_result(k))
        assert not result.trace.by_kind("grow")
        assert not result.trace.by_kind("migrate")
        assert sorted(runtime._active_processors) == list(range(NODES - 1))

    def test_cycle_is_deterministic(self, baselines):
        base_makespan = baselines["clean"]["fft2d"].makespan

        def cycle_trace():
            runtime = make_runtime(fft2d_model,
                                   plan=elastic_plan(base_makespan),
                                   policy=FaultPolicy.grow_restripe())
            result = run(runtime)
            return result.makespan, [
                (e.time, e.kind, e.processor, e.detail)
                for e in result.trace
                if e.kind in ("suspect", "declare_dead", "shrink",
                              "restripe", "join", "grow", "migrate",
                              "checkpoint", "restore")
            ]

        assert cycle_trace() == cycle_trace()
