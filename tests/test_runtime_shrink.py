"""Run-time shrinking recovery: detect, shrink, re-stripe, complete degraded."""

import numpy as np
import pytest

from repro.apps import (
    MatrixProvider,
    benchmark_mapping,
    corner_turn_model,
    fft2d_model,
)
from repro.core.codegen import generate_glue
from repro.core.model import Mapping, ModelError, shrink_mapping
from repro.core.runtime import SageRuntime
from repro.core.runtime.striping import PlannedMessage, plan_remote_traffic
from repro.faults import FaultPlan, FaultPolicy
from repro.machine import cspi

N = 32
NODES = 8


def make_runtime(builder=fft2d_model, plan=None, policy=None):
    app = builder(N, NODES)
    glue = generate_glue(app, benchmark_mapping(app, NODES),
                         num_processors=NODES)
    return SageRuntime.build(glue, cspi(), fault_plan=plan, fault_policy=policy)


def run(runtime, iterations=3):
    return runtime.run(iterations=iterations, input_provider=MatrixProvider(N))


@pytest.fixture(scope="module")
def baselines():
    return {
        "fft2d": run(make_runtime(fft2d_model)),
        "corner_turn": run(make_runtime(corner_turn_model)),
    }


class TestShrinkMapping:
    def test_survivor_threads_stay_put(self):
        m = Mapping({(0, 0): 0, (0, 1): 1, (0, 2): 2})
        out = shrink_mapping(m, [0, 2])
        assert out.processor_of(0, 0) == 0
        assert out.processor_of(0, 2) == 2

    def test_orphans_dealt_round_robin_deterministically(self):
        m = Mapping({(0, t): t % 4 for t in range(8)})
        out = shrink_mapping(m, [0, 1])
        orphans = [out.processor_of(0, t) for t in range(8) if t % 4 >= 2]
        assert orphans == [0, 1, 0, 1]

    def test_needs_a_survivor(self):
        with pytest.raises(ModelError, match="survivor"):
            shrink_mapping(Mapping({(0, 0): 0}), [])


class TestPlanRemoteTraffic:
    def test_counts_only_cross_processor_bytes(self):
        plan = [
            PlannedMessage(0, 0, (), 100),   # co-located below
            PlannedMessage(0, 1, (), 40),    # remote
            PlannedMessage(1, 0, (), 7),     # remote
        ]
        send, recv = plan_remote_traffic(
            plan, lambda t: t % 2, lambda t: 0)
        assert send == {1: 7}
        assert recv == {0: 7}
        send, recv = plan_remote_traffic(
            plan, lambda t: 0, lambda t: t % 2)
        assert send == {0: 40}
        assert recv == {1: 40}


class TestShrinkRecovery:
    @pytest.mark.parametrize("app_name,builder",
                             [("fft2d", fft2d_model),
                              ("corner_turn", corner_turn_model)])
    def test_bitwise_correct_after_permanent_kill(self, baselines,
                                                  app_name, builder):
        """Acceptance: a permanent mid-run kill of 1 of 8 nodes is survived
        with bitwise-identical results at degraded throughput."""
        base = baselines[app_name]
        plan = FaultPlan(seed=5).crash_node(
            3, at=base.makespan * 0.4, permanent=True)
        runtime = make_runtime(builder, plan=plan,
                               policy=FaultPolicy.shrink_restripe())
        result = run(runtime)
        for k in range(3):
            assert np.array_equal(result.full_result(k), base.full_result(k))
        # Degraded, not free: recovery and the lost node cost makespan.
        assert result.makespan > base.makespan

    def test_recovery_probes_on_the_timeline(self, baselines):
        base = baselines["fft2d"]
        plan = FaultPlan(seed=5).crash_node(
            3, at=base.makespan * 0.4, permanent=True)
        runtime = make_runtime(fft2d_model, plan=plan,
                               policy=FaultPolicy.shrink_restripe())
        result = run(runtime)
        for kind in ("fault_injected", "suspect", "declare_dead",
                     "checkpoint", "shrink", "restripe", "restore"):
            assert result.trace.by_kind(kind), kind
        declare = result.trace.by_kind("declare_dead")[0]
        crash = next(e for e in result.trace.by_kind("fault_injected")
                     if "node_crash" in e.detail)
        # Detection happens after the crash, within ~the configured window.
        policy = runtime.fault_policy
        window = ((policy.miss_grace + policy.suspicion_threshold)
                  * policy.heartbeat_period)
        assert 0 < declare.time - crash.time <= 2 * window
        assert declare.processor == 3
        # The shrink happened at/after declaration, the restripe moved bytes.
        shrink = result.trace.by_kind("shrink")[0]
        restripe = result.trace.by_kind("restripe")[0]
        assert shrink.time >= declare.time
        assert restripe.time >= shrink.time
        assert restripe.nbytes > 0

    def test_two_permanent_kills_survived(self, baselines):
        base = baselines["corner_turn"]
        plan = (FaultPlan(seed=6)
                .crash_node(7, at=base.makespan * 0.35, permanent=True)
                .crash_node(6, at=base.makespan * 0.55, permanent=True))
        runtime = make_runtime(
            corner_turn_model, plan=plan,
            policy=FaultPolicy.shrink_restripe(max_restarts=4))
        result = run(runtime)
        for k in range(3):
            assert np.array_equal(result.full_result(k), base.full_result(k))
        assert len(result.trace.by_kind("shrink")) == 2

    def test_checkpoint_restart_still_aborts_on_permanent_loss(self, baselines):
        """Without shrink_restripe, permanent loss stays fatal (PR 1 contract)."""
        base = baselines["fft2d"]
        plan = FaultPlan(seed=5).crash_node(
            3, at=base.makespan * 0.4, permanent=True)
        runtime = make_runtime(fft2d_model, plan=plan,
                               policy=FaultPolicy.checkpoint_restart())
        with pytest.raises(RuntimeError, match="failed permanently"):
            run(runtime)

    def test_transient_crash_under_shrink_policy_revives(self, baselines):
        """A revivable crash is restarted and cleared, not shrunk away."""
        base = baselines["fft2d"]
        plan = FaultPlan(seed=5).crash_node(3, at=base.makespan * 0.4)
        runtime = make_runtime(fft2d_model, plan=plan,
                               policy=FaultPolicy.shrink_restripe())
        result = run(runtime)
        for k in range(3):
            assert np.array_equal(result.full_result(k), base.full_result(k))
        assert not result.trace.by_kind("shrink")
        assert result.trace.by_kind("restore")

    def test_fault_free_shrink_policy_changes_nothing(self, baselines):
        """Acceptance: zero false positives — no detector verdicts, results
        and probe content identical to a checkpointing run."""
        result = run(make_runtime(fft2d_model,
                                  policy=FaultPolicy.shrink_restripe()))
        for kind in ("suspect", "declare_dead", "shrink", "restripe",
                     "restore"):
            assert not result.trace.by_kind(kind)
        base = baselines["fft2d"]
        for k in range(3):
            assert np.array_equal(result.full_result(k), base.full_result(k))


class TestDeterminism:
    @staticmethod
    def _recovery_trace():
        runtime = make_runtime(
            fft2d_model,
            plan=FaultPlan(seed=5).crash_node(3, at=0.0006, permanent=True),
            policy=FaultPolicy.shrink_restripe())
        result = run(runtime)
        return result.makespan, [
            (e.time, e.kind, e.processor, e.detail)
            for e in result.trace
            if e.kind in ("suspect", "declare_dead", "shrink", "restripe",
                          "restore", "checkpoint")
        ]

    def test_identical_seeds_reproduce_identical_recovery(self):
        assert self._recovery_trace() == self._recovery_trace()
