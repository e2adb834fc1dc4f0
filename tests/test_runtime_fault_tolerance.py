"""Run-time fault tolerance: fail_fast, retry, and checkpoint_restart."""

import numpy as np
import pytest

from repro.apps import MatrixProvider, benchmark_mapping, corner_turn_model
from repro.core.codegen import generate_glue
from repro.core.runtime import (
    DEFAULT_CONFIG,
    KernelBinding,
    SageRuntime,
    RuntimeError_,
)
from repro.faults import (
    FaultPlan,
    FaultPolicy,
    NodeFailure,
    TransientError,
    TransportError,
)
from repro.machine import Environment, SimCluster, cspi

N = 16
NODES = 2


def make_runtime(plan=None, policy=None, bindings=None, config=None):
    app = corner_turn_model(N, NODES)
    glue = generate_glue(app, benchmark_mapping(app, NODES),
                         num_processors=NODES)
    env = Environment()
    cluster = SimCluster.from_platform(env, cspi(), NODES, fault_plan=plan)
    return SageRuntime(
        glue, cluster, config=config or DEFAULT_CONFIG,
        bindings=bindings, fault_policy=policy,
    )


def run(runtime, iterations=3):
    return runtime.run(iterations=iterations, input_provider=MatrixProvider(N))


@pytest.fixture(scope="module")
def baseline():
    result = run(make_runtime())
    return result


class TestPolicyValidation:
    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            FaultPolicy(mode="hope")

    def test_negative_knobs_rejected(self):
        with pytest.raises(ValueError):
            FaultPolicy(max_retries=-1)

    def test_constructors(self):
        assert FaultPolicy.fail_fast().mode == "fail_fast"
        assert not FaultPolicy.fail_fast().checkpoints
        assert FaultPolicy.retry().retries_transfers
        assert FaultPolicy.checkpoint_restart().checkpoints


class TestFailFast:
    def test_node_crash_raises_legible_error(self, baseline):
        plan = FaultPlan().crash_node(1, at=baseline.makespan * 0.4)
        with pytest.raises(NodeFailure, match="node 1 crashed at t="):
            run(make_runtime(plan=plan))

    def test_lost_message_raises_transport_error(self):
        plan = FaultPlan(seed=42).message_loss(0.10)
        with pytest.raises(TransportError,
                           match=r"message .*#\d+ from processor .* "
                                 r"undelivered: message lost"):
            run(make_runtime(plan=plan))

    def test_fault_injected_probes_recorded(self, baseline):
        plan = FaultPlan().crash_node(1, at=baseline.makespan * 0.4)
        runtime = make_runtime(plan=plan)
        with pytest.raises(NodeFailure):
            run(runtime)
        faults = runtime.trace.by_kind("fault_injected")
        assert faults and faults[0].function == "<fault>"
        assert "node_crash" in faults[0].detail
        assert faults[0].processor == 1


class TestRetryPolicy:
    def test_lossy_run_completes_with_retry_probes(self, baseline):
        plan = FaultPlan(seed=42).message_loss(0.10)
        result = run(make_runtime(plan=plan,
                                  policy=FaultPolicy.retry(max_retries=4)))
        assert len(result.trace.by_kind("retry")) > 0
        ref = baseline.full_result(2)
        assert np.array_equal(result.full_result(2), ref)
        # Resent wire time shows up in the makespan.
        assert result.makespan > baseline.makespan

    def test_transient_kernel_fault_is_retried(self):
        calls = {"n": 0}

        def flaky(ctx, inputs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise TransientError("transient kernel hiccup")
            (port,) = ctx.out_regions.keys()
            data = inputs[next(iter(ctx.in_regions))]
            return {port: np.asarray(data).T.copy()}

        binding = KernelBinding("block_transpose", flaky, lambda ctx, ins: 0.0)
        runtime = make_runtime(bindings={"block_transpose": binding},
                               policy=FaultPolicy.retry(max_retries=2))
        result = run(runtime, iterations=1)
        # One thread's first invocation failed and was re-run in place.
        retries = result.trace.by_kind("retry")
        assert len(retries) == 1
        assert "kernel block_transpose" in retries[0].detail
        assert calls["n"] >= 2
        assert result.sink_results[0] is not None

    def test_transient_kernel_fault_fails_fast_without_policy(self):
        def flaky(ctx, inputs):
            raise TransientError("transient kernel hiccup")

        binding = KernelBinding("block_transpose", flaky, lambda ctx, ins: 0.0)
        runtime = make_runtime(bindings={"block_transpose": binding})
        with pytest.raises(TransientError):
            run(runtime, iterations=1)


class TestCheckpointRestart:
    def test_crash_recovers_with_matching_output(self, baseline):
        plan = FaultPlan().crash_node(1, at=baseline.makespan * 0.4)
        runtime = make_runtime(plan=plan,
                               policy=FaultPolicy.checkpoint_restart())
        result = run(runtime)
        # Every iteration finished, the data is bit-identical to the
        # fault-free run, and recovery overhead is visible in the makespan.
        for k in range(3):
            assert np.array_equal(result.full_result(k),
                                  baseline.full_result(k))
        assert result.makespan > baseline.makespan
        checkpoints = result.trace.by_kind("checkpoint")
        restores = result.trace.by_kind("restore")
        assert len(checkpoints) >= 3
        assert len(restores) == 1
        assert "NodeFailure" in restores[0].detail

    def test_latency_of_replayed_iteration_includes_recovery(self, baseline):
        plan = FaultPlan().crash_node(1, at=baseline.makespan * 0.4)
        result = run(make_runtime(plan=plan,
                                  policy=FaultPolicy.checkpoint_restart()))
        # Source admission keeps its first-attempt timestamp, so the replayed
        # iteration's latency grows by the recovery time.
        assert max(result.latencies) > max(baseline.latencies)

    def test_permanent_crash_is_not_recoverable(self, baseline):
        plan = FaultPlan().crash_node(1, at=baseline.makespan * 0.4,
                                      permanent=True)
        runtime = make_runtime(plan=plan,
                               policy=FaultPolicy.checkpoint_restart())
        with pytest.raises(RuntimeError_, match=r"node\(s\) \[1\] failed "
                                                r"permanently"):
            run(runtime)

    def test_restart_budget_exhaustion_reraises(self, baseline):
        plan = FaultPlan().crash_node(1, at=baseline.makespan * 0.4)
        runtime = make_runtime(
            plan=plan,
            policy=FaultPolicy.checkpoint_restart(max_restarts=0),
        )
        with pytest.raises(NodeFailure):
            run(runtime)

    def test_fault_free_checkpointing_matches_baseline_output(self, baseline):
        result = run(make_runtime(policy=FaultPolicy.checkpoint_restart()))
        for k in range(3):
            assert np.array_equal(result.full_result(k),
                                  baseline.full_result(k))
        assert not result.trace.by_kind("restore")


class TestDeterminism:
    @staticmethod
    def signature(result):
        return [
            (e.time, e.kind, e.function, e.thread, e.iteration, e.detail,
             e.nbytes)
            for e in result.trace.events
        ]

    def test_same_seed_same_plan_is_bit_deterministic(self):
        def once():
            plan = (FaultPlan(seed=7).message_loss(0.08)
                    .degrade_link(0, 1, at=0.0, factor=0.5))
            return run(make_runtime(plan=plan,
                                    policy=FaultPolicy.retry(max_retries=5)))

        a, b = once(), once()
        assert a.makespan == b.makespan
        assert self.signature(a) == self.signature(b)
        assert np.array_equal(a.full_result(2), b.full_result(2))

    def test_checkpoint_recovery_is_deterministic(self, baseline):
        def once():
            plan = FaultPlan(seed=5).crash_node(
                1, at=baseline.makespan * 0.4
            ).message_loss(0.02)
            return run(make_runtime(
                plan=plan, policy=FaultPolicy.checkpoint_restart()))

        a, b = once(), once()
        assert self.signature(a) == self.signature(b)

    def test_different_seeds_diverge(self):
        def once(seed):
            plan = FaultPlan(seed=seed).message_loss(0.10)
            return run(make_runtime(plan=plan,
                                    policy=FaultPolicy.retry(max_retries=5)))

        assert self.signature(once(1)) != self.signature(once(2))
