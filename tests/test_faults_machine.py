"""Machine-layer fault injection: plans, crashes, hangs, links, determinism."""

import pytest

from repro.faults import (
    CORRUPTED,
    DELIVERED,
    LOST,
    FaultInjector,
    FaultPlan,
    LinkFailure,
    NodeFailure,
)
from repro.machine import Environment, SimCluster, cspi


def make_cluster(plan=None, nodes=2):
    env = Environment()
    cluster = SimCluster.from_platform(env, cspi(), nodes, fault_plan=plan)
    return env, cluster


def transfer_time(env, cluster, src=0, dst=1, nbytes=1 << 20, start=0.0):
    """Run one transfer and return (elapsed, outcome)."""
    out = {}

    def prog():
        if start > 0:
            yield env.timeout(start)
        t0 = env.now
        outcome = yield from cluster.transfer(src, dst, nbytes)
        out["elapsed"] = env.now - t0
        out["outcome"] = outcome

    env.process(prog())
    env.run()
    return out["elapsed"], out["outcome"]


class TestPlanValidation:
    def test_negative_fault_time_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            FaultPlan().crash_node(0, at=-1.0)

    def test_bad_degrade_factor_rejected(self):
        for factor in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="factor"):
                FaultPlan().degrade_link(0, 1, at=0.0, factor=factor)

    def test_bad_rates_rejected(self):
        with pytest.raises(ValueError, match="loss rate"):
            FaultPlan().message_loss(1.0)
        with pytest.raises(ValueError, match="corruption rate"):
            FaultPlan().message_corruption(-0.1)

    def test_nonpositive_durations_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            FaultPlan().hang_node(0, at=0.0, duration=0.0)
        with pytest.raises(ValueError, match="duration"):
            FaultPlan().drop_link(0, 1, at=0.0, duration=-1.0)

    def test_empty_and_describe(self):
        assert FaultPlan().is_empty
        plan = FaultPlan(seed=3).crash_node(1, at=0.5).message_loss(0.05)
        assert not plan.is_empty
        assert "NodeCrash" in plan.describe()
        assert "loss=0.05" in plan.describe()

    def test_empty_plan_installs_no_injector(self):
        _, cluster = make_cluster(FaultPlan())
        assert cluster.faults is None


class TestNodeFaults:
    def test_crash_fails_inflight_compute_naming_node_and_time(self):
        env, cluster = make_cluster(FaultPlan().crash_node(1, at=1e-4))
        node = cluster.node(1)

        def prog():
            # ~1ms of work: the crash at t=0.1ms lands mid-computation and
            # must surface when the operation completes.
            yield from node.compute(node.spec.mflops * 1e6 * 1e-3)

        env.process(prog())
        with pytest.raises(NodeFailure, match=r"node 1 crashed at t=0.000100"):
            env.run()

    def test_crash_fails_transfers_touching_the_node(self):
        env, cluster = make_cluster(FaultPlan().crash_node(1, at=0.0))

        def prog():
            yield env.timeout(1e-6)
            yield from cluster.transfer(0, 1, 1024)

        env.process(prog())
        with pytest.raises(NodeFailure) as err:
            env.run()
        assert err.value.node == 1

    def test_hang_delays_work_without_failing_it(self):
        done = {}

        def busy(env, cluster):
            # Start strictly after the hang has seized the CPU.
            yield env.timeout(1e-6)
            yield from cluster.node(0).cpu.use(1e-3)
            done["t"] = env.now

        env, cluster = make_cluster()
        env.process(busy(env, cluster))
        env.run()
        clean = done["t"]
        assert clean == pytest.approx(1e-6 + 1e-3)

        env, cluster = make_cluster(
            FaultPlan().hang_node(0, at=0.0, duration=5e-3)
        )
        env.process(busy(env, cluster))
        env.run()
        # The CPU is held until t=5ms; the 1ms of work runs after that.
        assert done["t"] == pytest.approx(5e-3 + 1e-3)

    def test_revive_and_permanence(self):
        env, cluster = make_cluster(
            FaultPlan().crash_node(0, at=0.0).crash_node(1, at=0.0,
                                                         permanent=True)
        )
        env.run()  # apply the schedule
        inj = cluster.faults
        assert inj.dead_nodes == [0, 1]
        with pytest.raises(NodeFailure):
            inj.check_node(0)
        assert inj.revive(0) is True
        assert inj.alive(0)
        assert inj.revive(1) is False  # permanent
        assert inj.revive_all() == []  # nothing revivable left
        assert inj.dead_nodes == [1]


class TestLinkFaults:
    def test_drop_raises_link_failure(self):
        env, cluster = make_cluster(FaultPlan().drop_link(0, 1, at=0.0))

        def prog():
            yield env.timeout(1e-6)
            yield from cluster.transfer(0, 1, 1024)

        env.process(prog())
        with pytest.raises(LinkFailure, match="0<->1 down"):
            env.run()

    def test_drop_is_undirected(self):
        env, cluster = make_cluster(FaultPlan().drop_link(1, 0, at=0.0))
        assert cluster.faults is not None

        def prog():
            yield env.timeout(1e-6)
            yield from cluster.transfer(0, 1, 1024)

        env.process(prog())
        with pytest.raises(LinkFailure):
            env.run()

    def test_drop_with_duration_heals(self):
        env, cluster = make_cluster(
            FaultPlan().drop_link(0, 1, at=0.0, duration=1e-3)
        )
        elapsed, outcome = transfer_time(env, cluster, start=2e-3)
        assert outcome.ok
        assert elapsed > 0

    def test_degrade_slows_transfer_by_the_factor(self):
        env, cluster = make_cluster()
        clean, _ = transfer_time(env, cluster)

        env, cluster = make_cluster(
            FaultPlan().degrade_link(0, 1, at=0.0, factor=0.25)
        )
        degraded, outcome = transfer_time(env, cluster, start=1e-9)
        assert outcome.ok
        # Only the bandwidth term is scaled; latency/overhead are not.
        assert degraded > clean * 2

    def test_degrade_with_duration_restores_full_bandwidth(self):
        env, cluster = make_cluster()
        clean, _ = transfer_time(env, cluster)
        env, cluster = make_cluster(
            FaultPlan().degrade_link(0, 1, at=0.0, factor=0.25, duration=1e-4)
        )
        after, _ = transfer_time(env, cluster, start=1e-3)
        assert after == pytest.approx(clean)


class TestDelivery:
    def test_sampling_is_seed_deterministic(self):
        def draws(seed):
            env = Environment()
            inj = FaultInjector(
                env, FaultPlan(seed=seed).message_loss(0.3)
                .message_corruption(0.3)
            )
            return [inj.sample_delivery(0, 1, 1024) for _ in range(200)]

        a, b = draws(9), draws(9)
        assert a == b
        assert set(a) == {DELIVERED, LOST, CORRUPTED}
        assert draws(10) != a  # another seed gives another sequence

    def test_lossy_transfer_spends_wire_time_but_reports_undelivered(self):
        env, cluster = make_cluster(FaultPlan(seed=1).message_loss(0.999))
        elapsed, outcome = transfer_time(env, cluster)
        assert not outcome.delivered
        assert outcome.reason == "message lost"
        assert elapsed > 0  # the wire time was spent

    def test_corrupted_transfer_is_delivered_but_flagged(self):
        env, cluster = make_cluster(
            FaultPlan(seed=1).message_corruption(0.999)
        )
        _, outcome = transfer_time(env, cluster)
        assert outcome.delivered and outcome.corrupted and not outcome.ok

    def test_log_and_subscribe(self):
        env, cluster = make_cluster(FaultPlan().crash_node(1, at=1e-3))
        seen = []
        cluster.faults.subscribe(
            lambda t, kind, detail, node: seen.append((t, kind, node))
        )
        env.run()
        assert (1e-3, "node_crash", 1) in seen
        assert any(kind == "node_crash" for _, kind, _ in cluster.faults.log)
