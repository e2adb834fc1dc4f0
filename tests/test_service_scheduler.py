"""Scheduler unit tests: leasing, quotas, backfill, seeded determinism.

These drive :class:`ClusterScheduler` directly with a scripted ``execute``
callback (durations under our control), so the backfill and no-starvation
properties are proven on *constructed* scenarios rather than hoped for in
a random soak.
"""

import pytest

from repro.service.errors import AdmissionError, QuotaExceededError
from repro.service.jobs import Job, JobQueue, JobSpec
from repro.service.scheduler import ClusterScheduler, TenantQuota


def make_sched(nodes=4, seed=0, **kw):
    return ClusterScheduler(nodes, seed=seed, **kw)


def job(i, tenant="t", nodes=2, budget=5.0):
    # size=16 divides over every node count used here
    return Job(id=f"j{i:05d}",
               spec=JobSpec(tenant=tenant, size=16, nodes=nodes,
                            time_budget=budget))


class Driver:
    """Scripted executor: job id -> duration, records admission order."""

    def __init__(self, sched, durations):
        self.sched = sched
        self.durations = durations
        self.order = []

    def __call__(self, now):
        def execute(j, lease):
            self.order.append(j.id)
            return now + self.durations[j.id]
        return execute


class TestLeasing:
    def test_grant_acquires_slots_release_returns_them(self):
        sched = make_sched(4)
        j = job(0, nodes=3)
        lease = sched.grant(j, now=0.0)
        assert lease.width == 3
        assert sched.active == {j.id: lease}
        assert len(sched.free_nodes) == 1
        assert set(sched.free_nodes).isdisjoint(lease.nodes)
        sched.release(j.id)
        assert sched.active == {}
        assert sched.free_nodes == (0, 1, 2, 3)
        assert sched.history[0].nodes == lease.nodes

    def test_grant_over_capacity_raises(self):
        sched = make_sched(4)
        sched.grant(job(0, nodes=3), now=0.0)
        with pytest.raises(AdmissionError):
            sched.grant(job(1, nodes=2), now=0.0)


class TestAdmissionControl:
    def test_impossible_request_rejected(self):
        sched = make_sched(4)
        with pytest.raises(AdmissionError):
            sched.check_request(JobSpec(size=16, nodes=8))

    def test_over_quota_single_request_rejected_typed(self):
        sched = make_sched(8, quotas={"small": TenantQuota(max_nodes=2)})
        with pytest.raises(QuotaExceededError) as err:
            sched.check_request(JobSpec(tenant="small", size=16, nodes=4))
        assert err.value.tenant == "small"
        assert err.value.kind == "nodes"
        # other tenants may still make the same request
        sched.check_request(JobSpec(tenant="big", size=16, nodes=4))

    def test_max_running_quota_delays_admission(self):
        sched = make_sched(8, quotas={"t": TenantQuota(max_running=1)})
        queue = JobQueue()
        a, b = job(0, nodes=2), job(1, nodes=2)
        queue.enqueue(a)
        queue.enqueue(b)
        drv = Driver(sched, {a.id: 1.0, b.id: 1.0})
        sched.pump(queue, 0.0, drv(0.0))
        assert drv.order == [a.id]       # b held back by max_running=1
        assert queue.pending == [b]
        sched.release(a.id)
        sched.pump(queue, 1.0, drv(1.0))
        assert drv.order == [a.id, b.id]


class TestBackfill:
    def make_blocked_head(self):
        """4-node cluster: A holds all nodes until t=10; B (4 nodes) waits."""
        sched = make_sched(4, seed=1)
        queue = JobQueue()
        a = job(0, nodes=4)
        b = job(1, nodes=4, budget=50.0)
        queue.enqueue(a)
        durations = {a.id: 10.0}
        drv = Driver(sched, durations)
        sched.pump(queue, 0.0, drv(0.0))
        queue.enqueue(b)
        sched.pump(queue, 0.0, drv(0.0))
        assert queue.head is b           # blocked: zero free nodes
        return sched, queue, drv, a, b

    def test_reservation_is_exact(self):
        sched, queue, _, _a, b = self.make_blocked_head()
        assert sched.reservation_time(b, now=1.0) == 10.0
        assert sched.reservations[b.id] == 10.0

    def test_short_budget_job_backfills(self):
        sched, queue, drv, a, b = self.make_blocked_head()
        sched.release(a.id)              # 4 nodes free at t=2, B admissible
        # ...but hold 2 of them with a fresh long job so B stays blocked
        c = job(2, nodes=2)
        queue.pending.insert(0, c)       # c ahead of b
        drv.durations[c.id] = 8.0        # c busy until t=10
        sched.pump(queue, 2.0, drv(2.0))
        assert queue.head is b
        # d fits the 2 free nodes now and its budget ends before b's
        # reservation (t=10): 2.0 + 6.0 <= 10.0 -> backfill
        d = job(3, nodes=2, budget=6.0)
        queue.enqueue(d)
        drv.durations[d.id] = 1.0
        granted = sched.pump(queue, 2.0, drv(2.0))
        assert [l.job_id for l in granted] == [d.id]
        assert granted[0].backfilled
        assert granted[0].head_reservation == 10.0
        assert sched.backfills == 1

    def test_long_budget_job_does_not_backfill(self):
        sched, queue, drv, a, b = self.make_blocked_head()
        sched.release(a.id)
        c = job(2, nodes=2)
        queue.pending.insert(0, c)
        drv.durations[c.id] = 8.0
        sched.pump(queue, 2.0, drv(2.0))
        # e fits now but its budget (2.0 + 20.0) overruns b's reservation
        e = job(4, nodes=2, budget=20.0)
        queue.enqueue(e)
        drv.durations[e.id] = 1.0
        assert sched.pump(queue, 2.0, drv(2.0)) == []
        assert sched.backfills == 0
        assert queue.pending == [b, e]   # FIFO order intact

    def test_backfill_never_starves_head(self):
        """The promised reservation is met even with backfill traffic."""
        sched, queue, drv, a, b = self.make_blocked_head()
        d = job(3, nodes=2, budget=3.0)
        # A still holds everything; d cannot fit *now*, so no backfill
        queue.enqueue(d)
        assert sched.pump(queue, 1.0, drv(1.0)) == []
        sched.release(a.id)
        drv.durations[d.id] = 2.0
        drv.durations[b.id] = 1.0
        # t=4: b needs 4 nodes, all free -> b admitted first (FIFO), then d
        granted = sched.pump(queue, 4.0, drv(4.0))
        assert [l.job_id for l in granted] == [b.id]
        promised = sched.reservations[b.id]
        assert granted[0].t_start <= promised


class TestDeterminism:
    def play(self, seed):
        sched = make_sched(8, seed=seed)
        queue = JobQueue()
        jobs = [job(i, nodes=(i % 2) + 1) for i in range(6)]
        durations = {j.id: 1.0 + 0.1 * i for i, j in enumerate(jobs)}
        drv = Driver(sched, durations)
        leases = []
        for t, j in enumerate(jobs):
            queue.enqueue(j)
            leases += sched.pump(queue, float(t), drv(float(t)))
        for j in jobs:
            if j.id in sched.active:
                sched.release(j.id)
        return drv.order, [(l.job_id, l.nodes) for l in leases]

    def test_same_seed_same_assignments(self):
        assert self.play(42) == self.play(42)

    def test_different_seed_different_node_choice(self):
        # admission order is seed-independent; the node *sets* are the
        # seeded tie-break and should differ for some seed pair
        order_a, leases_a = self.play(1)
        order_b, leases_b = self.play(2)
        assert order_a == order_b
        assert any(na != nb for (_, na), (_, nb) in zip(leases_a, leases_b))


class TestAccounting:
    def test_utilization(self):
        sched = make_sched(4)
        queue = JobQueue()
        a = job(0, nodes=2)
        queue.enqueue(a)
        drv = Driver(sched, {a.id: 5.0})
        sched.pump(queue, 0.0, drv(0.0))
        sched.release(a.id)
        # 2 nodes x 5s over 4 nodes x 10s
        assert sched.utilization(10.0) == pytest.approx(0.25)
        assert sched.utilization(0.0) == 0.0
