"""End-to-end service tests: submit -> schedule -> run -> bus, plus CLIs."""

import json

import pytest

from repro.service import (
    AdmissionError,
    JobSpec,
    QuotaExceededError,
    SageService,
    TenantQuota,
    TimeBudgetExceeded,
    UnknownJobError,
)
from repro.service.cli import serve_main, submit_main
from repro.service.service import run_standalone
from repro.service.soak import default_quotas, generate_workload


def make_service(**kw):
    kw.setdefault("nodes", 8)
    kw.setdefault("seed", 42)
    return SageService(**kw)


class TestEndToEnd:
    def test_results_bitwise_identical_to_standalone(self):
        svc = make_service()
        specs = [
            JobSpec(tenant="a", app="fft2d", size=32, nodes=2),
            JobSpec(tenant="b", app="corner_turn", size=16, nodes=4,
                    iterations=2),
            JobSpec(tenant="a", app="fft2d", size=64, nodes=4),
        ]
        ids = [svc.submit(s) for s in specs]
        stats = svc.run()
        assert stats.completed == 3
        for jid, spec in zip(ids, specs):
            got = svc.result(jid)
            ref, ref_events = run_standalone(spec)
            assert got.trace_digest == ref.trace.digest()
            assert got.makespan == ref.makespan
            assert got.mean_latency == ref.mean_latency
            assert got.period == ref.period
            assert got.probe_events == len(ref.trace)
            assert got.sim_events == ref_events

    def test_lifecycle_message_order_on_the_bus(self):
        svc = make_service()
        jid = svc.submit(JobSpec(size=16, nodes=2))
        svc.run()
        kinds = [m.kind for m in svc.bus.history_for(f"job.{jid}.lifecycle")]
        assert kinds == ["submitted", "started", "completed"]
        probes = svc.bus.history_for(f"job.{jid}.probes")
        assert len(probes) == 1
        assert probes[0].get("digest") == svc.result(jid).trace_digest
        lease_kinds = [m.kind for m in svc.bus.history_for("scheduler.lease")]
        assert lease_kinds == ["granted", "released"]

    def test_shared_cluster_is_clean_after_run(self):
        svc = make_service()
        svc.submit_batch([JobSpec(size=16, nodes=2)] * 5, spacing=1e-4)
        svc.run()
        assert svc.idle
        assert svc.check_clean() == []
        assert svc.scheduler.free_nodes == tuple(range(8))
        assert svc.scheduler.active == {}

    def test_batches_leave_no_engine_events_behind(self):
        # Leases live in the scheduler's ledger alone: after every batch
        # each node is free again and no lease is left active.
        svc = make_service(quotas=default_quotas())
        for j in range(3):
            for spec, offset in generate_workload(20, 7000 + j):
                try:
                    svc.submit(spec, at=svc.now + offset)
                except QuotaExceededError:
                    pass
            svc.run()
            assert svc.scheduler.history
            assert svc.scheduler.free_nodes == tuple(range(8))
            assert svc.scheduler.active == {}
        assert svc.check_clean() == []

    def test_held_lease_still_caught_by_the_leak_checks(self):
        svc = make_service()
        jid = svc.submit(JobSpec(size=16, nodes=2))
        svc.run()
        assert svc.check_clean() == []
        sched = svc.scheduler
        # A lease left active after the drain names its job.
        lease = sched.grant(svc.job(jid), now=svc.now)
        leaks = svc.check_clean()
        assert [v.invariant for v in leaks] == ["no_leaked_slots"]
        assert f"job {jid}" in leaks[0].detail
        sched.release(jid)
        assert svc.check_clean() == []
        # A node dropped from the free set, held by no lease, is named.
        sched._free.discard(3)
        leaks = svc.check_clean()
        assert [v.invariant for v in leaks] == ["no_leaked_slots"]
        assert "node 3" in leaks[0].detail
        sched._free.add(3)
        assert svc.check_clean() == []
        # A node both free and leased is named too.
        sched.active[jid] = lease
        sched._free.update(lease.nodes)
        leaks = svc.check_clean()
        assert len(leaks) == 1 + len(lease.nodes)
        assert all(f"node {n}" in v.detail
                   for n, v in zip(lease.nodes, leaks[1:]))

    def test_service_needs_a_node(self):
        for nodes in (0, -1):
            with pytest.raises(AdmissionError):
                SageService(nodes=nodes)

    def test_node_quota_rejected_at_submit(self):
        svc = make_service(quotas={"small": TenantQuota(max_nodes=2)})
        with pytest.raises(QuotaExceededError) as err:
            svc.submit(JobSpec(tenant="small", size=16, nodes=4))
        assert err.value.kind == "nodes"
        # the rejection never created a job
        assert svc.jobs == {}

    def test_queue_depth_rejection_recorded_and_reraised(self):
        svc = make_service(nodes=4, quotas={"q": TenantQuota(max_queued=1)})
        # one long job occupies the whole cluster so later arrivals queue
        svc.submit(JobSpec(tenant="q", size=64, nodes=4, iterations=3))
        svc.submit(JobSpec(tenant="q", size=16, nodes=1), at=1e-5)
        over = svc.submit(JobSpec(tenant="q", size=16, nodes=1), at=2e-5)
        svc.run()
        job = svc.job(over)
        assert job.state == "rejected"
        with pytest.raises(QuotaExceededError):
            svc.result(over)
        rejects = [m for m in svc.bus.history_for("queue")
                   if m.kind == "rejected"]
        assert [m.get("job") for m in rejects] == [over]

    def test_time_budget_kill(self):
        svc = make_service()
        jid = svc.submit(JobSpec(size=64, nodes=4, iterations=3,
                                 time_budget=1e-4))
        svc.run()
        job = svc.job(jid)
        assert job.state == "failed"
        assert isinstance(job.error, TimeBudgetExceeded)
        with pytest.raises(TimeBudgetExceeded):
            svc.result(jid)
        # the lease ended at the budget boundary, not the makespan
        assert job.end_time == pytest.approx(job.start_time + 1e-4)
        assert svc.check_clean() == []

    def test_unknown_job(self):
        svc = make_service()
        with pytest.raises(UnknownJobError):
            svc.result("j99999")

    def test_deterministic_replay(self):
        def play():
            svc = make_service(seed=7)
            svc.submit_batch(
                [JobSpec(size=16, nodes=2),
                 JobSpec(app="corner_turn", size=16, nodes=4),
                 JobSpec(size=32, nodes=2, iterations=2)],
                spacing=2e-4,
            )
            svc.run()
            return svc
        a, b = play(), play()
        assert a.bus.digest() == b.bus.digest()
        assert [j.lease_nodes for j in a.jobs.values()] == \
               [j.lease_nodes for j in b.jobs.values()]

    def test_concurrent_jobs_overlap_in_virtual_time(self):
        svc = make_service()
        ids = svc.submit_batch(
            [JobSpec(size=32, nodes=2), JobSpec(size=32, nodes=2)])
        svc.run()
        a, b = (svc.job(i) for i in ids)
        # both admitted at t=0 on disjoint node sets: true multiplexing
        assert a.start_time == b.start_time == 0.0
        assert not set(a.lease_nodes) & set(b.lease_nodes)


class TestCli:
    def test_submit_then_serve_batch(self, tmp_path, capsys):
        batch = tmp_path / "batch.json"
        assert submit_main(["--batch", str(batch), "--app", "fft2d",
                            "--size", "32", "--nodes", "2"]) == 0
        assert submit_main(["--batch", str(batch), "--app", "corner_turn",
                            "--size", "16", "--nodes", "4",
                            "--tenant", "b", "--at", "0.001"]) == 0
        doc = json.loads(batch.read_text())
        assert len(doc["jobs"]) == 2
        assert doc["jobs"][1]["at"] == 0.001
        assert serve_main(["--batch", str(batch)]) == 0
        out = capsys.readouterr().out
        assert "completed" in out and "jobs/sec" in out

    def test_submit_rejects_invalid_spec(self, tmp_path):
        batch = tmp_path / "batch.json"
        assert submit_main(["--batch", str(batch), "--size", "24"]) == 2
        assert not batch.exists()

    def test_serve_requires_a_mode(self, capsys):
        with pytest.raises(SystemExit):
            serve_main([])

    def test_main_module_routes_serve(self, tmp_path, monkeypatch):
        from repro.__main__ import main

        monkeypatch.chdir(tmp_path)
        batch = tmp_path / "b.json"
        assert main(["submit", "--batch", str(batch)]) == 0
        assert main(["serve", "--batch", str(batch)]) == 0
