"""Soak-harness tests: the five invariants over a 200-job mixed workload,
plus targeted quota/admission stress and slot-leak accounting."""

import pytest

from repro.chaos.invariants import check_quiescent
from repro.service import JobSpec, QuotaExceededError, SageService, TenantQuota
from repro.service.soak import (
    check_determinism,
    check_isolation,
    check_quota_and_starvation,
    check_slots,
    check_telemetry,
    default_quotas,
    generate_workload,
    run_soak,
)


class TestWorkloadGenerator:
    def test_deterministic(self):
        assert generate_workload(40, 5) == generate_workload(40, 5)
        assert generate_workload(40, 5) != generate_workload(40, 6)

    def test_specs_are_valid_and_mixed(self):
        workload = generate_workload(120, 11)
        apps = set()
        tenants = set()
        for spec, at in workload:
            spec.validate()
            assert at >= 0.0
            apps.add(spec.app)
            tenants.add(spec.tenant)
        assert apps == {"fft2d", "corner_turn"}
        assert "burst" in tenants and len(tenants) == 4

    def test_arrivals_monotonic(self):
        times = [at for _, at in generate_workload(50, 3)]
        assert times == sorted(times)


@pytest.fixture(scope="module")
def soak_200():
    """One 200-job soak shared by the invariant tests (full checks on)."""
    return run_soak(jobs=200, seed=7)


class TestSoak200:
    def test_all_five_invariants_hold(self, soak_200):
        assert soak_200.invariants == {
            "isolation": True,
            "determinism": True,
            "quota_no_starvation": True,
            "zero_leaked_slots": True,
            "telemetry": True,
        }
        assert soak_200.violations == []
        assert soak_200.ok

    def test_workload_actually_exercised_the_scheduler(self, soak_200):
        # the tuned workload must hit every interesting path, or the
        # invariants above are vacuous
        assert soak_200.completed > 100
        assert soak_200.backfills > 0
        assert soak_200.rejected > 0              # queue-depth rejections
        assert soak_200.rejected_at_submit > 0    # node-quota rejections
        assert soak_200.budget_kills > 0
        assert soak_200.utilization > 0.5
        assert soak_200.jobs_per_sec > 0
        assert soak_200.completed + soak_200.failed + soak_200.rejected \
            == soak_200.submitted

    def test_report_dict(self, soak_200):
        doc = soak_200.to_dict()
        assert doc["ok"] is True
        assert doc["bus_digest"]


class TestQuotaStress:
    def test_over_quota_tenant_rejected_under_pressure(self):
        svc = SageService(nodes=4, seed=1,
                          quotas={"greedy": TenantQuota(
                              max_nodes=2, max_running=1, max_queued=2)})
        # single requests over the node ceiling bounce synchronously
        with pytest.raises(QuotaExceededError):
            svc.submit(JobSpec(tenant="greedy", size=16, nodes=4))
        # a pile of legal requests: 1 running + 2 queued fit, rest bounce
        ids = []
        rejected = 0
        for k in range(8):
            try:
                ids.append(svc.submit(
                    JobSpec(tenant="greedy", size=16, nodes=2,
                            iterations=3), at=k * 1e-6))
            except QuotaExceededError:
                rejected += 1
        svc.run()
        states = [svc.job(i).state for i in ids]
        arrival_rejects = states.count("rejected")
        assert arrival_rejects > 0
        assert states.count("completed") == len(ids) - arrival_rejects
        # at no instant did greedy hold more than max_nodes
        assert check_quota_and_starvation(svc) == []
        assert svc.check_clean() == []

    def test_slot_accounting_returns_to_zero_after_soak(self):
        """Reuses the chaos-harness leak checks against the shared cluster."""
        from repro.service.soak import _build_service, _drive

        svc = _build_service(8, 3)
        _drive(svc, generate_workload(200, 3))
        assert check_quiescent(svc.env, svc.cluster) == []
        assert svc.cluster.slot_census() == {i: 0 for i in range(8)}
        assert svc.scheduler.active == {}
        assert svc.scheduler.grants == svc.scheduler.releases
        assert check_slots(svc) == []

    def test_backfill_never_starved_fifo_older_jobs(self):
        from repro.service.soak import _build_service, _drive

        svc = _build_service(8, 7)
        _drive(svc, generate_workload(300, 7))
        assert svc.scheduler.backfills > 0
        # every reservation promise was honoured
        for job_id, promised in svc.scheduler.reservations.items():
            job = svc.jobs[job_id]
            if job.start_time is not None:
                assert job.start_time <= promised + 1e-9, job_id


class TestInvariantCheckers:
    """The checkers themselves must be able to fail (not vacuous)."""

    def test_isolation_checker_catches_divergence(self):
        from repro.service.soak import _build_service, _drive

        svc = _build_service(4, 1)
        _drive(svc, generate_workload(5, 1))
        victim = next(j for j in svc.jobs.values() if j.state == "completed")
        object.__setattr__(victim.result, "trace_digest", "forged")
        violations, _ = check_isolation(svc)
        assert any("trace_digest" in v for v in violations)

    def test_determinism_checker_catches_seed_drift(self):
        from repro.service.soak import _build_service, _drive

        workload = generate_workload(12, 5)
        svc = _build_service(8, seed=5)
        _drive(svc, workload)
        # replay claims seed 6: node tie-breaks (and so the stream) differ
        assert check_determinism(svc, workload, nodes=8, seed=6)

    def test_determinism_checker_reports_a_grant_list_that_is_a_prefix(self):
        from repro.service.soak import _build_service, _drive

        workload = generate_workload(12, 5)
        svc = _build_service(8, 5)
        _drive(svc, workload)
        # The replay drops the last job, so its lease grants are a strict
        # prefix of the run's: they first differ where the replay's end.
        replay = _build_service(8, 5)
        _drive(replay, workload[:11])
        granted = [m for m in replay.bus.history_for("scheduler.lease")
                   if m.kind == "granted"]
        violations = check_determinism(svc, workload[:11], 8, 5)
        assert (
            "determinism: admission order / lease assignments diverged "
            f"(first difference at index {len(granted)})"
        ) in violations

    def test_telemetry_checker_catches_cross_job_contamination(self):
        from repro.service.soak import _build_service, _drive

        svc = _build_service(4, 1)
        _drive(svc, generate_workload(4, 1))
        done = [j for j in svc.jobs.values() if j.result is not None]
        # republish one job's telemetry under another job's topic
        a, b = done[0], done[1]
        svc.bus.publish(f"job.{b.id}.probes", "telemetry", time=99.0,
                        job=a.id, events=1, sim_events=1, digest="x")
        violations = check_telemetry(svc)
        assert any("contamination" in v or "expected exactly 1" in v
                   for v in violations)

    def test_quota_checker_catches_overcommit(self):
        from repro.service.scheduler import Lease
        from repro.service.soak import _build_service, _drive

        svc = _build_service(4, 2)
        _drive(svc, generate_workload(4, 2))
        svc.scheduler.quotas["phantom"] = TenantQuota(max_nodes=1)
        svc.scheduler.history.append(Lease(
            job_id="jx", tenant="phantom", nodes=(0, 1),
            t_start=0.0, t_end=1.0))
        violations = check_quota_and_starvation(svc)
        assert any("phantom" in v for v in violations)


def test_soak_default_quotas_clamp_burst():
    quotas = default_quotas()
    assert quotas["burst"].max_nodes == 2
    assert quotas["burst"].max_queued is not None


class TestExperimentAndBench:
    def test_r5_tenant_breakdown_accounts_everyone(self):
        from repro.experiments.service_soak import run_tenant_breakdown

        rows = run_tenant_breakdown(jobs=40, seed=7)
        assert sum(r.submitted for r in rows) == 40
        burst = next(r for r in rows if r.tenant == "burst")
        open_rows = [r for r in rows if r.tenant != "burst"]
        # the quota-clamped tenant consumed less than the open tenants' sum
        assert burst.node_seconds < sum(r.node_seconds for r in open_rows)
