"""Admission-time job-lint tests.

Every seeded-bad spec triggers exactly its JOB rule; the whole soak
workload lints clean (zero false-positive errors); and the service rejects
an infeasible spec *before any scheduler state changes* — no lease, no
slot, no job record — with the finding text on the typed error.
"""

import pytest

from tests.analysis_corpus import JOB_SEEDS, JOB_WARNING_RULES
from repro.analysis import lint_job_spec, predicted_footprint
from repro.apps.models import fft2d_model
from repro.core.model import round_robin_mapping
from repro.machine import get_platform
from repro.service.errors import AdmissionError, AdmissionRejected
from repro.service.jobs import JobSpec
from repro.service.service import SageService
from repro.service.soak import default_quotas, generate_workload

PLATFORM = get_platform("cspi")


class TestSeededSpecs:
    @pytest.mark.parametrize(
        "name,spec,kwargs,rule", JOB_SEEDS, ids=[s[0] for s in JOB_SEEDS]
    )
    def test_seed_triggers_exactly_its_rule(self, name, spec, kwargs, rule):
        report = lint_job_spec(spec, PLATFORM, **kwargs)
        rules = sorted({f.rule for f in report.findings})
        assert rules == [rule], (
            f"seed {name!r} wanted exactly [{rule}], got "
            f"{[f.render() for f in report.findings]}"
        )

    @pytest.mark.parametrize(
        "name,spec,kwargs,rule", JOB_SEEDS, ids=[s[0] for s in JOB_SEEDS]
    )
    def test_severity_matches_the_rule_contract(self, name, spec, kwargs, rule):
        report = lint_job_spec(spec, PLATFORM, **kwargs)
        if rule in JOB_WARNING_RULES:
            assert report.ok, "advisory rules must not reject the job"
        else:
            assert not report.ok

    def test_footprint_formula_counts_both_endpoints(self):
        app = fft2d_model(64, nodes=4)
        mapping = round_robin_mapping(app, 4)
        footprint = predicted_footprint(app, mapping)
        assert set(footprint) == set(range(4))
        assert all(nbytes > 0 for nbytes in footprint.values())


class TestCleanSweep:
    def test_every_soak_spec_lints_without_errors(self):
        """The soak workload is the service's own clean corpus: none of it
        may be rejected by the lint (tight budgets only warn)."""
        for spec, _at in generate_workload(200, seed=7):
            report = lint_job_spec(spec, PLATFORM, cluster_nodes=8)
            assert report.ok, (
                spec, [f.render() for f in report.errors]
            )

    def test_builtin_apps_lint_perfectly_clean(self):
        for app_name in ("fft2d", "corner_turn"):
            for size, nodes in ((16, 2), (32, 4), (64, 4), (64, 8)):
                spec = JobSpec(app=app_name, size=size, nodes=nodes)
                report = lint_job_spec(spec, PLATFORM, cluster_nodes=8)
                assert not report.findings, (
                    spec, [f.render() for f in report.findings]
                )


class TestServiceIntegration:
    def test_rejection_happens_before_any_lease(self):
        svc = SageService(nodes=8)
        with pytest.raises(AdmissionRejected) as info:
            svc.submit(JobSpec(app="fft2d", size=4096, nodes=2))
        # the typed error carries the findings and their rendered text
        assert any(f.rule == "JOB002" for f in info.value.findings)
        assert "JOB002" in str(info.value)
        assert isinstance(info.value, AdmissionError)
        # no scheduler state changed: no lease, no leased node, no job record
        assert svc.scheduler.grants == 0
        assert not svc.scheduler.active
        assert svc.scheduler.free_nodes == tuple(range(8))
        assert not svc.jobs

    def test_admitted_specs_still_run_to_completion(self):
        svc = SageService(nodes=8)
        job_id = svc.submit(JobSpec(app="fft2d", size=32, nodes=4))
        svc.run()
        assert svc.job(job_id).state == "completed"
        assert not svc.check_clean()

    def test_tight_budget_only_warns_and_is_admitted(self):
        """JOB005 is advisory: the doomed-budget spec is admitted and dies
        at the budget boundary, exactly as before the lint existed."""
        from repro.service.errors import TimeBudgetExceeded

        svc = SageService(nodes=8)
        job_id = svc.submit(
            JobSpec(app="fft2d", size=64, nodes=4, iterations=6,
                    time_budget=1e-4)
        )
        svc.run()
        job = svc.job(job_id)
        assert job.state == "failed"
        assert isinstance(job.error, TimeBudgetExceeded)

    def test_lint_reports_are_memoized_per_spec(self):
        svc = SageService(nodes=8)
        spec = JobSpec(app="fft2d", size=32, nodes=4)
        first = svc.lint(spec)
        assert svc.lint(spec) is first
        assert len(svc._lint_cache) == 1

    def test_lint_can_be_disabled(self):
        svc = SageService(nodes=8, admission_lint=False)
        job_id = svc.submit(JobSpec(app="fft2d", size=4096, nodes=2))
        svc.run()
        # without the lint, the infeasible job burns a lease and fails late
        assert svc.job(job_id).state == "failed"


class TestStaticReservations:
    def test_default_effective_budget_is_the_declared_one(self):
        svc = SageService(nodes=8)
        spec = JobSpec(app="fft2d", size=32, nodes=4)
        assert svc.scheduler.effective_budget(spec) == spec.time_budget

    def test_predictor_tightens_the_declared_budget(self):
        svc = SageService(nodes=8, static_reservations=True)
        spec = JobSpec(app="fft2d", size=32, nodes=4)
        effective = svc.scheduler.effective_budget(spec)
        assert effective < spec.time_budget
        # ... but never kills a job the prediction says will finish: the
        # safety margin keeps the bound above the simulated makespan
        job_id = svc.submit(spec)
        svc.run()
        assert svc.job(job_id).state == "completed"
        assert svc.job(job_id).result.makespan <= effective

    def test_reserved_service_drains_a_mixed_workload_cleanly(self):
        quotas = default_quotas()
        svc = SageService(nodes=8, seed=7, quotas=quotas,
                          static_reservations=True)
        outcomes = {"admitted": 0, "rejected": 0}
        for spec, at in generate_workload(60, seed=11):
            try:
                svc.submit(spec, at=at)
                outcomes["admitted"] += 1
            except Exception:
                outcomes["rejected"] += 1
        svc.run()
        assert outcomes["admitted"] > 0
        assert not svc.check_clean()
        done = sum(1 for j in svc.jobs.values() if j.done)
        assert done == len(svc.jobs)
