"""Job-spec and job-queue unit tests: validation, FIFO, depth quotas."""

import pytest

from repro.service.errors import InvalidJobSpec, QuotaExceededError
from repro.service.jobs import Job, JobQueue, JobSpec


def _job(i, tenant="t", **kw):
    return Job(id=f"j{i:05d}", spec=JobSpec(tenant=tenant, **kw))


class TestJobSpec:
    def test_defaults_validate(self):
        JobSpec().validate()

    @pytest.mark.parametrize("kw", [
        {"tenant": ""},
        {"app": "nope"},
        {"size": 24},            # not a power of two
        {"size": 16, "nodes": 3},  # 16 % 3 != 0 (and not a valid shape)
        {"nodes": 0},
        {"iterations": 0},
        {"policy": "yolo"},
        {"time_budget": 0.0},
        # mistyped fields, as a batch file can carry them
        {"size": "32"},
        {"size": 32.0},
        {"nodes": "2"},
        {"nodes": True},
        {"iterations": None},
        {"data_seed": "a"},
        {"app": ["fft2d"]},
        {"time_budget": "5"},
        {"time_budget": True},
        {"time_budget": float("nan")},
    ])
    def test_invalid_specs_raise_typed(self, kw):
        with pytest.raises(InvalidJobSpec):
            JobSpec(**kw).validate()

    def test_invalid_spec_is_also_value_error(self):
        with pytest.raises(ValueError):
            JobSpec(size=24).validate()

    def test_fingerprint_ignores_scheduling_fields(self):
        a = JobSpec(tenant="a", time_budget=1.0)
        b = JobSpec(tenant="b", time_budget=9.0)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != a.with_(size=64).fingerprint()

    def test_dict_roundtrip(self):
        spec = JobSpec(tenant="x", app="corner_turn", size=16, nodes=4,
                       iterations=2, policy="retry", data_seed=9,
                       time_budget=0.5)
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(InvalidJobSpec):
            JobSpec.from_dict({"app": "fft2d", "priority": 9})

    def test_build_model(self):
        model = JobSpec(app="fft2d", size=16, nodes=2).build_model()
        assert model.name


class TestJobQueue:
    def test_fifo_order(self):
        q = JobQueue()
        jobs = [_job(i) for i in range(4)]
        for j in jobs:
            q.enqueue(j)
        assert q.head is jobs[0]
        assert q.pending == jobs
        q.remove(jobs[1])
        assert q.pending == [jobs[0], jobs[2], jobs[3]]
        assert len(q) == 3 and bool(q)

    def test_depth_per_tenant(self):
        q = JobQueue()
        q.enqueue(_job(0, tenant="a"))
        q.enqueue(_job(1, tenant="a"))
        q.enqueue(_job(2, tenant="b"))
        assert q.depth() == 3
        assert q.depth("a") == 2
        assert q.depth("b") == 1

    def test_depth_quota_rejects_typed(self):
        q = JobQueue(max_queued=lambda tenant: 2 if tenant == "a" else None)
        q.enqueue(_job(0, tenant="a"))
        q.enqueue(_job(1, tenant="a"))
        q.enqueue(_job(2, tenant="b"))
        with pytest.raises(QuotaExceededError) as err:
            q.enqueue(_job(3, tenant="a"))
        assert err.value.tenant == "a"
        assert err.value.kind == "queued"
        assert err.value.limit == 2
        # other tenants unaffected; the queue itself unchanged
        q.enqueue(_job(4, tenant="b"))
        assert q.depth("a") == 2
        assert q.rejected == 1 and q.enqueued == 4

    def test_job_lifecycle_helpers(self):
        job = _job(0)
        assert not job.done
        assert job.wait_time is None
        job.submit_time, job.start_time = 1.0, 3.5
        assert job.wait_time == 2.5
        job.state = "completed"
        assert job.done
