"""Cache-scope tests: per-job billing over the process-wide caches.

The registry is deliberately shared across jobs (two jobs submitting the
same design share one striping plan / one generated glue) and entries have
no owner; a scope only attributes hits and misses to the job that was
running, which is what ``JobResult.cache_hits/misses`` reports.
"""


from repro.perf.cache import (
    KeyedCache,
    cache_scope,
    cache_stats,
    clear_all_caches,
    current_scope,
    forget_scope,
    named_cache,
)
from repro.service import JobSpec, SageService


class TestScopeStack:
    def test_no_scope_by_default(self):
        assert current_scope() is None

    def test_nesting_and_none_passthrough(self):
        with cache_scope("a"):
            assert current_scope() == "a"
            with cache_scope(None):
                assert current_scope() == "a"
            with cache_scope("b"):
                assert current_scope() == "b"
            assert current_scope() == "a"
        assert current_scope() is None


class TestScopedKeyedCache:
    def test_unscoped_clear_still_drops_everything(self):
        cache = KeyedCache("t")
        with cache_scope("job1"):
            cache.get("a", lambda: 1)
        cache.get("b", lambda: 2)
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_clear_inside_a_scope_still_drops_everything(self):
        cache = KeyedCache("t")
        cache.get("global", lambda: 1)
        with cache_scope("job1"):
            cache.get("mine", lambda: 2)
        with cache_scope("job2"):
            assert cache.clear() == 2
        assert len(cache) == 0

    def test_forget_scope_detaches_without_evicting(self):
        cache = KeyedCache("t")
        with cache_scope("job1"):
            cache.get("a", lambda: 1)
        cache.forget_scope("job1")
        assert "a" in cache
        assert cache.stats("job1") == {"hits": 0, "misses": 0}
        # the global counters are not the scope's to take with it
        assert cache.stats() == {"hits": 0, "misses": 1, "size": 1}

    def test_per_scope_stats(self):
        cache = KeyedCache("t")
        with cache_scope("job1"):
            cache.get("k", lambda: 1)       # miss
        with cache_scope("job2"):
            cache.get("k", lambda: 1)       # hit
            cache.lookup("absent")          # miss, no insertion
        assert cache.stats("job1") == {"hits": 0, "misses": 1}
        assert cache.stats("job2") == {"hits": 1, "misses": 1}
        # global stats keep counting everything
        assert cache.stats() == {"hits": 1, "misses": 2, "size": 1}

    def test_nested_scope_bills_the_innermost(self):
        cache = KeyedCache("t")
        with cache_scope("outer"):
            cache.get("k", lambda: 1)
            with cache_scope("inner"):
                cache.get("k", lambda: 1)
            cache.get("k", lambda: 1)
        assert cache.stats("outer") == {"hits": 1, "misses": 1}
        assert cache.stats("inner") == {"hits": 1, "misses": 0}


class TestRegistryScoping:
    def test_cache_stats_scope_view(self):
        cache = named_cache("test.stats_view")
        with cache_scope("jobZ"):
            cache.get("x", lambda: 1)
        assert cache_stats("jobZ")["test.stats_view"] == {"hits": 0, "misses": 1}
        forget_scope("jobZ")
        assert cache_stats("jobZ")["test.stats_view"] == {"hits": 0, "misses": 0}
        assert "x" in cache
        cache.clear()


class TestServiceCacheSharing:
    def test_concurrent_jobs_share_a_cached_striping_plan(self):
        """Two jobs with the same design both hit the shared artifacts:
        the second job's compile is served from cache, and neither job's
        completion (which forgets its scope) breaks the other."""
        clear_all_caches()
        svc = SageService(nodes=8, seed=1)
        spec = JobSpec(size=32, nodes=2)
        a, b = svc.submit_batch([spec, spec])   # admitted concurrently
        svc.run()
        ra, rb = svc.result(a), svc.result(b)
        assert ra.trace_digest == rb.trace_digest
        # job A compiled cold; job B ran against A's cached artifacts
        assert ra.cache_misses > 0
        assert rb.cache_hits > 0
        assert rb.cache_misses < ra.cache_misses

    def test_service_runs_leave_no_scope_residue(self):
        svc = SageService(nodes=4, seed=3)
        jid = svc.submit(JobSpec(size=16, nodes=2))
        svc.run()
        assert current_scope() is None
        # the finished job's scope was forgotten: its stats rows are gone
        assert all(row == {"hits": 0, "misses": 0}
                   for row in cache_stats(jid).values())
        assert svc.result(jid).cache_misses + svc.result(jid).cache_hits > 0
