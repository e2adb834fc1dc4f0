"""Cross-job cache sharing in the service.

The derived-artifact caches are process-wide and keyed by content, so two
jobs submitting the same design share one generated glue and one set of
striping plans; entries have no owner.
"""


from repro.perf import cache_stats, clear_all_caches
from repro.service import JobSpec, SageService


def _serve(specs):
    """Run ``specs`` cold on a fresh service; returns the service, the job
    ids and each cache's ``(hits, misses)`` delta over the run."""
    clear_all_caches()
    before = cache_stats()
    svc = SageService(nodes=8, seed=1)
    ids = svc.submit_batch(specs)
    svc.run()
    delta = {
        name: (row["hits"] - before.get(name, {"hits": 0})["hits"],
               row["misses"] - before.get(name, {"misses": 0})["misses"])
        for name, row in cache_stats().items()
    }
    return svc, ids, delta


class TestServiceCacheSharing:
    def test_concurrent_jobs_share_a_cached_striping_plan(self):
        """Two jobs with the same design, admitted concurrently: the second
        job's glue is a cache hit and its striping plans add no misses."""
        spec = JobSpec(size=32, nodes=2)
        _, _, alone = _serve([spec])
        svc, (a, b), both = _serve([spec, spec])
        assert svc.result(a).trace_digest == svc.result(b).trace_digest
        assert alone["codegen.glue_source"] == (0, 1)
        assert both["codegen.glue_source"] == (1, 1)
        plans_alone, plans_both = alone["striping.message_plan"], both["striping.message_plan"]
        assert plans_both[1] == plans_alone[1] > 0
        assert plans_both[0] > plans_alone[0]
