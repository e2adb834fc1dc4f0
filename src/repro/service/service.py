"""SAGE-as-a-service: the long-running multi-job front end.

One :class:`SageService` leases the nodes of a shared cluster to many
submitted designs:

* :meth:`submit` is the async API — it validates, schedules the arrival,
  and returns a job id immediately; completion is observed through the
  :class:`~repro.service.bus.EventBus` (or :meth:`result` after
  :meth:`run`).
* The :class:`~repro.service.scheduler.ClusterScheduler` decides *when* and
  *where*: node-set leases with admission control, per-tenant quotas, FIFO
  order with conservative backfill, and seeded tie-breaks.
* Every lifecycle step publishes to the bus, and each finished job's probe
  telemetry is re-published under its own topic
  (``job.<id>.probes``) — consumers read the bus, never the runtimes.

Execution model (space-sharing)
-------------------------------
The service is one event loop over its own virtual timeline: a heap of
arrivals and lease releases ordered by (virtual time, push sequence).  A
lease is a set of node indices in the scheduler's ledger; no simulated
machine stands behind it.  The job's computation runs at full fidelity on
its partition — a private engine and cluster of ``spec.nodes`` processors
of the same platform, from :meth:`SageRuntime.build` — exactly as a
standalone ``python -m repro run`` would.  Partitions are disjoint (the
paper-era machines' crossbars partition per board-set), so a job's virtual
behaviour is *bitwise identical* to its standalone run no matter what else
is scheduled around it; the soak harness proves that instead of assuming
it, because shared process state (caches, registries) is exactly where
isolation regressions would creep in.  The job's simulated makespan then
becomes its lease duration on the shared timeline, clipped to the spec's
``time_budget`` (overruns are terminated with a typed error — the bound
that makes conservative backfill starvation-free).
"""

from __future__ import annotations

import heapq
import time as _time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..analysis.admission import lint_job_spec
from ..chaos.invariants import Violation
from ..analysis.cost import predict_makespan
from ..apps import benchmark_mapping
from ..core.codegen import generate_glue
from ..core.runtime import DEFAULT_CONFIG, SageRuntime
from ..core.runtime.policy import FaultPolicy
from ..machine import PlatformSpec, get_platform
from ..perf.cache import cache_scope, cache_stats, forget_scope
from .bus import EventBus
from .errors import (
    AdmissionError,
    AdmissionRejected,
    JobFailedError,
    TimeBudgetExceeded,
    UnknownJobError,
)
from .jobs import Job, JobQueue, JobResult, JobSpec
from .messages import TOPIC_LEASES, TOPIC_QUEUE, job_topic
from .scheduler import ClusterScheduler, Lease, TenantQuota

__all__ = ["SageService", "ServiceStats", "run_standalone"]

#: Head-room multiplier on statically predicted makespans when the service
#: plans with exact reservations (``static_reservations=True``).  The
#: predictor tracks the simulator within a few percent on the paper
#: kernels; 1.5x absorbs model drift while still beating the default 5 s
#: declared budgets by orders of magnitude.
RESERVATION_SAFETY = 1.5


def run_standalone(spec: JobSpec, platform: str = "cspi"):
    """Execute a spec exactly as the service does, but alone: a private
    ``spec.nodes``-node cluster, no scheduler, no scopes.  The isolation
    invariant compares service runs against this reference."""
    spec.validate()
    return _run_spec(spec, get_platform(platform))


def _run_spec(spec: JobSpec, platform: PlatformSpec, job: Optional[str] = None):
    """Build and run ``spec`` on a private cluster of ``platform``; returns
    ``(RunResult, engine events)``.  The service's job body and
    :func:`run_standalone` both run here, so a job differs from its
    standalone run only by ``job``: its cache scope and trace tag."""
    with cache_scope(job):
        model = spec.build_model()
        mapping = benchmark_mapping(model, spec.nodes)
        glue = generate_glue(model, mapping, num_processors=spec.nodes)
        runtime = SageRuntime.build(
            glue, platform, config=DEFAULT_CONFIG.timing_only(),
            fault_policy=FaultPolicy.named(spec.policy), job_scope=job,
        )
        result = runtime.run(iterations=spec.iterations)
    return result, runtime.env.events_processed


@dataclass(frozen=True)
class ServiceStats:
    """Aggregate figures for one service run (virtual + host time)."""

    submitted: int
    completed: int
    failed: int
    rejected: int
    pending: int
    backfills: int
    virtual_span: float
    utilization: float
    mean_wait: float
    max_wait: float
    executed: int
    wall_seconds: float

    @property
    def jobs_per_sec(self) -> float:
        """Sustained designs-compiled-and-simulated per host second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.executed / self.wall_seconds


class SageService:
    """A job queue + scheduler + bus over one shared cluster of nodes."""

    def __init__(
        self,
        nodes: int = 8,
        platform: str = "cspi",
        seed: int = 0,
        quotas: Optional[Dict[str, TenantQuota]] = None,
        admission_lint: bool = True,
        static_reservations: bool = False,
    ):
        if nodes < 1:
            raise AdmissionError(
                f"a service needs at least one node to lease, got {nodes}")
        self.platform_name = platform
        self.platform = get_platform(platform)
        self.bus = EventBus()
        self.scheduler = ClusterScheduler(
            nodes, seed=seed, quotas=quotas,
            predictor=self._predicted_budget if static_reservations else None,
        )
        self.admission_lint = admission_lint
        self._lint_cache: Dict[Tuple, "object"] = {}
        self._predict_cache: Dict[Tuple, float] = {}
        self.queue = JobQueue(max_queued=self.scheduler.max_queued)
        self.jobs: Dict[str, Job] = {}
        self.now = 0.0
        self.wall_seconds = 0.0
        self.executed = 0
        self._heap: List[Tuple[float, int, str, Job]] = []
        self._evseq = 0
        self._idseq = 0

    # -- submission (the async API) --------------------------------------
    def submit(self, spec: JobSpec, at: Optional[float] = None) -> str:
        """Validate and enqueue a submission; returns its job id.

        Raises the typed errors for requests that can never run here
        (:class:`InvalidJobSpec`, :class:`AdmissionError`,
        :class:`QuotaExceededError` on a single request larger than the
        tenant's node quota, :class:`AdmissionRejected` when the static
        admission lint proves the design infeasible).  Arrival-time
        rejections (queue depth) are recorded on the job and re-raised by
        :meth:`result`.
        """
        spec.validate()
        self.scheduler.check_request(spec)
        if self.admission_lint:
            report = self.lint(spec)
            if not report.ok:
                raise AdmissionRejected(spec.fingerprint(), report)
        job = Job(id=f"j{self._idseq:05d}", spec=spec)
        self._idseq += 1
        self.jobs[job.id] = job
        arrival = self.now if at is None else max(at, self.now)
        job.submit_time = arrival
        self._push(arrival, "arrive", job)
        return job.id

    def lint(self, spec: JobSpec):
        """The admission-lint report for ``spec`` on *this* cluster (size
        and tenant quota included), memoized per spec content — the soak
        workload re-submits a bounded family of shapes, so each is linted
        once."""
        key = (spec.tenant, spec.app, spec.size, spec.nodes,
               spec.iterations, spec.data_seed, spec.time_budget)
        report = self._lint_cache.get(key)
        if report is None:
            report = lint_job_spec(
                spec, self.platform,
                cluster_nodes=self.scheduler.nodes,
                quota=self.scheduler.quota_for(spec.tenant),
            )
            self._lint_cache[key] = report
        return report

    def _predicted_budget(self, spec: JobSpec) -> float:
        """Static-reservation hook: the predicted makespan (memoized per
        design) padded by :data:`RESERVATION_SAFETY`.  The scheduler takes
        ``min(declared budget, this)`` as the lease bound."""
        key = (spec.app, spec.size, spec.nodes, spec.data_seed,
               spec.iterations)
        predicted = self._predict_cache.get(key)
        if predicted is None:
            model = spec.build_model()
            mapping = benchmark_mapping(model, spec.nodes)
            predicted = predict_makespan(
                model, mapping, spec.nodes, self.platform,
                iterations=spec.iterations,
            ).makespan
            self._predict_cache[key] = predicted
        return RESERVATION_SAFETY * predicted

    def submit_batch(self, specs, start: float = 0.0,
                     spacing: float = 0.0) -> List[str]:
        """Submit many specs at ``start``, ``spacing`` apart (FIFO order)."""
        ids = []
        at = start
        for spec in specs:
            ids.append(self.submit(spec, at=at))
            at += spacing
        return ids

    # -- the event loop ---------------------------------------------------
    def _push(self, when: float, kind: str, job: Job) -> None:
        heapq.heappush(self._heap, (when, self._evseq, kind, job))
        self._evseq += 1

    def run(self) -> ServiceStats:
        """Drain the event loop: admit, execute, and complete every job.

        Deterministic: events are ordered by (virtual time, push sequence),
        and the only randomness is the scheduler's seeded tie-break stream.
        Returns the aggregate stats; individual outcomes via
        :meth:`result` / the bus.
        """
        t0 = _time.perf_counter()
        while self._heap:
            when, _, kind, job = heapq.heappop(self._heap)
            self.now = max(self.now, when)
            if kind == "arrive":
                self._arrive(job)
            elif kind == "release":
                self._release(job)
            self.scheduler.pump(self.queue, self.now, self._execute)
        self.wall_seconds += _time.perf_counter() - t0
        return self.stats()

    def _arrive(self, job: Job) -> None:
        spec = job.spec
        try:
            self.queue.enqueue(job)
        except Exception as exc:
            job.state = "rejected"
            job.error = exc
            job.end_time = self.now
            self.bus.publish(
                TOPIC_QUEUE, "rejected", time=self.now, job=job.id,
                tenant=spec.tenant, error=type(exc).__name__,
            )
            self.bus.publish(
                job_topic(job.id), "rejected", time=self.now, job=job.id,
                tenant=spec.tenant, error=type(exc).__name__, reason=str(exc),
            )
            return
        self.bus.publish(
            TOPIC_QUEUE, "enqueued", time=self.now, job=job.id,
            tenant=spec.tenant, app=spec.app, nodes=spec.nodes,
        )
        self.bus.publish(
            job_topic(job.id), "submitted", time=self.now, job=job.id,
            tenant=spec.tenant, app=spec.app, size=spec.size,
            nodes=spec.nodes, iterations=spec.iterations,
        )

    def _execute(self, job: Job, lease: Lease) -> float:
        """Scheduler callback: run the admitted job, return its lease end."""
        spec = job.spec
        job.state = "running"
        job.start_time = self.now
        job.lease_nodes = lease.nodes
        job.backfilled = lease.backfilled
        self.bus.publish(
            TOPIC_LEASES, "granted", time=self.now, job=job.id,
            tenant=spec.tenant, nodes=lease.nodes,
            backfilled=lease.backfilled,
        )
        self.bus.publish(
            job_topic(job.id), "started", time=self.now, job=job.id,
            tenant=spec.tenant, nodes=lease.nodes,
            backfilled=lease.backfilled,
        )
        self.executed += 1
        try:
            result, sim_events = _run_spec(spec, self.platform, job.id)
        except Exception as exc:
            job.state = "failed"
            job.error = JobFailedError(
                job.id, f"{type(exc).__name__}: {exc}"
            )
            job.end_time = self.now
            forget_scope(job.id)  # the job's cache-traffic row only
            self._push(self.now, "release", job)
            return self.now

        traffic = cache_stats(job.id)
        hits = sum(row["hits"] for row in traffic.values())
        misses = sum(row["misses"] for row in traffic.values())
        job.result = JobResult(
            makespan=result.makespan,
            mean_latency=result.mean_latency,
            period=result.period,
            probe_events=len(result.trace),
            sim_events=sim_events,
            trace_digest=result.trace.digest(),
            cache_hits=hits,
            cache_misses=misses,
        )
        job._probe_counts = tuple(  # stashed for the telemetry message
            sorted(result.trace.counts_by_kind().items())
        )
        budget = self.scheduler.effective_budget(spec)
        if result.makespan > budget:
            job.state = "failed"
            job.error = TimeBudgetExceeded(
                job.id, budget, result.makespan
            )
            t_end = self.now + budget
        else:
            job.state = "completed"
            t_end = self.now + result.makespan
        job.end_time = t_end
        forget_scope(job.id)
        self._push(t_end, "release", job)
        return t_end

    def _release(self, job: Job) -> None:
        lease = self.scheduler.release(job.id)
        spec = job.spec
        if job.state == "completed":
            r = job.result
            self.bus.publish(
                job_topic(job.id), "completed", time=self.now, job=job.id,
                tenant=spec.tenant, makespan=r.makespan,
                mean_latency=r.mean_latency, trace_digest=r.trace_digest,
            )
        else:
            self.bus.publish(
                job_topic(job.id), "failed", time=self.now, job=job.id,
                tenant=spec.tenant,
                error=type(job.error).__name__ if job.error else "unknown",
            )
        if job.result is not None:
            # The stash goes once published: the bus keeps the only copy.
            counts = vars(job).pop("_probe_counts", ())
            flat = tuple(x for pair in counts for x in pair)
            self.bus.publish(
                job_topic(job.id, "probes"), "telemetry", time=self.now,
                job=job.id, tenant=spec.tenant,
                events=job.result.probe_events,
                sim_events=job.result.sim_events,
                digest=job.result.trace_digest,
                kinds=flat,
            )
        self.bus.publish(
            TOPIC_LEASES, "released", time=self.now, job=job.id,
            tenant=spec.tenant, nodes=lease.nodes,
        )

    # -- results & accounting ---------------------------------------------
    def job(self, job_id: str) -> Job:
        try:
            return self.jobs[job_id]
        except KeyError:
            raise UnknownJobError(job_id) from None

    def result(self, job_id: str) -> JobResult:
        """The job's result; raises its typed error if it did not complete."""
        job = self.job(job_id)
        if job.error is not None:
            raise job.error
        if job.state != "completed" or job.result is None:
            raise JobFailedError(job_id, f"job is {job.state}, not completed")
        return job.result

    @property
    def idle(self) -> bool:
        return not self._heap and not self.queue and not self.scheduler.active

    def stats(self) -> ServiceStats:
        by_state: Dict[str, int] = {}
        waits = []
        for job in self.jobs.values():
            by_state[job.state] = by_state.get(job.state, 0) + 1
            if job.wait_time is not None:
                waits.append(job.wait_time)
        span = max(
            (j.end_time for j in self.jobs.values() if j.end_time is not None),
            default=0.0,
        )
        return ServiceStats(
            submitted=len(self.jobs),
            completed=by_state.get("completed", 0),
            failed=by_state.get("failed", 0),
            rejected=by_state.get("rejected", 0),
            pending=by_state.get("queued", 0) + by_state.get("running", 0),
            backfills=self.scheduler.backfills,
            virtual_span=span,
            utilization=self.scheduler.utilization(span),
            mean_wait=sum(waits) / len(waits) if waits else 0.0,
            max_wait=max(waits) if waits else 0.0,
            executed=self.executed,
            wall_seconds=self.wall_seconds,
        )

    def check_clean(self) -> List[Violation]:
        """Post-drain lease hygiene: no lease may stay active, and every
        node must be held exactly once — by the free set or by one active
        lease.  Returns the :class:`~repro.chaos.invariants.Violation` list
        (empty when clean), one per stray lease or mis-held node."""
        sched = self.scheduler
        out = [
            Violation("no_leaked_slots",
                      f"job {job_id}: lease on nodes {list(lease.nodes)} "
                      "still active after the service drained")
            for job_id, lease in sched.active.items()
        ]
        holders = Counter(sched.free_nodes)
        for lease in sched.active.values():
            holders.update(lease.nodes)
        for node in sorted(set(holders) | set(range(sched.nodes))):
            want = 1 if 0 <= node < sched.nodes else 0
            if holders[node] != want:
                out.append(Violation(
                    "no_leaked_slots",
                    f"node {node}: held {holders[node]} time(s) by the free "
                    f"set and active leases, expected {want}",
                ))
        return out
