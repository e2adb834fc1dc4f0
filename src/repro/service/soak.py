"""The service soak harness: N-job mixed workloads and five invariants.

:func:`run_soak` builds a seeded workload of mixed FFT2D / corner-turn
submissions from several tenants (including deliberately over-quota ones),
pushes it through one :class:`~repro.service.service.SageService`, and
then *proves* the run was correct instead of eyeballing it.  Every check
returns a list of :class:`~repro.chaos.invariants.Violation` (the chaos
soak's verdict type), empty when the invariant holds:

1. **isolation** — every completed job's result quantities and probe-trace
   digest are bitwise identical to the same spec run standalone on a
   private cluster (references memoized by spec fingerprint).
2. **determinism** — replaying the identical workload + seed on a fresh
   service reproduces the admission order, every lease's node set, and the
   byte-exact event-bus stream digest.
3. **quota & no-starvation** — every rejection carries the typed quota
   error, no tenant ever holds more nodes than its quota concurrently, and
   no backfilled job pushed a FIFO-older job past its recorded reservation.
4. **zero leaked slots** — :meth:`SageService.check_clean`: after the drain
   no lease is active and every node is back in the scheduler's free set.
5. **telemetry consistency** — each executed job re-published exactly one
   probe-telemetry message, under its own topic only, whose digest matches
   the job's result; lifecycle message counts reconcile with job states.

The soak runs through the ``service-soak`` study
(``python -m repro service-soak [--quick] [-o FILE]``), which exits 1 on
any violation.  It is a correctness gate: wall-clock service throughput is
measured by ``bench/run.py``'s ``service_mix`` workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..chaos.invariants import Violation
from .jobs import JobSpec
from .messages import BusMessage
from .scheduler import TenantQuota, _EPS
from .service import SageService, run_standalone

__all__ = [
    "SoakReport",
    "default_quotas",
    "generate_workload",
    "run_soak",
]

#: The soak's tenant population.  ``burst`` is deliberately under-provisioned
#: (2-node ceiling, shallow queue) so quota rejections and queue-depth
#: rejections actually happen and invariant 3 has teeth.
SOAK_TENANTS = ("alpha", "beta", "gamma", "burst")


def default_quotas() -> Dict[str, TenantQuota]:
    return {
        "burst": TenantQuota(max_nodes=2, max_running=2, max_queued=4),
    }


#: (size, nodes) pairs satisfying the model constraints (power-of-two size,
#: size % nodes == 0) across the platform's 8 nodes.
_SHAPES = ((16, 1), (16, 2), (16, 4), (32, 2), (32, 4), (64, 4))

_APPS = ("fft2d", "corner_turn")
_POLICIES = ("fail_fast", "retry", "checkpoint_restart")

#: A minority of *cheap* jobs carry a tight virtual-time budget.  Tight
#: budgets are what let the conservative backfill planner slide a short job
#: in front of a blocked head: its bounded runtime provably fits inside the
#: head's reservation gap (gaps reach a few ms when 6-iteration
#: checkpointing jobs hold nodes; the cheap shapes finish in < 0.7 ms, so
#: the tight budget never kills them).
_TIGHT_BUDGET = 8e-4

#: A tiny budget no job can meet — a sprinkle of guaranteed overruns keeps
#: the TimeBudgetExceeded kill path exercised under soak.
_KILL_BUDGET = 1e-4


def generate_workload(
    count: int,
    seed: int,
    tenants: Sequence[str] = SOAK_TENANTS,
) -> List[Tuple[JobSpec, float]]:
    """Seeded mixed workload: ``count`` (spec, arrival_time) pairs.

    Everything is drawn from one ``random.Random(seed)`` stream, so equal
    (count, seed, tenants) always yields the identical workload — the
    determinism invariant replays exactly this.
    """
    rng = random.Random(seed)
    out: List[Tuple[JobSpec, float]] = []
    at = 0.0
    for _ in range(count):
        size, nodes = rng.choice(_SHAPES)
        app = rng.choice(_APPS)
        iterations = rng.choice((1, 2, 3, 6))
        cheap = (
            (app == "corner_turn" and size <= 32 and iterations <= 3)
            or (app == "fft2d" and size == 16 and iterations == 1)
        )
        roll = rng.random()
        if cheap and roll < 0.35:
            budget = _TIGHT_BUDGET
        elif roll > 0.98:
            budget = _KILL_BUDGET
        else:
            budget = 5.0
        spec = JobSpec(
            tenant=rng.choice(tuple(tenants)),
            app=app,
            size=size,
            nodes=nodes,
            iterations=iterations,
            policy=rng.choice(_POLICIES),
            time_budget=budget,
        )
        out.append((spec, at))
        # Mean inter-arrival well under the mean makespan: the queue builds,
        # admission control and backfill stay busy.
        at += rng.uniform(0.0, 0.0004)
    return out


@dataclass
class SoakReport:
    """Everything one soak run proved and measured."""

    jobs: int
    seed: int
    nodes: int
    service: SageService        # the driven service, for per-job follow-up reads
    submitted: int
    completed: int
    failed: int
    rejected: int
    rejected_at_submit: int
    backfills: int
    budget_kills: int
    utilization: float
    mean_wait: float
    violations: Dict[str, List[Violation]]     # invariant name -> violations

    @property
    def invariants(self) -> Dict[str, bool]:
        """Which invariants held: those whose check found no violation."""
        return {name: not found for name, found in self.violations.items()}

    @property
    def ok(self) -> bool:
        return all(self.invariants.values())


def _build_service(nodes: int, seed: int) -> SageService:
    return SageService(nodes=nodes, seed=seed, quotas=default_quotas())


def _drive(svc: SageService, workload: Sequence[Tuple[JobSpec, float]]) -> int:
    """Submit the workload, run it, and count the typed submit-time rejections."""
    from .errors import ServiceError

    rejected_at_submit = 0
    for spec, at in workload:
        try:
            svc.submit(spec, at=at)
        except ServiceError:
            rejected_at_submit += 1
    svc.run()
    return rejected_at_submit


# -- the five invariants ------------------------------------------------------

def check_isolation(svc: SageService) -> List[Violation]:
    """Invariant 1: completed service jobs == their standalone runs, bitwise.

    Standalone reference runs are memoized by spec fingerprint.
    """
    refs: Dict[str, tuple] = {}
    out: List[Violation] = []
    for job in svc.jobs.values():
        if job.state != "completed" or job.result is None:
            continue
        key = job.spec.fingerprint()
        if key not in refs:
            result, sim_events = run_standalone(job.spec, svc.platform_name)
            refs[key] = (
                result.trace.digest(), result.makespan, result.mean_latency,
                result.period, len(result.trace), sim_events,
            )
        digest, makespan, latency, period, nprobes, nevents = refs[key]
        r = job.result
        checks = (
            ("trace_digest", r.trace_digest, digest),
            ("makespan", r.makespan, makespan),
            ("mean_latency", r.mean_latency, latency),
            ("period", r.period, period),
            ("probe_events", r.probe_events, nprobes),
            ("sim_events", r.sim_events, nevents),
        )
        for name, got, want in checks:
            if got != want:
                out.append(Violation(
                    "isolation",
                    f"{job.id} [{key}] {name} diverged from "
                    f"standalone: {got!r} != {want!r}",
                ))
    return out


def check_determinism(
    first: SageService,
    workload: Sequence[Tuple[JobSpec, float]],
    nodes: int,
    seed: int,
) -> List[Violation]:
    """Invariant 2: a fresh service + same workload replays byte-identically."""
    replay = _build_service(nodes, seed)
    _drive(replay, workload)
    out: List[Violation] = []
    a, b = first.bus, replay.bus
    if a.digest() != b.digest():
        out.append(Violation(
            "determinism",
            f"bus stream digest diverged on replay "
            f"({a.digest()[:12]} != {b.digest()[:12]})",
        ))
        # Localise the first divergent message for the report.
        for i, (ma, mb) in enumerate(zip(a.history, b.history)):
            if ma.canonical() != mb.canonical():
                out.append(Violation(
                    "determinism",
                    f"first divergence at message {i}: "
                    f"{ma.canonical()!r} != {mb.canonical()!r}",
                ))
                break
        else:
            out.append(Violation(
                "determinism",
                f"stream lengths differ ({len(a.history)} != {len(b.history)})",
            ))

    def grants(svc):
        return [
            (m.get("job"), m.get("nodes"))
            for m in svc.bus.history_for("scheduler.lease")
            if m.kind == "granted"
        ]

    ga, gb = grants(first), grants(replay)
    if ga != gb:
        # When one list is a strict prefix of the other, they first differ
        # where the shorter one ends.
        index = next(
            (i for i, (x, y) in enumerate(zip(ga, gb)) if x != y),
            min(len(ga), len(gb)),
        )
        out.append(Violation(
            "determinism",
            "admission order / lease assignments diverged "
            f"(first difference at index {index})",
        ))
    return out


def check_quota_and_starvation(svc: SageService) -> List[Violation]:
    """Invariant 3: typed rejections, quota ceilings, reservation promises."""
    from .errors import QuotaExceededError

    out: List[Violation] = []
    for job in svc.jobs.values():
        if job.state == "rejected" and not isinstance(
                job.error, QuotaExceededError):
            out.append(Violation(
                "quota",
                f"{job.id} rejected without the typed quota error "
                f"(got {type(job.error).__name__})",
            ))
    # Concurrent node usage never exceeds the tenant ceiling: sweep the
    # lease history as +width/-width edges per tenant.
    for tenant in {l.tenant for l in svc.scheduler.history}:
        quota = svc.scheduler.quota_for(tenant)
        if quota.max_nodes is None:
            continue
        edges = []
        for lease in svc.scheduler.history:
            if lease.tenant != tenant:
                continue
            edges.append((lease.t_start, 1, lease.width))
            edges.append((lease.t_end, 0, -lease.width))
        width = peak = 0
        for _, _, delta in sorted(edges):  # releases sort before grants
            width += delta
            peak = max(peak, width)
        if peak > quota.max_nodes:
            out.append(Violation(
                "quota",
                f"tenant {tenant!r} held {peak} nodes concurrently "
                f"(quota {quota.max_nodes})",
            ))
    # No starvation: whenever the scheduler backfilled past a blocked head,
    # it recorded the head's reservation — the promise that backfill must
    # not delay it.  Every such job must have started by its promise.
    for job_id, promised in svc.scheduler.reservations.items():
        job = svc.jobs.get(job_id)
        if job is None or job.start_time is None:
            continue
        if job.start_time > promised + _EPS:
            out.append(Violation(
                "starvation",
                f"{job_id} was promised a start by "
                f"{promised!r} but started at {job.start_time!r}",
            ))
    return out


def check_telemetry(svc: SageService) -> List[Violation]:
    """Invariant 5: probe telemetry on the bus reconciles with job results.

    One pass groups the bus history by job: ``job.<id>.<channel>`` topics
    under ``job.<id>``, the key ``history_for("job.<id>.*")`` matches on
    (job ids carry no dots or wildcards).
    """
    out: List[Violation] = []
    stats = svc.stats()
    by_job: Dict[str, List[BusMessage]] = {}
    for msg in svc.bus.history:
        by_job.setdefault(msg.topic.rpartition(".")[0], []).append(msg)
    for job in svc.jobs.values():
        own = by_job.get(f"job.{job.id}", [])
        probes_topic = f"job.{job.id}.probes"
        probes = [m for m in own if m.topic == probes_topic]
        if job.result is not None:
            if len(probes) != 1:
                out.append(Violation(
                    "telemetry",
                    f"{job.id} published {len(probes)} probe "
                    "message(s), expected exactly 1",
                ))
                continue
            msg = probes[0]
            if msg.get("job") != job.id:
                out.append(Violation(
                    "telemetry",
                    f"message under {job.id}'s topic names "
                    f"job {msg.get('job')!r} — cross-job contamination",
                ))
            if msg.get("digest") != job.result.trace_digest:
                out.append(Violation(
                    "telemetry", f"{job.id} bus digest != result digest",
                ))
            if msg.get("events") != job.result.probe_events:
                out.append(Violation(
                    "telemetry",
                    f"{job.id} bus event count "
                    f"{msg.get('events')} != result {job.result.probe_events}",
                ))
        elif probes:
            out.append(Violation(
                "telemetry",
                f"{job.id} never produced a result but has "
                f"{len(probes)} probe message(s)",
            ))
        # Lifecycle messages must only ever name their own job.
        for msg in own:
            if msg.get("job") != job.id:
                out.append(Violation(
                    "telemetry",
                    f"{job.id}'s topic carries a message for "
                    f"{msg.get('job')!r}",
                ))
    counts = svc.bus.counts_by_kind()
    recon = (
        ("started", stats.executed),
        ("completed", stats.completed),
    )
    for kind, want in recon:
        if counts.get(kind, 0) != want:
            out.append(Violation(
                "telemetry",
                f"{counts.get(kind, 0)} {kind!r} messages on the "
                f"bus but service counted {want}",
            ))
    return out


# -- the harness --------------------------------------------------------------

def run_soak(jobs: int = 1000, seed: int = 7, nodes: int = 8) -> SoakReport:
    """Drive one soak and evaluate the five invariants."""
    from .errors import TimeBudgetExceeded

    workload = generate_workload(jobs, seed)
    svc = _build_service(nodes, seed)
    rejected_at_submit = _drive(svc, workload)
    stats = svc.stats()
    return SoakReport(
        jobs=jobs,
        seed=seed,
        nodes=nodes,
        service=svc,
        submitted=stats.submitted,
        completed=stats.completed,
        failed=stats.failed,
        rejected=stats.rejected,
        rejected_at_submit=rejected_at_submit,
        backfills=stats.backfills,
        budget_kills=sum(1 for j in svc.jobs.values()
                         if isinstance(j.error, TimeBudgetExceeded)),
        utilization=stats.utilization,
        mean_wait=stats.mean_wait,
        violations={
            "isolation": check_isolation(svc),
            "determinism": check_determinism(svc, workload, nodes, seed),
            "quota_no_starvation": check_quota_and_starvation(svc),
            "zero_leaked_slots": svc.check_clean(),
            "telemetry": check_telemetry(svc),
        },
    )
