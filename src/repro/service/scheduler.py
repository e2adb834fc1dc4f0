"""The cluster scheduler: node-set leasing over a shared cluster of nodes.

Admission policy
----------------
* **FIFO first.**  The queue head is admitted as soon as its node request
  and its tenant's quotas allow.
* **Conservative backfill.**  When the head cannot start, its *reservation*
  is computed exactly — every active lease has a known virtual end time, so
  the earliest instant the head becomes admissible is a pure function of
  the lease table — and a younger job may jump ahead only if it fits in the
  free nodes *now* and its declared time budget ends at or before the
  head's reservation.  Budgets are enforced (a lease is terminated at its
  budget boundary), so a backfill can never push the head past its
  reservation: backfill never starves a FIFO-older job, by construction,
  and the soak harness re-checks it after the fact.
* **Per-tenant quotas.**  ``max_nodes`` (concurrent leased nodes),
  ``max_running`` (concurrent jobs), and ``max_queued`` (queue depth,
  enforced by the :class:`~repro.service.jobs.JobQueue`).  Violations raise
  :class:`~repro.service.errors.QuotaExceededError` — a typed error, never
  a silent drop.
* **Seeded tie-breaks.**  The only free choice left — *which* physical
  nodes a lease gets — is drawn from a ``random.Random(seed)`` stream
  consumed in decision order, so a given submission set always schedules
  identically, and two service instances with equal seeds produce
  byte-identical bus streams (the determinism invariant).

The free-node set is the only lease ledger: a node is either free or held
by exactly one active lease, and
:meth:`~repro.service.service.SageService.check_clean` audits that after a
drain.  No simulated machine backs the leases — each job runs on its own
private cluster — so there is nothing else to keep in step.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .errors import AdmissionError, QuotaExceededError
from .jobs import Job, JobQueue, JobSpec

__all__ = ["TenantQuota", "Lease", "ClusterScheduler"]


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant resource limits (``None`` = unlimited)."""

    max_nodes: Optional[int] = None
    max_running: Optional[int] = None
    max_queued: Optional[int] = None


@dataclass
class Lease:
    """An exclusive node-set grant for one job's lifetime."""

    job_id: str
    tenant: str
    nodes: Tuple[int, ...]
    t_start: float
    t_end: Optional[float] = None     # set as soon as the job has executed
    backfilled: bool = False
    head_reservation: Optional[float] = None  # the head's reservation this
                                              # backfill promised to respect

    @property
    def width(self) -> int:
        return len(self.nodes)


_EPS = 1e-12

#: The quota of a tenant with no entry in ``quotas``: no limits.
_NO_QUOTA = TenantQuota()


class ClusterScheduler:
    """Multiplexes admitted jobs onto ``nodes`` shared nodes."""

    def __init__(
        self,
        nodes: int,
        seed: int = 0,
        quotas: Optional[Dict[str, TenantQuota]] = None,
        predictor: Optional[Callable[[JobSpec], float]] = None,
    ):
        self.nodes = nodes
        self.quotas = dict(quotas or {})
        #: Optional static-makespan predictor (spec -> seconds).  When set,
        #: :meth:`effective_budget` tightens declared budgets with the
        #: prediction, so backfill plans against exact reservations instead
        #: of trusting whatever budget the tenant declared.
        self.predictor = predictor
        self._rng = random.Random(seed)
        self._free = set(range(nodes))
        self.active: Dict[str, Lease] = {}
        self.history: List[Lease] = []
        #: job id -> tightest head reservation ever computed for it while it
        #: sat at the queue head (the no-starvation bound the soak checks).
        self.reservations: Dict[str, float] = {}
        self.grants = 0
        self.backfills = 0
        self.releases = 0

    # -- quotas ----------------------------------------------------------
    def quota_for(self, tenant: str) -> TenantQuota:
        return self.quotas.get(tenant, _NO_QUOTA)

    def max_queued(self, tenant: str) -> Optional[int]:
        """Queue-depth limit hook for the :class:`JobQueue`."""
        return self.quota_for(tenant).max_queued

    def tenant_usage(self, tenant: str) -> Tuple[int, int]:
        """(leased nodes, running jobs) currently held by ``tenant``."""
        nodes = jobs = 0
        for lease in self.active.values():
            if lease.tenant == tenant:
                nodes += lease.width
                jobs += 1
        return nodes, jobs

    def effective_budget(self, spec: JobSpec) -> float:
        """The lease bound used for backfill planning *and* budget kills.

        Without a predictor this is exactly ``spec.time_budget`` (the
        historical behaviour).  With one, it is the declared budget
        tightened by the static prediction — both the planner and the
        enforcement use the same number, so a backfill promise is always
        kept by the kill that backs it.
        """
        budget = spec.time_budget
        if self.predictor is not None:
            try:
                predicted = self.predictor(spec)
            except Exception:
                return budget
            if predicted is not None and predicted > 0:
                budget = min(budget, predicted)
        return budget

    def check_request(self, spec: JobSpec) -> None:
        """Reject requests that can *never* be admitted, with typed errors."""
        if spec.nodes > self.nodes:
            raise AdmissionError(
                f"request for {spec.nodes} nodes exceeds the "
                f"{self.nodes}-node cluster"
            )
        quota = self.quota_for(spec.tenant)
        if quota.max_nodes is not None and spec.nodes > quota.max_nodes:
            raise QuotaExceededError(
                spec.tenant, "nodes", quota.max_nodes, spec.nodes
            )

    def _admissible(self, job: Job, free: int, tenant_nodes: int,
                    tenant_jobs: int) -> bool:
        spec = job.spec
        if spec.nodes > free:
            return False
        quota = self.quota_for(spec.tenant)
        if quota.max_nodes is not None and \
                tenant_nodes + spec.nodes > quota.max_nodes:
            return False
        if quota.max_running is not None and tenant_jobs + 1 > quota.max_running:
            return False
        return True

    def admissible_now(self, job: Job) -> bool:
        nodes, jobs = self.tenant_usage(job.spec.tenant)
        return self._admissible(job, len(self._free), nodes, jobs)

    # -- reservations ----------------------------------------------------
    def reservation_time(self, job: Job, now: float) -> float:
        """Earliest instant ``job`` becomes admissible, given the current
        lease table.  Exact, not estimated: every active lease has a known
        virtual end time (its makespan, clipped to its budget)."""
        if self.admissible_now(job):
            return now
        free = len(self._free)
        tenant_nodes, tenant_jobs = self.tenant_usage(job.spec.tenant)
        pending = sorted(
            self.active.values(),
            key=lambda lease: (lease.t_end, lease.job_id),
        )
        for lease in pending:
            if lease.t_end is None:
                raise AdmissionError(
                    f"lease {lease.job_id} has no end time yet; reservation "
                    "is only computable between admissions"
                )
            free += lease.width
            if lease.tenant == job.spec.tenant:
                tenant_nodes -= lease.width
                tenant_jobs -= 1
            if self._admissible(job, free, tenant_nodes, tenant_jobs):
                return max(now, lease.t_end)
        raise AdmissionError(
            f"job {job.id} cannot be admitted even on an idle cluster "
            "(check_request should have rejected it)"
        )

    # -- admission -------------------------------------------------------
    def _next_admission(self, queue: JobQueue, now: float):
        """The single next job to admit at ``now`` per FIFO-with-backfill,
        or None.  Returns ``(job, backfilled, head_reservation)``."""
        pending = queue.pending
        if not pending:
            return None
        head = pending[0]
        if self.admissible_now(head):
            return head, False, None
        reservation = self.reservation_time(head, now)
        prior = self.reservations.get(head.id)
        if prior is None or reservation < prior:
            self.reservations[head.id] = reservation
        for job in pending[1:]:
            if not self.admissible_now(job):
                continue
            if now + self.effective_budget(job.spec) <= reservation + _EPS:
                return job, True, reservation
        return None

    def pump(
        self,
        queue: JobQueue,
        now: float,
        execute: Callable[[Job, Lease], float],
    ) -> List[Lease]:
        """Admit every job that may start at ``now``.

        ``execute(job, lease)`` runs the job (host-side) and returns the
        lease's virtual end time; the scheduler needs it recorded before
        the next admission decision, because reservations are computed from
        lease end times.
        """
        granted: List[Lease] = []
        while True:
            pick = self._next_admission(queue, now)
            if pick is None:
                break
            job, backfilled, reservation = pick
            queue.remove(job)
            lease = self.grant(job, now, backfilled, reservation)
            lease.t_end = execute(job, lease)
            granted.append(lease)
        return granted

    def grant(self, job: Job, now: float, backfilled: bool = False,
              head_reservation: Optional[float] = None) -> Lease:
        """Lease a node set to ``job``, taking its nodes out of the free set.

        Node choice is the seeded tie-break: a deterministic sample from
        the free set, consumed in decision order.
        """
        spec = job.spec
        if not self.admissible_now(job):
            raise AdmissionError(
                f"grant for {job.id} with only {len(self._free)} free nodes "
                f"(or over quota)"
            )
        nodes = tuple(sorted(self._rng.sample(sorted(self._free), spec.nodes)))
        self._free.difference_update(nodes)
        lease = Lease(
            job_id=job.id, tenant=spec.tenant, nodes=nodes, t_start=now,
            backfilled=backfilled, head_reservation=head_reservation,
        )
        self.active[job.id] = lease
        self.grants += 1
        if backfilled:
            self.backfills += 1
        return lease

    def release(self, job_id: str) -> Lease:
        """Return a lease's nodes to the free pool."""
        lease = self.active.pop(job_id)
        self._free.update(lease.nodes)
        self.history.append(lease)
        self.releases += 1
        return lease

    # -- accounting ------------------------------------------------------
    @property
    def free_nodes(self) -> Tuple[int, ...]:
        return tuple(sorted(self._free))

    def utilization(self, span: float) -> float:
        """Node-seconds leased over the cluster's capacity for ``span``."""
        if span <= 0:
            return 0.0
        booked = sum(
            (lease.t_end - lease.t_start) * lease.width
            for lease in self.history
            if lease.t_end is not None
        )
        return booked / (self.nodes * span)
