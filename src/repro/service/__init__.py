"""SAGE-as-a-service: multi-job scheduling over a shared cluster of nodes.

The paper's infrastructure generated and ran *one* design at a time.  This
package turns that pipeline into a long-running service front end:

* :mod:`repro.service.jobs` — :class:`JobSpec` submissions, job lifecycle
  records, and the FIFO :class:`JobQueue` with per-tenant depth quotas.
* :mod:`repro.service.scheduler` — :class:`ClusterScheduler`: node-set
  leases kept in one free-node ledger, admission control and per-tenant
  quotas, FIFO order with conservative (reservation-respecting) backfill,
  and seeded deterministic tie-breaks.
* :mod:`repro.service.bus` — the :class:`EventBus` carrying job lifecycle
  messages and re-published probe telemetry on hierarchical topics.
* :mod:`repro.service.service` — :class:`SageService`, the front end tying
  queue + scheduler + bus into one virtual-time event loop; each job runs
  on its own private simulated cluster.
* :mod:`repro.service.soak` — the soak harness and its five invariants,
  run by the ``service-soak`` study (``python -m repro service-soak``).

See ``docs/SERVICE.md`` for the architecture and determinism story.
"""

from .bus import EventBus, Subscription
from .errors import (
    AdmissionError,
    InvalidJobSpec,
    JobFailedError,
    QuotaExceededError,
    ServiceError,
    TimeBudgetExceeded,
    UnknownJobError,
)
from .jobs import APPS, JOB_STATES, Job, JobQueue, JobResult, JobSpec
from .messages import (
    BusMessage,
    LIFECYCLE_KINDS,
    TOPIC_LEASES,
    TOPIC_QUEUE,
    canonical_stream,
    job_topic,
    topic_matches,
)
from .scheduler import ClusterScheduler, Lease, TenantQuota
from .service import SageService, ServiceStats, run_standalone

__all__ = [
    "APPS",
    "AdmissionError",
    "BusMessage",
    "ClusterScheduler",
    "EventBus",
    "InvalidJobSpec",
    "JOB_STATES",
    "Job",
    "JobFailedError",
    "JobQueue",
    "JobResult",
    "JobSpec",
    "LIFECYCLE_KINDS",
    "Lease",
    "QuotaExceededError",
    "SageService",
    "ServiceError",
    "ServiceStats",
    "Subscription",
    "TOPIC_LEASES",
    "TOPIC_QUEUE",
    "TenantQuota",
    "TimeBudgetExceeded",
    "UnknownJobError",
    "canonical_stream",
    "job_topic",
    "run_standalone",
    "topic_matches",
]
