"""Job specifications, job lifecycle state, and the FIFO job queue.

A :class:`JobSpec` names everything needed to generate and run one Alter
application design: the app (from :data:`APPS`), its problem size, the node
count to lease, the iteration count, the fault policy, and a virtual-time
budget the lease is bounded by.  Specs are immutable and content-
fingerprintable — the soak harness uses the fingerprint to memoize
standalone reference runs when checking the isolation invariant.

The :class:`JobQueue` is strict FIFO by submission sequence; the *scheduler*
decides admission order (FIFO with conservative backfill), the queue only
owns ordering and the per-tenant queue-depth quota.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from numbers import Integral, Real
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..apps import corner_turn_model, fft2d_model
from ..core.runtime.policy import POLICY_MODES
from .errors import InvalidJobSpec, QuotaExceededError

__all__ = [
    "APPS",
    "JobSpec",
    "JobResult",
    "Job",
    "JobQueue",
    "JOB_STATES",
]

#: Submittable application designs: name -> model builder(size, nodes, seed).
APPS: Dict[str, Callable] = {
    "fft2d": fft2d_model,
    "corner_turn": corner_turn_model,
}

JOB_STATES = ("queued", "running", "completed", "failed", "rejected")

#: Default lease bound, in virtual seconds — generous next to the paper
#: workloads' makespans (milliseconds) so unannotated jobs never get killed,
#: while still giving the backfill planner a finite horizon to reason with.
DEFAULT_TIME_BUDGET = 5.0


@dataclass(frozen=True)
class JobSpec:
    """One submission: a design plus its mapping/platform options."""

    tenant: str = "default"
    app: str = "fft2d"
    size: int = 32
    nodes: int = 2
    iterations: int = 3
    policy: str = "fail_fast"
    data_seed: int = 1234
    time_budget: float = DEFAULT_TIME_BUDGET

    def validate(self) -> None:
        # Specs arrive from batch files: check types before comparing values.
        for name in ("tenant", "app", "policy"):
            if not isinstance(getattr(self, name), str):
                raise InvalidJobSpec(f"{name} must be a string")
        for name in ("size", "nodes", "iterations", "data_seed"):
            value = getattr(self, name)
            if not isinstance(value, Integral) or isinstance(value, bool):
                raise InvalidJobSpec(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.time_budget, Real) or isinstance(self.time_budget, bool):
            raise InvalidJobSpec(
                f"time_budget must be a number, got {self.time_budget!r}")
        if not self.tenant:
            raise InvalidJobSpec("tenant must be a non-empty string")
        if self.app not in APPS:
            raise InvalidJobSpec(
                f"unknown app {self.app!r}; choose from {sorted(APPS)}"
            )
        if self.nodes < 1:
            raise InvalidJobSpec("nodes must be >= 1")
        if self.iterations < 1:
            raise InvalidJobSpec("iterations must be >= 1")
        if self.size <= 0 or self.size & (self.size - 1):
            raise InvalidJobSpec(
                f"size must be a power of two, got {self.size}"
            )
        if self.size % self.nodes:
            raise InvalidJobSpec(
                f"size {self.size} must divide evenly over {self.nodes} nodes"
            )
        if self.policy not in POLICY_MODES:
            raise InvalidJobSpec(
                f"unknown policy {self.policy!r}; choose from {POLICY_MODES}"
            )
        if not self.time_budget > 0:
            raise InvalidJobSpec("time_budget must be positive")

    def build_model(self):
        """Instantiate the application model this spec describes."""
        return APPS[self.app](self.size, self.nodes, seed=self.data_seed)

    def fingerprint(self) -> str:
        """Content key: two specs with equal fingerprints run identically
        (tenant and budget are scheduling concerns, not execution ones)."""
        return (
            f"{self.app}/{self.size}/{self.nodes}/{self.iterations}/"
            f"{self.policy}/{self.data_seed}"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tenant": self.tenant,
            "app": self.app,
            "size": self.size,
            "nodes": self.nodes,
            "iterations": self.iterations,
            "policy": self.policy,
            "data_seed": self.data_seed,
            "time_budget": self.time_budget,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobSpec":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        unknown = set(data) - known
        if unknown:
            raise InvalidJobSpec(f"unknown job spec fields: {sorted(unknown)}")
        spec = cls(**data)
        spec.validate()
        return spec

    def with_(self, **kw) -> "JobSpec":
        return replace(self, **kw)


@dataclass(frozen=True)
class JobResult:
    """What a completed job hands back: the §3.3 quantities plus digests."""

    makespan: float
    mean_latency: float
    period: float
    probe_events: int
    sim_events: int
    trace_digest: str


@dataclass
class Job:
    """A submission's full lifecycle record inside one service."""

    id: str
    spec: JobSpec
    state: str = "queued"
    submit_time: float = 0.0
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    lease_nodes: Tuple[int, ...] = ()
    backfilled: bool = False
    error: Optional[Exception] = None
    result: Optional[JobResult] = field(default=None, repr=False)

    @property
    def wait_time(self) -> Optional[float]:
        if self.start_time is None:
            return None
        return self.start_time - self.submit_time

    @property
    def done(self) -> bool:
        return self.state in ("completed", "failed", "rejected")


class JobQueue:
    """FIFO pending queue with per-tenant depth quotas.

    ``max_queued(tenant)`` is supplied by the owner (the service resolves
    it from the tenant quota table); ``None`` means unlimited.
    """

    def __init__(self,
                 max_queued: Optional[Callable[[str], Optional[int]]] = None):
        self._pending: List[Job] = []
        self._max_queued = max_queued
        self.enqueued = 0
        self.rejected = 0

    def depth(self, tenant: Optional[str] = None) -> int:
        if tenant is None:
            return len(self._pending)
        return sum(1 for j in self._pending if j.spec.tenant == tenant)

    def enqueue(self, job: Job) -> None:
        """Append in FIFO order; raises the typed quota error when the
        tenant's queue-depth limit is already met."""
        limit = self._max_queued(job.spec.tenant) if self._max_queued else None
        if limit is not None and self.depth(job.spec.tenant) >= limit:
            self.rejected += 1
            raise QuotaExceededError(
                job.spec.tenant, "queued", limit,
                self.depth(job.spec.tenant) + 1,
            )
        self._pending.append(job)
        self.enqueued += 1

    @property
    def pending(self) -> List[Job]:
        """The live FIFO list (oldest first).  The scheduler reads this and
        removes admitted jobs via :meth:`remove`."""
        return self._pending

    @property
    def head(self) -> Optional[Job]:
        return self._pending[0] if self._pending else None

    def remove(self, job: Job) -> None:
        self._pending.remove(job)

    def __len__(self) -> int:
        return len(self._pending)

    def __bool__(self) -> bool:
        return bool(self._pending)
