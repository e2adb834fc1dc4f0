"""Fault-tolerance policies for the SAGE run-time kernel.

Real deployments of SAGE-generated code ran on embedded VxWorks systems
where a node or fabric failure mid-mission had to be survivable.  The
run-time therefore executes under one of six :class:`FaultPolicy` modes:

* ``fail_fast`` — the historical behaviour: the first fault aborts the run
  with a legible error naming the failed component and the virtual time.
* ``retry`` — transient faults (lost/corrupted messages, transient link
  outages, kernels raising
  :class:`~repro.machine.faults.TransientError`) are retried in place with
  exponential backoff; node crashes still abort.
* ``checkpoint_restart`` — iterations execute sequentially; buffer state is
  snapshotted at every iteration boundary and, after a recoverable fault
  (including a node crash — the crashed node is restarted unless the plan
  marked it permanent), the iteration replays from the last good
  checkpoint.  Virtual time never rewinds, so recovery overhead is visible
  in the makespan, and ``checkpoint`` / ``restore`` probe events make it
  visible on the timeline.
* ``shrink_restripe`` — everything ``checkpoint_restart`` does, plus a
  heartbeat failure detector (see :mod:`repro.mpi.detector`) and survival
  of *permanent* node loss: once the detector declares a crashed node dead,
  the run-time shrinks to the survivors, remaps the dead node's threads
  (``shrink`` probe), recomputes the striping/staging plan, redistributes
  the latest buffer checkpoints to the new owners over the fabric
  (``restripe`` probe), and replays the interrupted iteration — the
  application completes at degraded throughput instead of aborting.
* ``grow_restripe`` — everything ``shrink_restripe`` does, plus elastic
  re-growth: when replacement capacity powers on (a
  :class:`~repro.machine.faults.NodeJoin` event), the run-time admits it
  through the detector's join handshake at the next iteration boundary,
  re-derives the staging plan for the restored placement, migrates the
  displaced threads' checkpointed buffer state back over the fabric
  (``join`` / ``grow`` / ``migrate`` probes), and resumes at full
  striping width, closing the crash → shrink → degraded → re-grow →
  restored loop (see ``docs/ELASTICITY.md``).
* ``migrate_stragglers`` — everything ``grow_restripe`` does, plus *gray*
  failure handling: the kernel records per-iteration per-node busy time, a
  node whose progress score exceeds ``straggler_factor ×`` the median for
  ``straggler_patience`` consecutive iterations is drained at the next
  iteration boundary — its threads migrate (with their checkpointed
  regions, shipped from the still-live owner) onto the healthy nodes, the
  node keeps its rank but holds zero threads — and, once the detector's
  ``suspect_slow`` state clears for ``straggler_probation`` consecutive
  boundaries, it earns its original threads back through the same
  migration engine (see ``docs/CHAOS.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from ...mpi.detector import HeartbeatConfig

__all__ = ["FaultPolicy", "FAIL_FAST", "TransportError", "POLICY_MODES"]

POLICY_MODES = (
    "fail_fast", "retry", "checkpoint_restart", "shrink_restripe",
    "grow_restripe", "migrate_stragglers",
)


class TransportError(RuntimeError):
    """A runtime message could not be delivered (retries exhausted)."""


@dataclass(frozen=True)
class FaultPolicy:
    """How the run-time responds to injected faults.

    Attributes
    ----------
    mode:
        One of :data:`POLICY_MODES`: ``"fail_fast"``, ``"retry"``,
        ``"checkpoint_restart"``, ``"shrink_restripe"``,
        ``"grow_restripe"``, ``"migrate_stragglers"``.
    max_retries:
        Per-operation re-transmissions / kernel re-invocations (modes
        ``retry`` and ``checkpoint_restart``).
    max_restarts:
        Iteration replays allowed per run (checkpointing modes) before the
        underlying fault is re-raised.
    backoff_jitter:
        Fraction in [0, 1): every runtime retry backoff sleep is scaled by
        a seeded uniform draw from ``[1 - jitter, 1 + jitter]``, so many
        ranks retrying the same burned transfer desynchronise instead of
        re-colliding.  0 (the default) draws nothing — byte-identical to
        the legacy backoff.

    The class constants below are fixed: no caller runs with other values.
    """

    mode: str = "fail_fast"
    max_retries: int = 0
    max_restarts: int = 3
    backoff_jitter: float = 0.0

    #: First retry delay in virtual seconds, and its exponential growth.
    backoff: ClassVar[float] = 1e-4
    backoff_factor: ClassVar[float] = 2.0
    #: The heartbeat detector the re-striping modes start: seconds between
    #: heartbeats, and the detector's own silence grace (in periods) and
    #: consecutive misses before a node is declared dead.
    heartbeat_period: ClassVar[float] = 1e-4
    miss_grace: ClassVar[float] = HeartbeatConfig.miss_grace
    suspicion_threshold: ClassVar[int] = HeartbeatConfig.threshold
    #: Detector RTT-probe cadence, in heartbeat periods (adaptive modes).
    rtt_probe_every: ClassVar[int] = 4
    #: A node whose per-iteration busy time exceeds this multiple of the
    #: median across thread-holding nodes counts one straggler strike.
    straggler_factor: ClassVar[float] = 2.0
    #: Consecutive strikes before the node is drained
    #: (``migrate_stragglers`` only).
    straggler_patience: ClassVar[int] = 2
    #: Consecutive iteration boundaries with a clear ``suspect_slow``
    #: state before a drained node earns its threads back.
    straggler_probation: ClassVar[int] = 2

    def __post_init__(self):
        if self.mode not in POLICY_MODES:
            raise ValueError(f"mode must be one of {POLICY_MODES}, got {self.mode!r}")
        if self.max_retries < 0 or self.max_restarts < 0:
            raise ValueError("max_retries and max_restarts must be >= 0")
        if not (0 <= self.backoff_jitter < 1):
            raise ValueError("backoff_jitter must be in [0, 1)")

    # -- constructors ----------------------------------------------------
    # Each takes the fields above by keyword; only the mode and the
    # max_retries default differ.
    @classmethod
    def fail_fast(cls, **fields) -> "FaultPolicy":
        """Abort on the first fault (the default)."""
        return cls(mode="fail_fast", **fields)

    @classmethod
    def retry(cls, **fields) -> "FaultPolicy":
        """Retry transient faults in place (3 retries); crashes still abort."""
        return cls(mode="retry", **{"max_retries": 3, **fields})

    @classmethod
    def checkpoint_restart(cls, **fields) -> "FaultPolicy":
        """Snapshot at iteration boundaries; replay after recoverable faults."""
        return cls(mode="checkpoint_restart", **{"max_retries": 2, **fields})

    @classmethod
    def shrink_restripe(cls, **fields) -> "FaultPolicy":
        """Checkpoint/replay plus shrinking recovery from permanent loss."""
        return cls(mode="shrink_restripe", **{"max_retries": 2, **fields})

    @classmethod
    def grow_restripe(cls, **fields) -> "FaultPolicy":
        """Shrinking recovery plus automatic re-absorption of replacements."""
        return cls(mode="grow_restripe", **{"max_retries": 2, **fields})

    @classmethod
    def migrate_stragglers(cls, **fields) -> "FaultPolicy":
        """Elastic recovery plus gray-failure drain/restore of stragglers."""
        return cls(mode="migrate_stragglers", **{"max_retries": 2, **fields})

    @classmethod
    def named(cls, name: str, **overrides) -> "FaultPolicy":
        """Build a policy from its mode name (the service's job-spec path).

        ``overrides`` are forwarded to the mode's constructor, so
        ``FaultPolicy.named("retry", max_retries=5)`` ==
        ``FaultPolicy.retry(max_retries=5)``.
        """
        if name not in POLICY_MODES:
            raise ValueError(
                f"unknown fault policy {name!r}; choose from {POLICY_MODES}"
            )
        return getattr(cls, name)(**overrides)

    @property
    def adaptive_detection(self) -> bool:
        """True when the detector runs adaptive (phi-accrual-style) grace
        windows and RTT probing, which ``suspect_slow`` signals need."""
        return self.mode == "migrate_stragglers"

    @property
    def retries_transfers(self) -> bool:
        return (self.mode in ("retry", "checkpoint_restart",
                              "shrink_restripe", "grow_restripe",
                              "migrate_stragglers")
                and self.max_retries > 0)

    @property
    def checkpoints(self) -> bool:
        return self.mode in (
            "checkpoint_restart", "shrink_restripe", "grow_restripe",
            "migrate_stragglers",
        )

    @property
    def shrinks(self) -> bool:
        """True when permanent node loss is survivable (re-striping modes)."""
        return self.mode in (
            "shrink_restripe", "grow_restripe", "migrate_stragglers"
        )

    @property
    def regrows(self) -> bool:
        """True when replacement capacity is re-absorbed automatically."""
        return self.mode in ("grow_restripe", "migrate_stragglers")

    @property
    def migrates_stragglers(self) -> bool:
        """True when limping nodes are drained and later restored."""
        return self.mode == "migrate_stragglers"


FAIL_FAST = FaultPolicy()
