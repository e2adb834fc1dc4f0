"""One-stop public API for the fault-injection and fault-tolerance subsystem.

The implementation spans three layers (deliberately — each layer owns the
failure modes it can observe):

* :mod:`repro.machine.faults` — the deterministic :class:`FaultPlan` /
  :class:`FaultInjector` that crash, hang, and *slow* nodes (gray
  failures), drop/degrade/jitter/flap links, and sample per-message
  loss/corruption from a seeded RNG;
* :mod:`repro.mpi` — receive/wait timeouts (:class:`MpiTimeoutError`),
  integrity checking (:class:`CorruptionError` / :class:`TruncationError`),
  :class:`RetryPolicy`-driven retransmission (:class:`DeliveryError`),
  and the heartbeat :class:`FailureDetector` the run-time starts;
* :mod:`repro.core.runtime` — the :class:`FaultPolicy` governing how
  :class:`~repro.core.runtime.SageRuntime` responds: ``fail_fast``,
  ``retry``, ``checkpoint_restart``, ``shrink_restripe``, or
  ``grow_restripe`` (shrink + re-absorb replacement capacity; see
  ``docs/ELASTICITY.md``).

The full error taxonomy is documented in ``docs/FAULTS.md``; the detector
and shrinking recovery in ``docs/DETECTION.md``.

Typical use::

    from repro.core.runtime import SageRuntime
    from repro.faults import FaultPlan, FaultPolicy
    from repro.machine import cspi

    plan = FaultPlan(seed=7).crash_node(2, at=0.005, permanent=True)
    rt = SageRuntime.build(glue, cspi(), fault_plan=plan,
                           fault_policy=FaultPolicy.shrink_restripe())
"""

from .core.runtime.kernel import RECOVERABLE_FAULTS
from .core.runtime.policy import FAIL_FAST, POLICY_MODES, FaultPolicy, TransportError
from .machine.faults import (
    CORRUPTED,
    DELIVERED,
    LOST,
    FaultError,
    FaultInjector,
    FaultPlan,
    LinkDegrade,
    LinkDrop,
    LinkFailure,
    LinkFlap,
    LinkJitter,
    NodeCrash,
    NodeFailure,
    NodeHang,
    NodeJoin,
    NodeSlow,
    TransientError,
)
from .machine.interconnect import TransferOutcome
from .mpi.comm import RetryPolicy
from .mpi.detector import FailureDetector, HeartbeatConfig
from .mpi.errors import (
    CorruptionError,
    DeliveryError,
    MpiTimeoutError,
    TruncationError,
)

__all__ = [
    # machine layer
    "FaultPlan",
    "FaultInjector",
    "NodeCrash",
    "NodeHang",
    "NodeJoin",
    "NodeSlow",
    "LinkDrop",
    "LinkDegrade",
    "LinkJitter",
    "LinkFlap",
    "FaultError",
    "NodeFailure",
    "LinkFailure",
    "TransientError",
    "TransferOutcome",
    "DELIVERED",
    "LOST",
    "CORRUPTED",
    # mpi layer
    "RetryPolicy",
    "MpiTimeoutError",
    "CorruptionError",
    "TruncationError",
    "DeliveryError",
    "FailureDetector",
    "HeartbeatConfig",
    # runtime layer
    "FaultPolicy",
    "FAIL_FAST",
    "POLICY_MODES",
    "TransportError",
    "RECOVERABLE_FAULTS",
]
