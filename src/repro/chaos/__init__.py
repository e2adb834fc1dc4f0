"""Randomized chaos-soak harness for the SAGE runtime.

ROADMAP north star: the runtime "handles as many scenarios as you can
imagine".  This package stops imagining scenarios one at a time and
*generates* them: a seeded random schedule generator draws faults from the
full taxonomy the machine layer can inject (crash / hang / slow / degrade /
jitter / flap / loss / corruption / join), the soak runner executes each
schedule under every fault policy, and the invariant checker verifies what
must hold regardless of what was injected:

* **result integrity** — a run that completes produces results bitwise
  identical to the fault-free run (recovery may cost time, never data);
* **sanctioned failure** — a run may abort only when the schedule contains
  a fault class the policy does not claim to survive, and only with a
  legible fault/transport error;
* **no wedged processes** — after the run, the event queue drains to empty
  (nothing spins or waits forever);
* **no leaked Resource slots** — every CPU slot acquired was released, and
  no requester is still queued;
* **probe-stream consistency** — the trace is well-formed: monotone
  timestamps, exits never outnumber enters, arrivals never outnumber
  sends, one sink record per completed iteration.

``python -m repro chaos [-o FILE]`` runs the soak and prints the committed
``reports/chaos.txt``; see :mod:`repro.chaos.soak`.  The package re-exports
only the schedule and invariant names: the soak runner pulls in the apps
and codegen, and callers that need only ``Violation`` (the service's lease
check and its soak) must not pay for it.
"""

from .schedule import CHAOS_KINDS, ChaosSchedule, generate_schedule
from .invariants import (
    IDENTICAL,
    MAY_ABORT,
    Violation,
    check_probe_stream,
    check_quiescent,
    check_results,
    expected_outcome,
)

__all__ = [
    "CHAOS_KINDS",
    "ChaosSchedule",
    "generate_schedule",
    "IDENTICAL",
    "MAY_ABORT",
    "Violation",
    "check_probe_stream",
    "check_quiescent",
    "check_results",
    "expected_outcome",
]
