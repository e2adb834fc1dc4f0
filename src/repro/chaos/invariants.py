"""Invariant checking for chaos-soak runs.

The checker answers two questions about a run that executed under a
:class:`~repro.chaos.schedule.ChaosSchedule`:

1. *Was the outcome sanctioned?*  :func:`expected_outcome` maps a schedule
   and a fault policy to :data:`IDENTICAL` (the run must complete with
   results bitwise identical to the fault-free run) or :data:`MAY_ABORT`
   (the schedule contains a fault class the policy does not claim to
   survive, so a legible :class:`~repro.machine.faults.FaultError` /
   :class:`~repro.core.runtime.policy.TransportError` abort is also
   acceptable — but a *completed* run must still be bitwise identical:
   recovery may cost time, never data).

2. *Did the machinery stay clean?*  Regardless of outcome, the simulator
   must quiesce (no wedged processes), every Resource slot must be
   released, and the probe stream must be self-consistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..core.runtime.kernel import RunResult
from ..core.runtime.policy import FaultPolicy
from ..core.runtime.probes import Trace
from ..machine.cluster import SimCluster
from ..machine.simulator import Environment
from .schedule import ChaosSchedule

__all__ = [
    "IDENTICAL",
    "MAY_ABORT",
    "Violation",
    "expected_outcome",
    "check_quiescent",
    "check_results",
    "check_probe_stream",
]

IDENTICAL = "identical"
MAY_ABORT = "may_abort"

#: Safety margin when draining stragglers out of the event queue after a
#: run: generous for any trailing hang/flap timers, small enough that a
#: genuinely wedged process (infinite self-rescheduling) is caught.
_DRAIN_STEP_LIMIT = 500_000


@dataclass(frozen=True)
class Violation:
    """One broken invariant: which check failed and the evidence."""

    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"{self.invariant}: {self.detail}"


def expected_outcome(schedule: ChaosSchedule, policy: FaultPolicy) -> str:
    """What the policy promises for this schedule's fault classes.

    The mapping mirrors the policy capability matrix (``docs/FAULTS.md``):
    crashes need checkpoints; *permanent* crashes (with or without a later
    replacement) additionally need shrinking recovery; message loss and
    corruption need transfer retries; a flap whose down-phase fully drops
    the link raises in-flight :class:`LinkFailure` and needs retries or
    replay.  Everything else — limps, jitter, degrades, hangs, soft flaps —
    only costs time and must be survived by *every* policy.
    """
    kinds = set(schedule.kinds)
    if "crash" in kinds or "join" in kinds:
        if not policy.checkpoints:
            return MAY_ABORT
    if (schedule.permanent_crash or "join" in kinds) and not policy.shrinks:
        return MAY_ABORT
    if kinds & {"loss", "corruption"} and not policy.retries_transfers:
        return MAY_ABORT
    if schedule.hard_flap and not (policy.retries_transfers or policy.checkpoints):
        return MAY_ABORT
    return IDENTICAL


def check_quiescent(
    env: Environment,
    cluster: SimCluster,
    strict_faults: bool = True,
) -> List[Violation]:
    """Drain the post-run event queue; report wedges and leaked slots.

    After :meth:`SageRuntime.run` returns (detector stopped), only finite
    timers may remain — trailing fault-schedule actions, hang releases,
    retry sleeps.  Stepping the simulator must therefore reach an empty
    queue in bounded work, and once quiet every node CPU must be idle with
    nobody queued: a held slot means an exception path skipped a
    ``release()``; a queued requester is a process waiting forever.

    ``strict_faults=False`` (used after a *sanctioned abort*) tolerates
    :class:`FaultError` escaping stranded processes during the drain: once
    the run has fail-stopped, sibling processes touching the dead node die
    of the same injected fault — teardown, not a wedge.  A completed run
    gets no such grace.
    """
    from ..machine.faults import FaultError

    out: List[Violation] = []
    steps = 0
    while env.pending():
        if steps >= _DRAIN_STEP_LIMIT:
            out.append(Violation(
                "no_wedged_processes",
                f"event queue still busy after {steps} drain steps "
                f"({env.pending()} entries pending)",
            ))
            return out
        try:
            env.step()
        except FaultError as exc:
            if strict_faults:
                out.append(Violation(
                    "no_wedged_processes",
                    f"drain step raised {type(exc).__name__}: {exc}",
                ))
                return out
        except Exception as exc:  # a stranded process died uncleanly
            out.append(Violation(
                "no_wedged_processes",
                f"drain step raised {type(exc).__name__}: {exc}",
            ))
            return out
        steps += 1
    for node in cluster.nodes:
        if node.cpu.count:
            out.append(Violation(
                "no_leaked_slots",
                f"node {node.index}: {node.cpu.count} CPU slot(s) still held "
                "after quiesce",
            ))
        if node.cpu.queue_length:
            out.append(Violation(
                "no_leaked_slots",
                f"node {node.index}: {node.cpu.queue_length} requester(s) "
                "still queued on the CPU after quiesce",
            ))
    return out


def check_results(result: RunResult, baseline: RunResult) -> List[Violation]:
    """A completed run's data must be bitwise identical to the clean run."""
    out: List[Violation] = []
    if result.iterations != baseline.iterations:
        out.append(Violation(
            "bitwise_identical",
            f"iteration count {result.iterations} != baseline "
            f"{baseline.iterations}",
        ))
        return out
    for k in range(result.iterations):
        got = result.full_result(k)
        want = baseline.full_result(k)
        if (got is None) != (want is None):
            out.append(Violation(
                "bitwise_identical",
                f"iteration {k}: result presence differs from baseline",
            ))
        elif got is not None and not (
            got.dtype == want.dtype
            and got.shape == want.shape
            and np.array_equal(got, want)
        ):
            out.append(Violation(
                "bitwise_identical",
                f"iteration {k}: result differs from fault-free run",
            ))
    return out


def check_probe_stream(
    trace: Trace,
    processors: int,
    completed_iterations: Optional[int] = None,
) -> List[Violation]:
    """Structural well-formedness of the probe stream.

    Holds for aborted runs too: timestamps never decrease (the trace is
    appended in event order), a (function, thread, iteration) never exits
    more often than it entered (replays re-enter; nothing exits twice per
    entry), arrivals never outnumber sends (losses drop arrivals, retries
    add sends), and — when the run completed — the sink fired at least once
    per iteration (a replay whose prior attempt faulted *after* the sink
    records the sink again, so duplicates are legitimate).
    """
    out: List[Violation] = []
    last = float("-inf")
    enters: dict = {}
    exits: dict = {}
    sends = 0
    arrives = 0
    sinks: dict = {}
    for e in trace:
        if e.time < last:
            out.append(Violation(
                "probe_stream",
                f"timestamp went backwards at {e.kind} "
                f"({e.time:.9f} < {last:.9f})",
            ))
        last = e.time
        key = (e.function_id, e.thread, e.iteration)
        if e.kind == "enter":
            enters[key] = enters.get(key, 0) + 1
        elif e.kind == "exit":
            exits[key] = exits.get(key, 0) + 1
        elif e.kind == "send":
            sends += 1
        elif e.kind == "arrive":
            arrives += 1
        elif e.kind == "sink":
            sinks[e.iteration] = sinks.get(e.iteration, 0) + 1
        if e.processor >= processors:
            out.append(Violation(
                "probe_stream",
                f"{e.kind} names processor {e.processor} but the cluster "
                f"has {processors}",
            ))
    for key, n_exit in exits.items():
        if n_exit > enters.get(key, 0):
            out.append(Violation(
                "probe_stream",
                f"function {key[0]} thread {key[1]} iteration {key[2]}: "
                f"{n_exit} exit(s) vs {enters.get(key, 0)} enter(s)",
            ))
    if arrives > sends:
        out.append(Violation(
            "probe_stream", f"{arrives} arrivals vs {sends} sends",
        ))
    if completed_iterations is not None:
        for k in range(completed_iterations):
            if not sinks.get(k, 0):
                out.append(Violation(
                    "probe_stream",
                    f"iteration {k}: no sink record for a completed run",
                ))
    return out
