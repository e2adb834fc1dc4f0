"""The chaos-soak runner: schedules x policies, invariants checked.

The soak generates 20 seeded schedules (seeds 1..20) and executes each
under every fault policy against a small numeric corner-turn workload (real
data, so the bitwise-identity invariant has bytes to compare).  The
fault-free baseline run supplies both the reference results and the
horizon the schedules are scaled to.

Run: ``python -m repro chaos [-o FILE]``, the ``chaos`` row of the study
table (:mod:`repro.experiments.generate_report`); it exits 1 if any
invariant is violated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..apps import MatrixProvider, benchmark_mapping, corner_turn_model
from ..core.codegen import generate_glue
from ..core.runtime import SageRuntime
from ..core.runtime.kernel import RunResult, RuntimeError_
from ..core.runtime.policy import TransportError, FaultPolicy
from ..machine import get_platform
from ..machine.faults import FaultError, FaultPlan
from .invariants import (
    IDENTICAL,
    Violation,
    check_probe_stream,
    check_quiescent,
    check_results,
    expected_outcome,
)
from .schedule import ChaosSchedule, generate_schedule

__all__ = [
    "SOAK_POLICIES",
    "ScheduleOutcome",
    "run_schedule",
    "soak",
    "format_soak",
]

#: Policy factories for the soak sweep.  Retry/restart budgets are sized so
#: a schedule a policy *claims* to survive actually can (e.g. a 4-cycle
#: hard flap can burn one replay per down-phase).
SOAK_POLICIES: Dict[str, Callable[[], FaultPolicy]] = {
    "fail_fast": FaultPolicy.fail_fast,
    "retry": lambda: FaultPolicy.retry(max_retries=5),
    "checkpoint_restart": lambda: FaultPolicy.checkpoint_restart(
        max_restarts=8, max_retries=4),
    "shrink_restripe": lambda: FaultPolicy.shrink_restripe(
        max_restarts=8, max_retries=4),
    "grow_restripe": lambda: FaultPolicy.grow_restripe(
        max_restarts=8, max_retries=4),
    "migrate_stragglers": lambda: FaultPolicy.migrate_stragglers(
        max_restarts=8, max_retries=4, backoff_jitter=0.25),
}


@dataclass
class ScheduleOutcome:
    """One (schedule, policy) soak cell."""

    schedule: ChaosSchedule
    policy: str
    expectation: str            # IDENTICAL or MAY_ABORT
    completed: bool
    aborted_with: str = ""      # exception repr when not completed
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _build_runtime(
    n: int, nodes: int, plan: Optional[FaultPlan], policy: FaultPolicy
) -> SageRuntime:
    app = corner_turn_model(n, nodes)
    glue = generate_glue(app, benchmark_mapping(app, nodes),
                         num_processors=nodes)
    return SageRuntime.build(glue, get_platform("cspi"), fault_plan=plan,
                             fault_policy=policy)


def run_baseline(n: int = 16, nodes: int = 2, iterations: int = 3) -> RunResult:
    """The fault-free reference run (fail_fast — no recovery machinery)."""
    runtime = _build_runtime(n, nodes, None, FaultPolicy.fail_fast())
    return runtime.run(iterations=iterations, input_provider=MatrixProvider(n))


def run_schedule(
    schedule: ChaosSchedule,
    policy_name: str,
    baseline: RunResult,
    n: int = 16,
    iterations: int = 3,
) -> ScheduleOutcome:
    """Execute one schedule under one policy and check every invariant."""
    policy = SOAK_POLICIES[policy_name]()
    expectation = expected_outcome(schedule, policy)
    runtime = _build_runtime(n, schedule.nodes, schedule.plan, policy)
    violations: List[Violation] = []
    completed = False
    aborted_with = ""
    try:
        result = runtime.run(iterations=iterations,
                             input_provider=MatrixProvider(n))
        completed = True
    except (FaultError, TransportError, RuntimeError_) as exc:
        # RuntimeError_ is the kernel's legible surrender ("cannot recover
        # iteration k: ... failed permanently" / replay budget exhausted) —
        # sanctioned exactly like a first-fault abort.
        aborted_with = f"{type(exc).__name__}: {exc}"
        if expectation == IDENTICAL:
            violations.append(Violation(
                "sanctioned_failure",
                f"policy {policy_name} should survive "
                f"{schedule.describe()} but aborted: {aborted_with}",
            ))
    except Exception as exc:  # an illegible crash is always a violation
        aborted_with = f"{type(exc).__name__}: {exc}"
        violations.append(Violation(
            "sanctioned_failure",
            f"non-fault exception escaped the runtime: {aborted_with}",
        ))
    violations.extend(check_quiescent(runtime.env, runtime.cluster,
                                      strict_faults=completed))
    violations.extend(check_probe_stream(
        runtime.trace,
        processors=len(runtime.cluster),
        completed_iterations=iterations if completed else None,
    ))
    if completed:
        violations.extend(check_results(result, baseline))
    return ScheduleOutcome(
        schedule=schedule, policy=policy_name, expectation=expectation,
        completed=completed, aborted_with=aborted_with,
        violations=violations,
    )


def soak() -> List[ScheduleOutcome]:
    """Run the soak matrix: schedule seeds 1..20 x every policy on a
    2-node corner turn, and return every cell."""
    nodes = 2
    baseline = run_baseline(nodes=nodes)
    outcomes: List[ScheduleOutcome] = []
    for seed in range(1, 21):
        schedule = generate_schedule(seed, nodes, baseline.makespan)
        for name in SOAK_POLICIES:
            outcomes.append(run_schedule(schedule, name, baseline))
    return outcomes


def format_soak(outcomes: List[ScheduleOutcome]) -> str:
    """Human-readable soak report: the matrix, then any violations."""
    schedules = sorted({o.schedule.seed for o in outcomes})
    policies = list(dict.fromkeys(o.policy for o in outcomes))
    lines = [
        f"Chaos soak: {len(schedules)} schedule(s) x {len(policies)} "
        f"policy(ies) = {len(outcomes)} run(s)",
        "",
        f"{'seed':>6s}  {'faults':<34s}" + "".join(
            f"{p[:12]:>14s}" for p in policies),
    ]
    by_cell = {(o.schedule.seed, o.policy): o for o in outcomes}
    for s in schedules:
        sched = next(o.schedule for o in outcomes if o.schedule.seed == s)
        cells = []
        for p in policies:
            o = by_cell[(s, p)]
            mark = "ok" if o.completed else "abort"
            if o.violations:
                mark = "FAIL"
            cells.append(f"{mark:>14s}")
        lines.append(f"{s:>6d}  {','.join(sched.kinds):<34s}" + "".join(cells))
    kinds_seen = sorted({k for o in outcomes for k in o.schedule.kinds})
    lines += [
        "",
        f"taxonomy covered: {', '.join(kinds_seen)}",
        "(ok = completed with bitwise-identical results; abort = sanctioned "
        "fail-stop for a fault class the policy does not claim to survive)",
    ]
    bad = [o for o in outcomes if o.violations]
    if bad:
        lines.append("")
        lines.append(f"INVARIANT VIOLATIONS ({len(bad)} run(s)):")
        for o in bad:
            lines.append(f"  {o.schedule.describe()} under {o.policy}:")
            for v in o.violations:
                lines.append(f"    - {v}")
    else:
        lines.append("all invariants held.")
    return "\n".join(lines)
