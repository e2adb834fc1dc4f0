"""Experiment R1: fault tolerance under escalating fault rates.

Runs the two §3 benchmark applications (corner turn, 2D FFT) against
deterministic :class:`~repro.faults.FaultPlan`\\ s — transient message loss,
a mid-run node crash, a degraded link — under each run-time
:class:`~repro.faults.FaultPolicy`, and reports:

* **completion rate** — fraction of seeded runs that produced every output,
* **recovery overhead** — makespan increase over the fault-free baseline,
* **degraded-mode throughput** — data sets per second while impaired.

The point of the table is the contrast: ``fail_fast`` dies on the first
lost message, while ``retry`` absorbs transient loss for a small overhead
and ``checkpoint_restart`` survives a node crash outright.

Run: ``python -m repro fault-tolerance [--quick] [-o FILE]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..apps import benchmark_mapping
from ..core.codegen import generate_glue
from ..faults import FaultPlan, FaultPolicy, RECOVERABLE_FAULTS
from ..machine import get_platform
from .runner import APP_BUILDERS, run_glue

__all__ = ["FaultPoint", "run_fault_tolerance", "format_fault_tolerance"]


@dataclass
class FaultPoint:
    """One (application, fault scenario, policy) measurement."""

    app: str
    scenario: str
    policy: str
    completed: int          # runs that produced all outputs
    attempted: int          # seeded runs attempted
    makespan_ms: float      # mean over completed runs (nan if none)
    overhead_pct: float     # makespan increase vs fault-free (nan if none)
    throughput: float       # data sets / second over completed runs
    retries: int            # total retry probes over completed runs
    restores: int           # total checkpoint restores over completed runs

    @property
    def completion_rate(self) -> float:
        return self.completed / self.attempted if self.attempted else 0.0


def _policy_name(policy: Optional[FaultPolicy]) -> str:
    return policy.mode if policy is not None else "fail_fast"


def run_fault_tolerance(
    nodes: int = 4,
    size: int = 64,
    iterations: int = 5,
    seeds: Tuple[int, ...] = (11, 12, 13, 14, 15),
    loss_rates: Tuple[float, ...] = (0.01, 0.05, 0.10),
) -> List[FaultPoint]:
    """Measure every (app, scenario, policy) combination deterministically."""
    platform = get_platform("cspi")
    points: List[FaultPoint] = []

    for app_name in ("corner_turn", "fft2d"):
        app = APP_BUILDERS[app_name][0](size, nodes)
        glue = generate_glue(app, benchmark_mapping(app, nodes),
                             num_processors=nodes)

        def measure(scenario: str, policy: Optional[FaultPolicy],
                    make_plan: Callable[[int], Optional[FaultPlan]],
                    baseline_ms: float) -> FaultPoint:
            makespans: List[float] = []
            retries = restores = 0
            for seed in seeds:
                try:
                    result = run_glue(glue, platform, nodes, iterations,
                                      make_plan(seed), policy)
                except RECOVERABLE_FAULTS:
                    continue  # run died: counts against the completion rate
                makespans.append(result.makespan * 1e3)
                retries += len(result.trace.by_kind("retry"))
                restores += len(result.trace.by_kind("restore"))
            mean_ms = (sum(makespans) / len(makespans)
                       if makespans else math.nan)
            overhead = ((mean_ms / baseline_ms - 1.0) * 100.0
                        if makespans and baseline_ms else math.nan)
            throughput = (iterations / (mean_ms / 1e3)
                          if makespans else 0.0)
            return FaultPoint(
                app=app_name, scenario=scenario,
                policy=_policy_name(policy),
                completed=len(makespans), attempted=len(seeds),
                makespan_ms=mean_ms, overhead_pct=overhead,
                throughput=throughput, retries=retries, restores=restores,
            )

        # Fault-free baseline (identical for every seed: the plan is empty).
        base = run_glue(glue, platform, nodes, iterations)
        baseline_ms = base.makespan * 1e3
        points.append(FaultPoint(
            app=app_name, scenario="fault-free", policy="fail_fast",
            completed=len(seeds), attempted=len(seeds),
            makespan_ms=baseline_ms, overhead_pct=0.0,
            throughput=iterations / base.makespan, retries=0, restores=0,
        ))

        # Escalating transient message loss: fail_fast vs retry.
        for rate in loss_rates:
            scenario = f"loss {rate:.0%}"
            for policy in (None, FaultPolicy.retry(max_retries=4)):
                points.append(measure(
                    scenario, policy,
                    lambda seed, rate=rate:
                        FaultPlan(seed=seed).message_loss(rate),
                    baseline_ms,
                ))

        # A node crash mid-run: fail_fast dies, checkpoint_restart replays.
        crash_at = base.makespan * 0.4
        for policy in (None, FaultPolicy.checkpoint_restart()):
            points.append(measure(
                "node crash", policy,
                lambda seed: FaultPlan(seed=seed).crash_node(
                    nodes - 1, at=crash_at),
                baseline_ms,
            ))

        # Degraded mode: one link at quarter bandwidth for the whole run.
        points.append(measure(
            "link 0-1 @ 25%", FaultPolicy.retry(max_retries=4),
            lambda seed: FaultPlan(seed=seed).degrade_link(
                0, 1, at=0.0, factor=0.25),
            baseline_ms,
        ))

    return points


def format_fault_tolerance(points: List[FaultPoint]) -> str:
    lines = [
        "R1: fault tolerance under escalating fault rates "
        "(CSPI, timing-only)",
        f"{'app':<13s}{'scenario':<16s}{'policy':<20s}{'done':>7s}"
        f"{'makespan':>11s}{'overhead':>10s}{'sets/s':>9s}"
        f"{'retries':>9s}{'restores':>9s}",
    ]
    for p in points:
        makespan = f"{p.makespan_ms:.3f}ms" if not math.isnan(p.makespan_ms) else "-"
        overhead = f"{p.overhead_pct:+.1f}%" if not math.isnan(p.overhead_pct) else "-"
        rate = f"{p.completed}/{p.attempted}"
        throughput = f"{p.throughput:.0f}" if p.completed else "-"
        lines.append(
            f"{p.app:<13s}{p.scenario:<16s}{p.policy:<20s}{rate:>7s}"
            f"{makespan:>11s}{overhead:>10s}{throughput:>9s}"
            f"{p.retries:>9d}{p.restores:>9d}"
        )
    lines.append(
        "(fail_fast aborts on the first fault; retry absorbs transient loss; "
        "checkpoint_restart replays the iteration a crash killed)"
    )
    return "\n".join(lines)

