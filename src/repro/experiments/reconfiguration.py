"""Experiment R2: failure detection and shrinking reconfiguration.

Three measurements around the heartbeat detector
(:mod:`repro.mpi.detector`) and the run-time's ``shrink_restripe`` policy:

* **Detection latency vs heartbeat period** — a node is crashed mid-soak
  and the time from the crash to the first cluster-wide ``declare_dead``
  verdict is measured for a sweep of heartbeat periods.  Latency tracks
  ``(miss_grace + threshold) * period``.
* **False-positive rate under degraded fabrics** — the detector soaks on a
  fault-free cluster, then on clusters with degraded links and seeded
  message loss, with *no* crashes; every declaration is by construction a
  false positive.  Defaults must yield zero fault-free false positives.
* **Shrinking recovery** — 2D FFT and corner turn run on 8 nodes while
  1–3 nodes are permanently killed mid-run.  The run-time detects each
  loss, shrinks to the survivors, re-stripes the checkpointed buffers, and
  completes at degraded throughput; the table reports detection latency,
  reconfiguration cost (declaration to restored checkpoint), makespan
  overhead, and the degraded throughput.

Run: ``python -m repro reconfiguration [--quick] [-o FILE]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..apps import benchmark_mapping
from ..core.codegen import generate_glue
from ..faults import FaultPlan, FaultPolicy
from ..machine import get_platform
from ..mpi.detector import HeartbeatConfig
from .runner import APP_BUILDERS, mean_detect_ms, run_glue, start_detector

__all__ = [
    "DetectionPoint",
    "FalsePositivePoint",
    "ShrinkPoint",
    "run_detection_latency",
    "run_false_positives",
    "run_shrink_recovery",
    "format_reconfiguration",
]


@dataclass
class DetectionPoint:
    """Detection latency for one heartbeat period."""

    period: float
    window: float           # configured worst-case (miss_grace+threshold)*period
    latency: float          # crash -> first declare_dead, mean over seeds
    latency_max: float


@dataclass
class FalsePositivePoint:
    """Detector soak with no crashes: every declaration is a false positive."""

    scenario: str
    soak: float             # virtual seconds observed
    false_positives: int    # ranks wrongly declared dead
    suspects: int           # transient suspicions (recovered by a heartbeat)


@dataclass
class ShrinkPoint:
    """One (application, kill count) shrinking-recovery measurement."""

    app: str
    nodes: int
    killed: int
    completed: bool
    makespan_ms: float
    overhead_pct: float         # vs the fault-free baseline
    detect_ms: float            # mean crash -> declare_dead latency
    reconfig_ms: float          # mean declare_dead -> restored checkpoint
    restripe_bytes: int         # checkpoint bytes moved to new owners
    throughput: float           # data sets / second after completion
    baseline_throughput: float


# -- detection latency ------------------------------------------------------

def run_detection_latency(
    periods: Sequence[float] = (5e-5, 1e-4, 2e-4, 4e-4),
    nodes: int = 8,
    seeds: Sequence[int] = (21, 22, 23),
) -> List[DetectionPoint]:
    """Crash one node mid-soak; latency = crash -> first declaration."""
    platform = get_platform("cspi")
    points: List[DetectionPoint] = []
    for period in periods:
        config = HeartbeatConfig(period=period)
        latencies: List[float] = []
        for seed in seeds:
            crash_at = 20 * period + seed * period / 7.0
            plan = FaultPlan(seed=seed).crash_node(
                nodes - 1, at=crash_at, permanent=True)
            detector = start_detector(platform, nodes, config, plan)
            declared_at, _observer = detector.env.run(
                until=detector.death_event(nodes - 1))
            detector.stop()
            latencies.append(declared_at - crash_at)
        points.append(DetectionPoint(
            period=period,
            window=config.window,
            latency=sum(latencies) / len(latencies),
            latency_max=max(latencies),
        ))
    return points


# -- false positives --------------------------------------------------------

def run_false_positives(
    nodes: int = 8,
    soak_periods: int = 200,
    config: Optional[HeartbeatConfig] = None,
) -> List[FalsePositivePoint]:
    """Soak the detector with no crashes; count wrongful declarations."""
    config = config if config is not None else HeartbeatConfig()
    platform = get_platform("cspi")
    scenarios: List[Tuple[str, Optional[FaultPlan]]] = [
        ("fault-free", None),
        ("link 0-1 @ 10%", FaultPlan(seed=31).degrade_link(
            0, 1, at=0.0, factor=0.10)),
        ("loss 5%", FaultPlan(seed=32).message_loss(0.05)),
        ("loss 20%", FaultPlan(seed=33).message_loss(0.20)),
        ("loss 20% + link @ 10%", FaultPlan(seed=34).message_loss(0.20)
            .degrade_link(0, 1, at=0.0, factor=0.10)),
    ]
    points: List[FalsePositivePoint] = []
    for name, plan in scenarios:
        detector = start_detector(platform, nodes, config, plan)
        soak = soak_periods * config.period
        detector.env.run(until=soak)
        suspects = sum(1 for ev in detector.log if ev.kind == "suspect")
        fps = len(detector.declared_dead())
        detector.stop()
        points.append(FalsePositivePoint(
            scenario=name, soak=soak, false_positives=fps, suspects=suspects,
        ))
    return points


# -- shrinking recovery -----------------------------------------------------

def run_shrink_recovery(
    nodes: int = 8,
    size: int = 32,
    iterations: int = 4,
    kill_counts: Sequence[int] = (1, 2, 3),
    seed: int = 41,
) -> List[ShrinkPoint]:
    """Kill 1..k of ``nodes`` permanently mid-run under shrink_restripe."""
    platform = get_platform("cspi")
    points: List[ShrinkPoint] = []
    for app_name, (builder, _rank) in APP_BUILDERS.items():
        app = builder(size, nodes)
        glue = generate_glue(app, benchmark_mapping(app, nodes),
                             num_processors=nodes)
        base = run_glue(glue, platform, iterations)
        baseline_ms = base.makespan * 1e3
        baseline_tp = iterations / base.makespan

        for kills in kill_counts:
            # Stagger the kills through the run; the makespan only grows
            # with each recovery, so fractions of the baseline are in-run.
            plan = FaultPlan(seed=seed)
            for i in range(kills):
                plan.crash_node(nodes - 1 - i,
                                at=base.makespan * (0.35 + 0.18 * i),
                                permanent=True)
            policy = FaultPolicy.shrink_restripe(max_restarts=kills + 2)
            try:
                result = run_glue(glue, platform, iterations, plan, policy)
            except Exception:
                points.append(ShrinkPoint(
                    app=app_name, nodes=nodes, killed=kills, completed=False,
                    makespan_ms=math.nan, overhead_pct=math.nan,
                    detect_ms=math.nan, reconfig_ms=math.nan,
                    restripe_bytes=0, throughput=0.0,
                    baseline_throughput=baseline_tp,
                ))
                continue
            declares = result.trace.by_kind("declare_dead")
            # Reconfiguration cost: declaration -> the restore that follows.
            restores = result.trace.by_kind("restore")
            reconfig = []
            for ev in declares:
                after = [r.time for r in restores if r.time >= ev.time]
                if after:
                    reconfig.append(min(after) - ev.time)
            restripe_bytes = sum(
                ev.nbytes for ev in result.trace.by_kind("restripe"))
            makespan_ms = result.makespan * 1e3
            points.append(ShrinkPoint(
                app=app_name, nodes=nodes, killed=kills, completed=True,
                makespan_ms=makespan_ms,
                overhead_pct=(makespan_ms / baseline_ms - 1.0) * 100.0,
                detect_ms=mean_detect_ms(result.trace),
                reconfig_ms=(sum(reconfig) / len(reconfig) * 1e3
                             if reconfig else math.nan),
                restripe_bytes=restripe_bytes,
                throughput=iterations / result.makespan,
                baseline_throughput=baseline_tp,
            ))
    return points


# -- formatting -------------------------------------------------------------

def format_reconfiguration(
    detection: List[DetectionPoint],
    false_positives: List[FalsePositivePoint],
    shrink: List[ShrinkPoint],
) -> str:
    lines = [
        "R2: failure detection and shrinking reconfiguration "
        "(CSPI, timing-only)",
        "",
        "Detection latency vs heartbeat period (crash -> first declare_dead)",
        f"{'period':>10s}{'window':>10s}{'mean':>10s}{'max':>10s}",
    ]
    for p in detection:
        lines.append(
            f"{p.period * 1e6:>8.0f}us{p.window * 1e6:>8.0f}us"
            f"{p.latency * 1e6:>8.0f}us{p.latency_max * 1e6:>8.0f}us"
        )
    lines += [
        "",
        "False positives during a crash-free soak (defaults: "
        "period=100us, miss_grace=2.5, threshold=3)",
        f"{'scenario':<24s}{'soak':>9s}{'suspects':>10s}{'false+':>8s}",
    ]
    for p in false_positives:
        lines.append(
            f"{p.scenario:<24s}{p.soak * 1e3:>7.1f}ms"
            f"{p.suspects:>10d}{p.false_positives:>8d}"
        )
    lines += [
        "",
        "Shrinking recovery: permanent kills mid-run under shrink_restripe",
        f"{'app':<13s}{'killed':>7s}{'done':>6s}{'makespan':>11s}"
        f"{'overhead':>10s}{'detect':>9s}{'reconfig':>10s}"
        f"{'restripe':>10s}{'sets/s':>8s}{'base':>7s}",
    ]
    for p in shrink:
        if p.completed:
            lines.append(
                f"{p.app:<13s}{p.killed}/{p.nodes:<5d}{'yes':>6s}"
                f"{p.makespan_ms:>9.3f}ms{p.overhead_pct:>+9.1f}%"
                f"{p.detect_ms:>7.3f}ms{p.reconfig_ms:>8.3f}ms"
                f"{p.restripe_bytes:>9d}B{p.throughput:>8.0f}"
                f"{p.baseline_throughput:>7.0f}"
            )
        else:
            lines.append(
                f"{p.app:<13s}{p.killed}/{p.nodes:<5d}{'NO':>6s}"
                + "-".rjust(11) + "-".rjust(10) + "-".rjust(9)
                + "-".rjust(10) + "-".rjust(10) + "-".rjust(8)
                + f"{p.baseline_throughput:>7.0f}"
            )
    lines.append(
        "(detect: crash to cluster-wide declare_dead; reconfig: declaration "
        "to restored checkpoint incl. re-striping; the app completes on the "
        "survivors at degraded throughput)"
    )
    return "\n".join(lines)

