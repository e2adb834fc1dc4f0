"""Experiment R3: elastic membership — join, re-grow, live migration.

Three measurements around the join/admission protocol
(:meth:`repro.mpi.detector.FailureDetector.request_join`) and the
run-time's ``grow_restripe`` policy:

* **Join latency vs heartbeat period** — a crashed node powers back on and
  runs the admission handshake (announce over the out-of-band channel,
  coordinator ack); the time from the join request to cluster-wide
  admission is measured for a sweep of heartbeat periods, plus a lossy
  channel scenario that exercises the announce retries.
* **Elastic recovery** — 2D FFT and corner turn run on 8 nodes while 1–3
  nodes are permanently killed mid-run and replacements power on later.
  The run-time detects each loss, shrinks, runs degraded, then admits the
  replacements at an iteration boundary, migrates the moved threads'
  checkpointed buffer state back, and resumes at full striping width.  The
  table reports detection latency, join latency, the migration pause, and
  the steady-state throughput before failure, degraded, and after re-grow
  — the acceptance bar is recovery to within 5% of the pre-failure rate.
* **Incremental re-striping** — the same runs report how many messages the
  delta re-plan actually revisited versus what a from-scratch recompute
  would have visited (``striping.replan_*`` counters).

Run: ``python -m repro elasticity [--quick] [-o FILE]``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..apps import benchmark_mapping
from ..core.codegen import generate_glue
from ..core.runtime.buffers import buffer_views
from ..faults import FaultPlan, FaultPolicy
from ..machine import get_platform
from ..mpi.detector import HeartbeatConfig
from ..perf.registry import REGISTRY
from .runner import (
    APP_BUILDERS,
    mean_detect_ms,
    run_glue,
    start_detector,
    steady_period,
)

__all__ = [
    "JoinPoint",
    "ElasticPoint",
    "run_join_latency",
    "run_elastic_recovery",
    "format_elasticity",
]

_SECONDS = re.compile(r"in ([0-9.eE+-]+)s")


@dataclass
class JoinPoint:
    """Admission-handshake latency for one (period, channel) setting."""

    period: float
    window: float           # detection window (miss_grace+threshold)*period
    scenario: str           # "clean" or a lossy-channel description
    latency: float          # request_join -> admitted, mean over seeds
    latency_max: float


@dataclass
class ElasticPoint:
    """One (application, replaced-node count) elastic-recovery measurement."""

    app: str
    nodes: int
    replaced: int
    completed: bool
    makespan_ms: float
    detect_ms: float        # mean crash -> declare_dead
    join_ms: float          # mean join request -> admission
    pause_ms: float         # total migration pause (quiesce -> resume)
    migrated_bytes: int     # checkpointed state shipped back
    base_rate: float        # data sets / s, fault-free same-policy run
    degraded_rate: float    # steady-state rate after shrink, no re-grow
    recovered_rate: float   # steady-state rate after re-grow
    recovery_pct: float     # recovered / base * 100 (acceptance: >= 95)
    delta_msgs: int         # messages revisited by incremental re-plans
    full_msgs: int          # messages full recomputes would have visited


# -- join latency ------------------------------------------------------------

def run_join_latency(
    periods: Sequence[float] = (5e-5, 1e-4, 2e-4),
    nodes: int = 8,
    seeds: Sequence[int] = (51, 52, 53),
    lossy: bool = True,
) -> List[JoinPoint]:
    """Crash one node, power it back on, and time the admission handshake."""
    platform = get_platform("cspi")
    scenarios: List[Tuple[str, Optional[float]]] = [("clean", None)]
    if lossy:
        scenarios.append(("loss 20%", 0.20))
    points: List[JoinPoint] = []
    for period in periods:
        config = HeartbeatConfig(period=period)
        for name, loss in scenarios:
            latencies: List[float] = []
            for seed in seeds:
                crash_at = 20 * period + seed * period / 7.0
                rejoin_at = crash_at + 30 * period
                plan = FaultPlan(seed=seed)
                if loss:
                    plan.message_loss(loss)
                plan.crash_node(nodes - 1, at=crash_at, permanent=True)
                plan.join_node(nodes - 1, at=rejoin_at)
                detector = start_detector(platform, nodes, config, plan)
                env = detector.env
                env.run(until=detector.death_event(nodes - 1))
                # Let the NodeJoin power-on fire, then request admission.
                env.run(until=rejoin_at + period / 100.0)
                ev = detector.request_join(nodes - 1)
                env.run(until=env.any_of([ev, env.timeout(100 * period)]))
                lat = detector.join_latency(nodes - 1)
                detector.stop()
                if lat is not None:
                    latencies.append(lat)
            points.append(JoinPoint(
                period=period,
                window=config.window,
                scenario=name,
                latency=(sum(latencies) / len(latencies)
                         if latencies else math.nan),
                latency_max=max(latencies) if latencies else math.nan,
            ))
    return points


# -- elastic recovery --------------------------------------------------------

def _steady_rate(sink_times: Sequence[float], after: float) -> float:
    """Data sets per second from the sinks completing strictly after
    ``after``."""
    return 1.0 / steady_period(sorted(t for t in sink_times if t > after))


def _probe_seconds(events) -> List[float]:
    """The ``in <seconds>s`` durations the join and migrate probes record."""
    found = (_SECONDS.search(ev.detail) for ev in events)
    return [float(m.group(1)) for m in found if m]


def run_elastic_recovery(
    nodes: int = 8,
    size: int = 32,
    iterations: int = 8,
    replace_counts: Sequence[int] = (1, 2, 3),
    seed: int = 61,
    apps: Optional[Sequence[str]] = None,
) -> List[ElasticPoint]:
    """Kill 1..k nodes permanently, power replacements back on, re-grow."""
    platform = get_platform("cspi")
    points: List[ElasticPoint] = []
    for app_name in (apps or APP_BUILDERS):
        app = APP_BUILDERS[app_name][0](size, nodes)
        glue = generate_glue(app, benchmark_mapping(app, nodes),
                             num_processors=nodes)
        # Messages one from-scratch re-plan of every buffer would visit.
        total_plan_msgs = sum(len(buf.plan) for buf in buffer_views(app))

        # Same-policy fault-free baseline so detector overheads cancel out
        # of the throughput comparison.
        base = run_glue(glue, platform, nodes, iterations,
                        policy=FaultPolicy.grow_restripe())
        base_rate = _steady_rate(base.sink_times, -1.0)

        def kills(k: int) -> FaultPlan:
            plan = FaultPlan(seed=seed)
            for i in range(k):
                plan.crash_node(nodes - 1 - i,
                                at=base.makespan * (0.22 + 0.12 * i),
                                permanent=True)
            return plan

        for k in replace_counts:
            # Degraded reference: the same kills, never re-grown.
            degraded = run_glue(
                glue, platform, nodes, iterations, kills(k),
                FaultPolicy.shrink_restripe(max_restarts=k + 2))
            restripes = degraded.trace.by_kind("restripe")
            degraded_rate = _steady_rate(
                degraded.sink_times,
                max(ev.time for ev in restripes) if restripes else -1.0)

            # Elastic run: replacements power on after the losses.
            plan = kills(k)
            for i in range(k):
                plan.join_node(nodes - 1 - i,
                               at=base.makespan * (0.62 + 0.05 * i))
            before = dict(REGISTRY.snapshot()["counters"])
            try:
                result = run_glue(
                    glue, platform, nodes, iterations, plan,
                    FaultPolicy.grow_restripe(max_restarts=k + 2))
            except Exception:
                points.append(ElasticPoint(
                    app=app_name, nodes=nodes, replaced=k, completed=False,
                    makespan_ms=math.nan, detect_ms=math.nan,
                    join_ms=math.nan, pause_ms=math.nan, migrated_bytes=0,
                    base_rate=base_rate, degraded_rate=degraded_rate,
                    recovered_rate=math.nan, recovery_pct=math.nan,
                    delta_msgs=0, full_msgs=0,
                ))
                continue
            after = dict(REGISTRY.snapshot()["counters"])
            delta = "striping.replan_delta_messages"
            migrates = result.trace.by_kind("migrate")
            joins = _probe_seconds(result.trace.by_kind("join"))
            pauses = _probe_seconds(migrates)
            recovered_rate = _steady_rate(
                result.sink_times,
                max(ev.time for ev in migrates) if migrates else -1.0)
            recovery = (recovered_rate / base_rate * 100.0
                        if base_rate and not math.isnan(recovered_rate)
                        else math.nan)
            points.append(ElasticPoint(
                app=app_name, nodes=nodes, replaced=k, completed=True,
                makespan_ms=result.makespan * 1e3,
                detect_ms=mean_detect_ms(result.trace),
                join_ms=(sum(joins) / len(joins) * 1e3
                         if joins else math.nan),
                pause_ms=sum(pauses) * 1e3 if pauses else math.nan,
                migrated_bytes=sum(ev.nbytes for ev in migrates),
                base_rate=base_rate,
                degraded_rate=degraded_rate,
                recovered_rate=recovered_rate,
                recovery_pct=recovery,
                delta_msgs=after.get(delta, 0) - before.get(delta, 0),
                full_msgs=((len(result.trace.by_kind("shrink"))
                            + len(result.trace.by_kind("grow")))
                           * total_plan_msgs),
            ))
    return points


# -- formatting -------------------------------------------------------------

def format_elasticity(
    joins: List[JoinPoint],
    elastic: List[ElasticPoint],
) -> str:
    lines = [
        "R3: elastic membership — join, re-grow, live migration "
        "(CSPI, timing-only)",
        "",
        "Join latency vs heartbeat period (request_join -> admission)",
        f"{'period':>10s}{'window':>10s}  {'channel':<14s}{'mean':>10s}"
        f"{'max':>10s}",
    ]
    for p in joins:
        lines.append(
            f"{p.period * 1e6:>8.0f}us{p.window * 1e6:>8.0f}us  "
            f"{p.scenario:<14s}{p.latency * 1e6:>8.0f}us"
            f"{p.latency_max * 1e6:>8.0f}us"
        )
    lines += [
        "",
        "Elastic recovery: permanent kills then same-slot replacements "
        "under grow_restripe",
        f"{'app':<13s}{'repl':>6s}{'done':>6s}{'makespan':>11s}"
        f"{'detect':>9s}{'join':>8s}{'pause':>9s}{'moved':>9s}"
        f"{'base':>7s}{'degr':>7s}{'recov':>7s}{'recov%':>8s}",
    ]
    for p in elastic:
        if p.completed:
            lines.append(
                f"{p.app:<13s}{p.replaced}/{p.nodes:<4d}{'yes':>6s}"
                f"{p.makespan_ms:>9.3f}ms{p.detect_ms:>7.3f}ms"
                f"{p.join_ms:>6.3f}ms{p.pause_ms:>7.3f}ms"
                f"{p.migrated_bytes:>8d}B{p.base_rate:>7.0f}"
                f"{p.degraded_rate:>7.0f}{p.recovered_rate:>7.0f}"
                f"{p.recovery_pct:>7.1f}%"
            )
        else:
            lines.append(
                f"{p.app:<13s}{p.replaced}/{p.nodes:<4d}{'NO':>6s}"
                + "-".rjust(11) + "-".rjust(9) + "-".rjust(8)
                + "-".rjust(9) + "-".rjust(9)
                + f"{p.base_rate:>7.0f}{p.degraded_rate:>7.0f}"
                + "-".rjust(7) + "-".rjust(8)
            )
    lines.append(
        "(rates in data sets/s: base = fault-free same-policy run, degr = "
        "steady state on the survivors, recov = steady state after the "
        "re-grow; acceptance is recov within 5% of base)"
    )
    done = [p for p in elastic if p.completed]
    if done:
        delta = sum(p.delta_msgs for p in done)
        full = sum(p.full_msgs for p in done)
        lines += [
            "",
            f"Incremental re-striping: delta re-plans revisited {delta} "
            f"message(s); from-scratch recomputes would have visited "
            f"{full}.",
        ]
    return "\n".join(lines)

