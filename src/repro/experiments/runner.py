"""The §3.3 experiment protocol.

*"each node configuration and mapping will be executed ten times where each
execution consists of a 100 iterations. The final performance number for
that execution will average the 100*10 results into a final average result.
... a period is defined to be the time between input data sets while latency
is the time required to process a single data set."*

:func:`measure_sage` runs the auto-generated glue through the SAGE run-time;
:func:`measure_hand` runs the hand-coded rank program over the vendor MPI.
Both execute in timing mode on the same simulated platform, so the only
differences are exactly the run-time overheads under study.  The simulator
is deterministic, so each configuration is simulated once.  Per-run
measurement jitter (clock granularity, interrupt skew on the real VxWorks
boards) is a small multiplicative term, seeded by a stable digest of the
configuration, applied to that one result so the 10-run averaging
machinery is exercised honestly.

The fault-era studies share the rest: :func:`run_glue` (one timing-only
:meth:`SageRuntime.build <repro.core.runtime.SageRuntime.build>` run, faults
and policy optional), :func:`start_detector`, :func:`steady_period` and
:func:`mean_detect_ms`.
"""

from __future__ import annotations

import math
import statistics
import zlib
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..apps import (
    benchmark_mapping,
    corner_turn_model,
    corner_turn_rank,
    fft2d_model,
    fft2d_rank,
)
from ..core.codegen import GlueModule, generate_glue
from ..core.runtime import DEFAULT_CONFIG, RunResult, RuntimeConfig, SageRuntime, Trace
from ..faults import FaultPlan, FaultPolicy
from ..machine import Environment, PlatformSpec, SimCluster
from ..mpi import MpiWorld
from ..mpi.detector import FailureDetector, HeartbeatConfig

__all__ = [
    "Protocol", "Measurement", "measure_sage", "measure_hand", "APP_BUILDERS",
    "FULL_PROTOCOL", "QUICK_PROTOCOL", "run_glue", "start_detector",
    "steady_period", "mean_detect_ms",
]

#: benchmark name -> (model builder, hand-coded rank program)
APP_BUILDERS = {
    "fft2d": (fft2d_model, fft2d_rank),
    "corner_turn": (corner_turn_model, corner_turn_rank),
}


@dataclass(frozen=True)
class Protocol:
    """How many runs/iterations to execute and how to jitter them."""

    runs: int = 10
    iterations: int = 100
    jitter_sigma: float = 0.004  # ~0.4 % run-to-run spread
    seed: int = 20000316  # IPPS 2000 vintage

    def __post_init__(self):
        if self.runs < 1 or self.iterations < 1:
            raise ValueError("runs and iterations must be >= 1")
        if self.jitter_sigma < 0:
            raise ValueError("jitter_sigma must be non-negative")


#: The paper's full protocol and a fast variant for CI.
FULL_PROTOCOL = Protocol()
QUICK_PROTOCOL = Protocol(runs=3, iterations=10)


@dataclass
class Measurement:
    """An averaged latency/period measurement for one configuration."""

    app: str
    platform: str
    nodes: int
    size: int
    variant: str  # 'hand' | 'sage' | 'sage_optimized'
    run_latencies: List[float] = field(default_factory=list)
    run_periods: List[float] = field(default_factory=list)

    @property
    def latency(self) -> float:
        return statistics.fmean(self.run_latencies)

    @property
    def latency_ms(self) -> float:
        return self.latency * 1e3

    @property
    def period(self) -> float:
        return statistics.fmean(self.run_periods)

    @property
    def latency_stdev(self) -> float:
        if len(self.run_latencies) < 2:
            return 0.0
        return statistics.stdev(self.run_latencies)


def _jitter(base: float, protocol: Protocol, run: int, tag: str) -> float:
    if protocol.jitter_sigma == 0:
        return base
    rng = np.random.default_rng(
        np.random.SeedSequence([protocol.seed, run, zlib.crc32(tag.encode())])
    )
    return base * float(1.0 + protocol.jitter_sigma * rng.standard_normal())


def _record_runs(meas: Measurement, latency: float, period: float,
                 protocol: Protocol, tag: str) -> Measurement:
    """``protocol.runs`` runs of one simulated result, jittered per run."""
    for run in range(protocol.runs):
        meas.run_latencies.append(_jitter(latency, protocol, run, tag))
        meas.run_periods.append(_jitter(period, protocol, run, tag + ":p"))
    return meas


def run_glue(glue: GlueModule, platform: PlatformSpec, iterations: int,
             plan: Optional[FaultPlan] = None,
             policy: Optional[FaultPolicy] = None) -> RunResult:
    """One timing-only run of ``glue`` on a fresh ``platform`` cluster, with
    ``plan``'s faults injected and ``policy`` governing the recovery."""
    return SageRuntime.build(glue, platform, fault_plan=plan, fault_policy=policy,
                             config=DEFAULT_CONFIG.timing_only()).run(iterations=iterations)


def start_detector(
    platform: PlatformSpec,
    nodes: int,
    config: HeartbeatConfig,
    plan: Optional[FaultPlan] = None,
) -> FailureDetector:
    """A started heartbeat detector on a fresh simulated cluster with
    ``plan``'s faults injected; drive it through ``detector.env``."""
    cluster = SimCluster.from_platform(Environment(), platform, nodes,
                                       fault_plan=plan)
    return FailureDetector(cluster, config).start()


def steady_period(sink_times: Sequence[float]) -> float:
    """Seconds per data set between the first and the last of ``sink_times``
    (nan without two distinct completions to define an interval)."""
    if len(sink_times) < 2 or sink_times[-1] <= sink_times[0]:
        return math.nan
    return (sink_times[-1] - sink_times[0]) / (len(sink_times) - 1)


def mean_detect_ms(trace: Trace) -> float:
    """Mean crash -> ``declare_dead`` latency in ms over a run's injected
    node crashes (nan if none was declared)."""
    crashed_at = {ev.processor: ev.time
                  for ev in trace.by_kind("fault_injected")
                  if "node_crash" in ev.detail}
    detect = [ev.time - crashed_at[ev.processor]
              for ev in trace.by_kind("declare_dead")
              if ev.processor in crashed_at]
    return sum(detect) / len(detect) * 1e3 if detect else math.nan


def measure_sage(
    app: str,
    platform: PlatformSpec,
    nodes: int,
    size: int,
    protocol: Protocol = QUICK_PROTOCOL,
    config: Optional[RuntimeConfig] = None,
    optimize_buffers: bool = False,
) -> Measurement:
    """Average latency of the SAGE auto-generated code for one configuration."""
    builder, _ = _lookup(app)
    model = builder(size, nodes)
    mapping = benchmark_mapping(model, nodes)
    glue = generate_glue(
        model, mapping, num_processors=nodes, optimize_buffers=optimize_buffers
    )
    cfg = config or DEFAULT_CONFIG
    variant = "sage_optimized" if (optimize_buffers or cfg.send_staging != "all") else "sage"
    runtime = SageRuntime.build(glue, platform, config=cfg.timing_only())
    result = runtime.run(iterations=protocol.iterations)
    return _record_runs(
        Measurement(app, platform.name, nodes, size, variant),
        result.mean_latency, result.period, protocol,
        f"sage:{app}:{platform.name}:{nodes}:{size}",
    )


def measure_hand(
    app: str,
    platform: PlatformSpec,
    nodes: int,
    size: int,
    protocol: Protocol = QUICK_PROTOCOL,
    alltoall_algorithm: Optional[str] = None,
) -> Measurement:
    """Average latency of the hand-coded implementation for one configuration."""
    _, rank_program = _lookup(app)
    algorithm = alltoall_algorithm or platform.alltoall_algorithm
    env = Environment()
    world = MpiWorld(SimCluster.from_platform(env, platform, nodes))
    world.spawn(
        rank_program,
        size,
        iterations=protocol.iterations,
        alltoall_algorithm=algorithm,
        execute_data=False,
    )
    timings = world.run()
    latencies = []
    for k in range(protocol.iterations):
        start = min(t.starts[k] for t in timings)
        finish = max(t.finishes[k] for t in timings)
        latencies.append(finish - start)
    base_latency = statistics.fmean(latencies)
    finish_times = [max(t.finishes[k] for t in timings) for k in range(protocol.iterations)]
    if len(finish_times) > 1:
        period = (finish_times[-1] - finish_times[0]) / (len(finish_times) - 1)
    else:
        period = base_latency
    return _record_runs(
        Measurement(app, platform.name, nodes, size, "hand"),
        base_latency, period, protocol, f"hand:{app}:{platform.name}:{nodes}:{size}",
    )


def _lookup(app: str):
    try:
        return APP_BUILDERS[app]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {app!r}; available: {sorted(APP_BUILDERS)}"
        ) from None
