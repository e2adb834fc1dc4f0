"""Experiment A2: the §3.3 period/latency distinction.

*"a period is defined to be the time between input data sets while latency
is the time required to process a single data set"* — once the dataflow
pipeline fills, the steady-state period drops below the single-data-set
latency, bounded by the slowest stage; throttling the source below that
bound makes the period track the source interval instead.

Run: ``python -m repro period-latency [-o FILE]``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..apps import benchmark_mapping, fft2d_model
from ..core.codegen import generate_glue
from ..core.runtime import DEFAULT_CONFIG, SageRuntime
from ..machine import get_platform

__all__ = ["PeriodLatencyPoint", "run_period_latency", "format_period_latency"]


@dataclass
class PeriodLatencyPoint:
    mode: str
    latency_ms: float
    period_ms: float


def run_period_latency(
    nodes: int = 4, size: int = 512, iterations: int = 12
) -> List[PeriodLatencyPoint]:
    platform = get_platform("cspi")
    app = fft2d_model(size, nodes)
    glue = generate_glue(app, benchmark_mapping(app, nodes), num_processors=nodes)

    def run(config, source_interval=0.0):
        return SageRuntime.build(glue, platform, config=config).run(
            iterations=iterations, source_interval=source_interval)

    base = DEFAULT_CONFIG.timing_only()
    points = []
    r = run(base)
    serial_latency = r.mean_latency
    points.append(PeriodLatencyPoint("serial", r.mean_latency * 1e3, r.period * 1e3))
    r = run(base.pipelined())
    points.append(PeriodLatencyPoint("pipelined-unbounded", r.mean_latency * 1e3, r.period * 1e3))
    r = run(base.pipelined(2))
    points.append(PeriodLatencyPoint("pipelined-depth2", r.mean_latency * 1e3, r.period * 1e3))
    # Throttle the source well below the pipeline's natural rate: the period
    # then tracks the source interval (the sensor's data-set cadence).
    throttle = serial_latency * 2
    r = run(base.pipelined(), source_interval=throttle)
    points.append(
        PeriodLatencyPoint("throttled-source", r.mean_latency * 1e3, r.period * 1e3)
    )
    return points


def format_period_latency(points: List[PeriodLatencyPoint]) -> str:
    lines = [
        "A2: period vs latency (2D FFT, CSPI 4 nodes, 512x512)",
        f"{'mode':<26s}{'latency':>11s}{'period':>11s}",
    ]
    for p in points:
        lines.append(f"{p.mode:<26s}{p.latency_ms:>9.2f}ms{p.period_ms:>9.2f}ms")
    lines.append("(pipelined period < latency; throttled period = source interval)")
    return "\n".join(lines)

