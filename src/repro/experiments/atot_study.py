"""Experiment A1: the AToT mapping-quality study.

§1.1 claims AToT's GA performs "load balancing of CPU resources, optimizing
over latency constraints, communication minimization and scheduling of CPUs
and busses".  This study quantifies those claims on a synthetic radar chain
(the workload class the paper's introduction motivates): GA mapping vs the
naive round-robin layout vs uniformly random placement, scored both by the
analytic objective and by actually running the mapped application through
the simulator.

Run: ``python -m repro atot [--quick] [-o FILE]``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..core.atot import GaConfig, MappingObjective, list_schedule, optimize_mapping, random_mapping
from ..core.codegen import generate_glue
from ..core.model import (
    ApplicationModel,
    DataType,
    FunctionBlock,
    Mapping,
    round_robin_mapping,
    striped,
)
from ..machine import get_platform
from .runner import run_glue

__all__ = ["radar_chain_model", "run_atot_study", "format_atot_study"]


def radar_chain_model(n: int = 256, threads: int = 4) -> ApplicationModel:
    """A radar front-end: window -> range FFT -> corner turn -> doppler FFT
    -> detection.  More stages (and an unbalanced one) than the Table 1.0
    kernels, so mapping quality actually matters."""
    t = DataType(f"cpi_{n}", "complex64", (n, n))
    tf = DataType(f"mag_{n}", "float32", (n, n))
    app = ApplicationModel(f"radar_chain_{n}")
    src = app.add_block(FunctionBlock("adc", kernel="matrix_source", threads=threads,
                                      params={"n": n}))
    src.add_out("out", t, striped(0))
    win = app.add_block(FunctionBlock("window", kernel="window_rows", threads=threads,
                                      params={"window": "hanning"}))
    win.add_in("in", t, striped(0))
    win.add_out("out", t, striped(0))
    rng_fft = app.add_block(FunctionBlock("range_fft", kernel="fft_rows", threads=threads))
    rng_fft.add_in("in", t, striped(0))
    rng_fft.add_out("out", t, striped(0))
    dop_fft = app.add_block(FunctionBlock("doppler_fft", kernel="fft_cols", threads=threads))
    dop_fft.add_in("in", t, striped(1))
    dop_fft.add_out("out", t, striped(1))
    det = app.add_block(FunctionBlock("detect", kernel="vmag2", threads=threads))
    det.add_in("in", t, striped(1))
    det.add_out("out", tf, striped(1))
    sink = app.add_block(FunctionBlock("sink", kernel="matrix_sink", threads=threads))
    sink.add_in("in", tf, striped(1))
    app.connect(src.port("out"), win.port("in"))
    app.connect(win.port("out"), rng_fft.port("in"))
    app.connect(rng_fft.port("out"), dop_fft.port("in"))
    app.connect(dop_fft.port("out"), det.port("in"))
    app.connect(det.port("out"), sink.port("in"))
    return app


@dataclass
class AtotStudyRow:
    strategy: str
    fitness: float
    load_imbalance: float
    comm_mbytes: float
    simulated_latency_ms: float
    schedule_makespan_ms: float


def _simulate(app, mapping: Mapping, nodes: int, platform) -> float:
    glue = generate_glue(app, mapping, num_processors=nodes)
    return run_glue(glue, platform, iterations=3).mean_latency


def run_atot_study(
    nodes: int = 4,
    n: int = 256,
    generations: int = 40,
    seed: int = 1,
) -> List[AtotStudyRow]:
    platform = get_platform("cspi")
    app = radar_chain_model(n=n, threads=nodes)
    objective = MappingObjective(app, platform, nodes)

    candidates: Dict[str, Mapping] = {
        "random": random_mapping(app, nodes, seed=seed),
        "round_robin": round_robin_mapping(app, nodes),
    }
    atot = optimize_mapping(
        app, platform, nodes,
        config=GaConfig(population=40, generations=generations, seed=seed),
    )
    candidates["atot_ga"] = atot.mapping

    rows = []
    for strategy, mapping in candidates.items():
        bd = objective.breakdown(mapping)
        sched = list_schedule(app, mapping, platform, nodes)
        rows.append(
            AtotStudyRow(
                strategy=strategy,
                fitness=objective.fitness(mapping),
                load_imbalance=bd.load_imbalance,
                comm_mbytes=bd.comm_bytes / 1e6,
                simulated_latency_ms=_simulate(app, mapping, nodes, platform) * 1e3,
                schedule_makespan_ms=sched.makespan * 1e3,
            )
        )
    return rows


def format_atot_study(rows: List[AtotStudyRow]) -> str:
    lines = [
        "A1: AToT GA mapping vs baselines (radar chain, CSPI)",
        f"{'strategy':<14s}{'fitness':>10s}{'imbalance':>11s}{'comm MB':>9s}"
        f"{'sim latency':>13s}{'sched span':>12s}",
    ]
    for r in rows:
        lines.append(
            f"{r.strategy:<14s}{r.fitness:>10.4f}{r.load_imbalance:>11.2f}"
            f"{r.comm_mbytes:>9.2f}{r.simulated_latency_ms:>11.2f}ms"
            f"{r.schedule_makespan_ms:>10.2f}ms"
        )
    return "\n".join(lines)

