#!/usr/bin/env python
"""End-to-end radar front-end on SAGE: the §1 application class.

Models a pulse-Doppler radar chain — pulse compression (matched filter) →
corner turn → Doppler filter bank → CFAR detection — as a SAGE dataflow
application, maps it with AToT's GA, generates the glue, executes on a
simulated 4-node CSPI machine, and verifies the chain finds the planted
targets.  Finishes with the Visualizer report and a saved design document.

Run: ``python examples/radar_pipeline.py``
"""

import numpy as np

from repro.core.atot import GaConfig, optimize_mapping
from repro.core.codegen import generate_glue
from repro.core.model import (
    ApplicationModel,
    DataType,
    FunctionBlock,
    save_design,
    striped,
)
from repro.core.runtime import SageRuntime
from repro.core.visualizer import run_report, run_summary
from repro.kernels import chirp_waveform
from repro.machine import get_platform

PULSES = 64     # pulses per CPI (power of two for the Doppler FFT)
RANGES = 64     # range gates (power of two for pulse compression)
NODES = 4
TARGETS = [  # (range gate, doppler bin)
    (17, 10),
    (45, 50),
]


def make_cpi(seed: int = 0) -> np.ndarray:
    """A coherent processing interval with two planted moving targets."""
    rng = np.random.default_rng(seed)
    wf = chirp_waveform(RANGES)
    cpi = 0.02 * (rng.standard_normal((PULSES, RANGES))
                  + 1j * rng.standard_normal((PULSES, RANGES)))
    for rng_gate, dop_bin in TARGETS:
        doppler = np.exp(2j * np.pi * dop_bin * np.arange(PULSES) / PULSES)
        echo = np.roll(wf, rng_gate)  # circular range model
        cpi += 0.5 * doppler[:, None] * echo[None, :]
    return cpi.astype(np.complex64)


def radar_model() -> ApplicationModel:
    t_c = DataType("cpi", "complex64", (PULSES, RANGES))
    t_f = DataType("det", "float32", (PULSES, RANGES))
    app = ApplicationModel("pulse_doppler_radar")
    src = app.add_block(FunctionBlock("adc", kernel="matrix_source", threads=NODES))
    src.add_out("out", t_c, striped(0))
    pc = app.add_block(FunctionBlock("pulse_comp", kernel="pulse_compress",
                                     threads=NODES, params={"bandwidth_frac": 0.5}))
    pc.add_in("in", t_c, striped(0))     # each node compresses its pulses
    pc.add_out("out", t_c, striped(0))
    dop = app.add_block(FunctionBlock("doppler", kernel="doppler", threads=NODES,
                                      params={"window": "none"}))
    dop.add_in("in", t_c, striped(1))    # corner turn: needs all pulses per range
    dop.add_out("out", t_c, striped(1))
    det = app.add_block(FunctionBlock("cfar", kernel="cfar", threads=NODES,
                                      params={"guard": 2, "train": 8, "scale": 16.0}))
    det.add_in("in", t_c, striped(0))    # second corner turn: CFAR along range
    det.add_out("out", t_f, striped(0))
    sink = app.add_block(FunctionBlock("sink", kernel="matrix_sink", threads=NODES))
    sink.add_in("in", t_f, striped(0))
    app.connect(src.port("out"), pc.port("in"))
    app.connect(pc.port("out"), dop.port("in"))
    app.connect(dop.port("out"), det.port("in"))
    app.connect(det.port("out"), sink.port("in"))
    return app


def main():
    platform = get_platform("cspi")
    app = radar_model()

    # AToT GA mapping.
    atot = optimize_mapping(app, platform, NODES,
                            config=GaConfig(population=40, generations=20, seed=7))
    print(f"AToT: fitness {atot.fitness:.4f} "
          f"(round-robin baseline {atot.baseline_fitness:.4f}), "
          f"imbalance {atot.breakdown.load_imbalance:.2f}, "
          f"comm {atot.breakdown.comm_bytes / 1e3:.0f} kB/iteration")

    glue = generate_glue(app, atot.mapping, num_processors=NODES)
    runtime = SageRuntime.build(glue, platform)
    result = runtime.run(iterations=2, input_provider=lambda k: make_cpi(k))

    # Verify detections: the detection map is doppler x range.
    det_map = result.full_result(0) > 0.5
    hits = {tuple(idx) for idx in np.argwhere(det_map)}
    print(f"\ndetections (doppler bin, range gate): {sorted(hits)}")
    for rng_gate, dop_bin in TARGETS:
        assert (dop_bin, rng_gate) in hits, f"missed target at ({dop_bin}, {rng_gate})"
    extras = len(hits) - len(TARGETS)
    assert extras <= 6, f"too many false alarms ({extras})"
    print(f"all {len(TARGETS)} planted targets detected "
          f"({extras} extra cells: target sidelobes / residual false alarms)")

    print(f"\nCPI latency {result.mean_latency * 1e3:.2f} ms, "
          f"period {result.period * 1e3:.2f} ms")
    summary = run_summary(result, NODES)
    print(f"busy time by function: "
          f"{ {k: round(v * 1e3, 2) for k, v in summary['function_busy_s'].items()} } ms")

    print()
    print(run_report(result, processors=NODES, gantt_width=60))

    save_design("radar_design.json", app, mapping=atot.mapping)
    print("\nsaved design document to radar_design.json")


if __name__ == "__main__":
    main()
