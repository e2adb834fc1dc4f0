"""End-to-end radar-kernel runtime tests + visualizer export tests."""

import csv
import io
import json

import numpy as np
import pytest

from repro.core.atot import GaConfig, optimize_mapping
from repro.core.codegen import generate_glue
from repro.core.model import (
    ApplicationModel,
    DataType,
    FunctionBlock,
    round_robin_mapping,
    software_shelf,
    striped,
)
from repro.core.runtime import DEFAULT_CONFIG, SageRuntime
from repro.core.visualizer import run_summary, trace_to_csv, trace_to_json
from repro.kernels import cfar_detect, chirp_waveform, doppler_process, pulse_compress_rows
from repro.machine import cspi

PULSES, RANGES = 32, 32


def make_cpi(targets, noise=0.02, seed=0):
    rng = np.random.default_rng(seed)
    wf = chirp_waveform(RANGES)
    cpi = noise * (rng.standard_normal((PULSES, RANGES))
                   + 1j * rng.standard_normal((PULSES, RANGES)))
    for rng_gate, dop_bin in targets:
        doppler = np.exp(2j * np.pi * dop_bin * np.arange(PULSES) / PULSES)
        cpi += 0.5 * doppler[:, None] * np.roll(wf, rng_gate)[None, :]
    return cpi.astype(np.complex64)


def radar_model(nodes):
    t_c = DataType("cpi", "complex64", (PULSES, RANGES))
    t_f = DataType("det", "float32", (PULSES, RANGES))
    app = ApplicationModel("radar")
    src = app.add_block(FunctionBlock("adc", kernel="matrix_source", threads=nodes))
    src.add_out("out", t_c, striped(0))
    pc = app.add_block(FunctionBlock("pc", kernel="pulse_compress", threads=nodes))
    pc.add_in("in", t_c, striped(0))
    pc.add_out("out", t_c, striped(0))
    dop = app.add_block(FunctionBlock("dop", kernel="doppler", threads=nodes,
                                      params={"window": "none"}))
    dop.add_in("in", t_c, striped(1))
    dop.add_out("out", t_c, striped(1))
    det = app.add_block(FunctionBlock("det", kernel="cfar", threads=nodes,
                                      params={"scale": 16.0}))
    det.add_in("in", t_c, striped(0))
    det.add_out("out", t_f, striped(0))
    sink = app.add_block(FunctionBlock("sink", kernel="matrix_sink", threads=nodes))
    sink.add_in("in", t_f, striped(0))
    app.connect(src.port("out"), pc.port("in"))
    app.connect(pc.port("out"), dop.port("in"))
    app.connect(dop.port("out"), det.port("in"))
    app.connect(det.port("out"), sink.port("in"))
    return app


def run_radar(nodes, cpi):
    app = radar_model(nodes)
    glue = generate_glue(app, round_robin_mapping(app, nodes), num_processors=nodes)
    runtime = SageRuntime.build(glue, cspi())
    return runtime.run(iterations=1, input_provider=lambda k: cpi)


class TestRadarChainEndToEnd:
    @pytest.mark.parametrize("nodes", [1, 2, 4])
    def test_distributed_matches_sequential_reference(self, nodes):
        """The SAGE-distributed chain must equal the plain-numpy chain."""
        targets = [(9, 5)]
        cpi = make_cpi(targets)
        result = run_radar(nodes, cpi)
        got = result.full_result(0)

        wf = chirp_waveform(RANGES)
        ref = pulse_compress_rows(np.asarray(cpi, dtype=np.complex128), wf)
        ref = doppler_process(ref)
        ref = cfar_detect(ref, scale=16.0).astype(np.float32)
        np.testing.assert_allclose(got, ref, atol=1e-6)

    def test_detects_planted_target(self):
        targets = [(9, 5), (25, 20)]
        result = run_radar(4, make_cpi(targets))
        det = result.full_result(0) > 0.5
        for rng_gate, dop_bin in targets:
            assert det[dop_bin, rng_gate], f"missed ({dop_bin}, {rng_gate})"

    def test_quiet_cpi_no_detections(self):
        result = run_radar(2, make_cpi([], noise=0.02))
        assert result.full_result(0).sum() <= 2  # at most stray false alarms

    def test_radar_kernels_on_shelf(self):
        shelf = software_shelf()
        for name in ("pulse_compress", "doppler", "cfar", "window_rows"):
            assert name in shelf
        blk = shelf.take("doppler", "d1", threads=2, window="hamming")
        assert blk.kernel == "doppler"
        assert blk.params == {"window": "hamming"}

    def test_timing_mode_runs_radar_chain(self):
        app = radar_model(4)
        glue = generate_glue(app, round_robin_mapping(app, 4), num_processors=4)
        runtime = SageRuntime.build(glue, cspi(), config=DEFAULT_CONFIG.timing_only())
        result = runtime.run(iterations=3)
        assert result.mean_latency > 0

    def test_atot_maps_radar_chain(self):
        app = radar_model(4)
        atot = optimize_mapping(app, cspi(), 4,
                                config=GaConfig(population=20, generations=5, seed=1))
        atot.mapping.validate(app, processor_count=4)


class TestVisualizerExport:
    @pytest.fixture(scope="class")
    def result(self):
        return run_radar(2, make_cpi([(9, 5)]))

    def test_csv_has_all_events(self, result):
        text = trace_to_csv(result.trace)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0][0] == "time"
        assert len(rows) - 1 == len(result.trace)

    def test_csv_writes_to_stream(self, result):
        buf = io.StringIO()
        trace_to_csv(result.trace, buf)
        assert buf.getvalue().startswith("time,")

    def test_json_roundtrips(self, result):
        doc = json.loads(trace_to_json(result.trace))
        assert doc["count"] == len(result.trace)
        kinds = {e["kind"] for e in doc["events"]}
        assert {"enter", "exit", "send", "arrive"} <= kinds

    def test_run_summary_fields(self, result):
        s = run_summary(result, processors=2)
        assert s["iterations"] == 1
        assert s["mean_latency_s"] > 0
        assert len(s["utilization"]) == 2
        assert "pc" in s["function_busy_s"]
        assert json.dumps(s)  # JSON-able
