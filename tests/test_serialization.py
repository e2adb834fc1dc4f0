"""Model serialization tests: the JSON 'DoME repository' round-trips."""

import io
import json

import numpy as np
import pytest

from repro.apps import MatrixProvider, benchmark_mapping, fft2d_model
from repro.core.codegen import generate_glue
from repro.core.model import (
    ApplicationModel,
    CompositeBlock,
    DataType,
    FunctionBlock,
    ModelError,
    application_from_dict,
    application_to_dict,
    cspi_hardware,
    cyclic,
    hardware_from_dict,
    hardware_to_dict,
    load_design,
    save_design,
    striped,
)
from repro.core.runtime import SageRuntime


MTYPE = DataType("m", "complex64", (32, 32))


def nested_app():
    app = ApplicationModel("nested")
    src = app.add_block(FunctionBlock("src", kernel="matrix_source", params={"n": 32}))
    src.add_out("out", MTYPE, striped(0))
    comp = CompositeBlock("stage")
    inner = comp.add_block(FunctionBlock("work", kernel="fft_rows", threads=2))
    inner.add_in("in", MTYPE, cyclic(0, block=2))
    inner.add_out("out", MTYPE, striped(0))
    comp.export(inner.port("in"), as_name="in")
    comp.export(inner.port("out"), as_name="out")
    app.add_block(comp)
    sink = app.add_block(FunctionBlock("sink", kernel="matrix_sink"))
    sink.add_in("in", MTYPE)
    app.connect(src.port("out"), comp.port("in"))
    app.connect(comp.port("out"), sink.port("in"))
    app.set_property("author", "test")
    inner.set_property("note", 7)
    return app


class TestApplicationRoundTrip:
    def test_structure_preserved(self):
        app = nested_app()
        restored = application_from_dict(application_to_dict(app))
        assert [i.path for i in restored.function_instances()] == [
            "src", "stage.work", "sink"
        ]
        arcs = [
            (s.qualified_name, d.qualified_name) for s, d in restored.flattened_arcs()
        ]
        assert ("src.out", "work.in") in arcs
        assert ("work.out", "sink.in") in arcs

    def test_striping_and_params_preserved(self):
        restored = application_from_dict(application_to_dict(nested_app()))
        work = restored.instance_by_path("stage.work")
        in_port = work.block.port("in")
        assert in_port.striping == cyclic(0, block=2)
        src = restored.instance_by_path("src")
        assert src.block.params == {"n": 32}

    def test_properties_preserved(self):
        restored = application_from_dict(application_to_dict(nested_app()))
        assert restored.get_property("author") == "test"
        assert restored.instance_by_path("stage.work").block.get_property("note") == 7

    def test_double_roundtrip_is_stable(self):
        d1 = application_to_dict(nested_app())
        d2 = application_to_dict(application_from_dict(d1))
        assert d1 == d2

    def test_is_json_serialisable(self):
        text = json.dumps(application_to_dict(nested_app()))
        assert "stage" in text

    def test_wrong_kind_rejected(self):
        with pytest.raises(ModelError, match="not a"):
            application_from_dict({"kind": "hardware", "format_version": 1})

    def test_wrong_version_rejected(self):
        doc = application_to_dict(nested_app())
        doc["format_version"] = 99
        with pytest.raises(ModelError, match="format version"):
            application_from_dict(doc)


class TestHardwareRoundTrip:
    def test_cspi_roundtrip(self):
        hw = cspi_hardware(nodes=6)
        restored = hardware_from_dict(hardware_to_dict(hw))
        assert restored.processor_count == 6
        assert restored.board_map() == hw.board_map()
        assert restored.fabric.inter_board.bandwidth == hw.fabric.inter_board.bandwidth
        assert restored.processors()[0].cpu == hw.processors()[0].cpu

    def test_double_roundtrip_stable(self):
        d1 = hardware_to_dict(cspi_hardware(nodes=8))
        d2 = hardware_to_dict(hardware_from_dict(d1))
        assert d1 == d2


class TestDesignDocument:
    def test_save_load_file(self, tmp_path):
        app = fft2d_model(32, 2)
        hw = cspi_hardware(nodes=2)
        mapping = benchmark_mapping(app, 2)
        path = str(tmp_path / "design.json")
        save_design(path, app, hardware=hw, mapping=mapping)
        app2, hw2, mapping2 = load_design(path)
        assert app2.name == app.name
        assert hw2.processor_count == 2
        assert mapping2 == mapping

    def test_save_load_stream_without_optionals(self):
        app = fft2d_model(32, 2)
        buf = io.StringIO()
        save_design(buf, app)
        buf.seek(0)
        app2, hw2, mapping2 = load_design(buf)
        assert app2.name == app.name
        assert hw2 is None and mapping2 is None

    def test_loaded_design_executes_identically(self, tmp_path):
        """The acid test: a design saved, reloaded, and regenerated produces
        byte-identical glue and numerically identical results."""
        n, nodes = 32, 2
        app = fft2d_model(n, nodes)
        hw = cspi_hardware(nodes=nodes)
        mapping = benchmark_mapping(app, nodes)
        glue1 = generate_glue(app, mapping, num_processors=nodes)

        path = str(tmp_path / "design.json")
        save_design(path, app, hardware=hw, mapping=mapping)
        app2, hw2, mapping2 = load_design(path)
        glue2 = generate_glue(app2, mapping2, num_processors=nodes)
        assert glue1.source == glue2.source

        runtime = SageRuntime.build(glue2, hw2)
        provider = MatrixProvider(n, seed=3)
        result = runtime.run(iterations=1, input_provider=provider)
        np.testing.assert_allclose(
            result.full_result(0), np.fft.fft2(provider(0)), atol=1e-1
        )
