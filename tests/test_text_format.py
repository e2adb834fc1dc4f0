"""Textual Designer format tests: parse, render, round-trip, execute."""

import numpy as np
import pytest

from repro.apps import MatrixProvider, benchmark_mapping, fft2d_model
from repro.core.codegen import generate_glue
from repro.core.model import (
    ModelError,
    TextFormatError,
    cyclic,
    parse_application,
    render_application,
    striped,
    validate_application,
)
from repro.core.runtime import SageRuntime
from repro.machine import cspi

FFT_TEXT = """
# the parallel 2D FFT, as a Designer text capture
application fft2d_text

datatype cm complex64 32x32

block src kernel=matrix_source threads=2 param.n=32
  out out cm striped(0)

block rowfft kernel=fft_rows threads=2
  in in cm striped(0)
  out out cm striped(0)

block colfft kernel=fft_cols threads=2
  in in cm striped(1)
  out out cm striped(1)

block sink kernel=matrix_sink threads=2
  in in cm striped(1)

connect src.out -> rowfft.in
connect rowfft.out -> colfft.in
connect colfft.out -> sink.in
"""


class TestParsing:
    def test_structure(self):
        app = parse_application(FFT_TEXT)
        assert app.name == "fft2d_text"
        assert [i.path for i in app.function_instances()] == [
            "src", "rowfft", "colfft", "sink"
        ]
        assert app.instance_by_path("src").block.params == {"n": 32}
        assert app.children["colfft"].port("in").striping == striped(1)
        validate_application(app)

    def test_cyclic_striping_forms(self):
        text = FFT_TEXT.replace("in in cm striped(0)", "in in cm cyclic(0)")
        app = parse_application(text)
        assert app.children["rowfft"].port("in").striping == cyclic(0)
        text2 = FFT_TEXT.replace("in in cm striped(0)", "in in cm cyclic(0, 4)")
        app2 = parse_application(text2)
        assert app2.children["rowfft"].port("in").striping == cyclic(0, block=4)

    def test_param_value_types(self):
        text = """
application p
datatype v float32 8x8
block b kernel=k param.i=3 param.f=2.5 param.s=hello param.t=true
  out o v replicated
block c kernel=matrix_sink
  in i v replicated
connect b.o -> c.i
"""
        app = parse_application(text)
        assert app.children["b"].params == {"i": 3, "f": 2.5, "s": "hello", "t": True}

    @pytest.mark.parametrize("bad,msg", [
        ("application a\napplication b", "duplicate"),
        ("block x kernel=k", "before 'application'"),
        ("application a\nblock x", "kernel"),
        ("application a\ndatatype t complex64 4y4", "bad datatype"),
        ("application a\nin p t replicated", "before any block"),
        ("application a\nfoo bar", "unknown keyword"),
        ("application a\nconnect a.b c.d", "usage: connect"),
        ("", "no 'application'"),
    ])
    def test_syntax_errors(self, bad, msg):
        with pytest.raises(TextFormatError, match=msg):
            parse_application(bad)

    def test_bad_striping(self):
        text = FFT_TEXT.replace("striped(0)", "diagonal(2)", 1)
        with pytest.raises(TextFormatError, match="bad striping"):
            parse_application(text)

    def test_unknown_datatype_reference(self):
        text = FFT_TEXT.replace("out out cm striped(0)", "out out ghost striped(0)", 1)
        with pytest.raises(TextFormatError, match="unknown datatype"):
            parse_application(text)

    def test_unknown_block_in_connect(self):
        text = FFT_TEXT + "\nconnect ghost.out -> sink.in\n"
        with pytest.raises(TextFormatError, match="unknown block"):
            parse_application(text)

    def test_line_numbers_reported(self):
        try:
            parse_application("application a\nbogus line here")
        except TextFormatError as e:
            assert e.line_no == 2
        else:
            pytest.fail("expected TextFormatError")


class TestRoundTrip:
    def test_parse_render_parse_stable(self):
        app1 = parse_application(FFT_TEXT)
        text = render_application(app1)
        app2 = parse_application(text)
        assert render_application(app2) == text

    def test_render_programmatic_model(self):
        app = fft2d_model(64, 4)
        text = render_application(app)
        restored = parse_application(text)
        assert [i.path for i in restored.function_instances()] == [
            i.path for i in app.function_instances()
        ]
        # glue generated from both is identical up to the model name
        g1 = generate_glue(app, benchmark_mapping(app, 4), num_processors=4)
        g2 = generate_glue(restored, benchmark_mapping(restored, 4), num_processors=4)
        assert g1.function_table == g2.function_table
        assert g1.logical_buffers == g2.logical_buffers

    def test_hierarchical_models_rejected(self):
        from repro.core.model import ApplicationModel, CompositeBlock

        app = ApplicationModel("h")
        app.add_block(CompositeBlock("inner"))
        with pytest.raises(ModelError, match="flat models only"):
            render_application(app)


class TestTextModelExecutes:
    def test_parsed_model_runs_correctly(self):
        app = parse_application(FFT_TEXT)
        nodes = 2
        glue = generate_glue(app, benchmark_mapping(app, nodes), num_processors=nodes)
        runtime = SageRuntime.build(glue, cspi())
        provider = MatrixProvider(32, seed=2)
        result = runtime.run(iterations=1, input_provider=provider)
        np.testing.assert_allclose(
            result.full_result(0), np.fft.fft2(provider(0)), atol=1e-1
        )
