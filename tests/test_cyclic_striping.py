"""Cyclic / block-cyclic distribution tests: the §2 'complex data
distribution patterns' extension, from region algebra to end-to-end runs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import MatrixProvider, benchmark_mapping
from repro.core.codegen import generate_glue
from repro.core.model import (
    ApplicationModel,
    DataType,
    FunctionBlock,
    REPLICATED,
    cyclic,
    striped,
    validate_application,
)
from repro.core.runtime import (
    RuntimeBuffer,
    SageRuntime,
    message_plan,
    region_elems,
    thread_region,
)
from repro.machine import cspi


class TestCyclicMessagePlan:
    def test_striped_to_cyclic_is_many_to_many(self):
        plan = message_plan((8, 4), 8, striped(0), 2, cyclic(0), 2)
        # striped thread 0 owns rows 0-3; cyclic thread 0 owns rows 0,2,4,6:
        # every (s, d) pair exchanges two rows.
        pairs = {(m.src_thread, m.dst_thread): m for m in plan}
        assert set(pairs) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        for m in plan:
            assert m.nbytes == 2 * 4 * 8

    def test_cyclic_to_same_cyclic_is_local(self):
        plan = message_plan((8, 4), 8, cyclic(0), 4, cyclic(0), 4)
        assert all(m.src_thread == m.dst_thread for m in plan)

    def test_cyclic_different_blocks_redistribute(self):
        plan = message_plan((8,), 8, cyclic(0, block=1), 2, cyclic(0, block=2), 2)
        # block-1 evens/odds vs block-2 [0,1,4,5]/[2,3,6,7]
        pairs = {(m.src_thread, m.dst_thread) for m in plan}
        assert pairs == {(0, 0), (0, 1), (1, 0), (1, 1)}

    @given(
        st.sampled_from([8, 16, 32]),
        st.integers(1, 4),
        st.integers(1, 4),
        st.integers(1, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_cyclic_plan_exactly_covers_destinations(self, n, st_, dt, block):
        plan = message_plan((n, n), 8, cyclic(0, block=block), st_, striped(1), dt)
        for d in range(dt):
            need = thread_region((n, n), striped(1), dt, d)
            got = sum(m.nbytes for m in plan if m.dst_thread == d)
            assert got == region_elems(need) * 8


class TestCyclicBufferDataPath:
    def make_buffer(self, src_striping, dst_striping, src_threads, dst_threads):
        return RuntimeBuffer(
            {
                "id": 0, "name": "x", "src_function": 0, "src_port": "o",
                "dst_function": 1, "dst_port": "i", "dtype": "float64",
                "shape": (8, 4), "elem_bytes": 8, "total_bytes": 8 * 4 * 8,
                "src_striping": src_striping.to_dict(),
                "dst_striping": dst_striping.to_dict(),
                "src_threads": src_threads, "dst_threads": dst_threads,
            }
        )

    def test_cyclic_write_read_roundtrip(self):
        buf = self.make_buffer(cyclic(0), cyclic(0), 2, 2)
        full = np.arange(32, dtype=np.float64).reshape(8, 4)
        buf.write(0, 0, full[0::2])
        buf.write(0, 1, full[1::2])
        np.testing.assert_array_equal(buf.read(0, 0), full[0::2])
        np.testing.assert_array_equal(buf.read(0, 1), full[1::2])

    def test_striped_to_cyclic_reshuffle(self):
        buf = self.make_buffer(striped(0), cyclic(0), 2, 2)
        full = np.arange(32, dtype=np.float64).reshape(8, 4)
        buf.write(0, 0, full[:4])
        buf.write(0, 1, full[4:])
        np.testing.assert_array_equal(buf.read(0, 0), full[0::2])
        np.testing.assert_array_equal(buf.read(0, 1), full[1::2])

    def test_block_cyclic_axis1(self):
        buf = RuntimeBuffer(
            {
                "id": 0, "name": "x", "src_function": 0, "src_port": "o",
                "dst_function": 1, "dst_port": "i", "dtype": "float64",
                "shape": (4, 8), "elem_bytes": 8, "total_bytes": 4 * 8 * 8,
                "src_striping": REPLICATED.to_dict(),
                "dst_striping": cyclic(1, block=2).to_dict(),
                "src_threads": 1, "dst_threads": 2,
            }
        )
        full = np.arange(32, dtype=np.float64).reshape(4, 8)
        buf.write(0, 0, full)
        np.testing.assert_array_equal(buf.read(0, 0), full[:, [0, 1, 4, 5]])
        np.testing.assert_array_equal(buf.read(0, 1), full[:, [2, 3, 6, 7]])


def cyclic_fft_model(n: int, nodes: int) -> ApplicationModel:
    """2D FFT with *cyclic* row distribution for the row pass.

    Row FFTs are row-independent, so a cyclic layout is numerically
    equivalent to the block layout — the redistribution machinery has to
    work harder, which is the point of the test.
    """
    t = DataType(f"m{n}", "complex64", (n, n))
    app = ApplicationModel(f"cyclic_fft_{n}_{nodes}")
    src = app.add_block(FunctionBlock("src", kernel="matrix_source", threads=nodes,
                                      params={"n": n}))
    src.add_out("out", t, striped(0))
    rowfft = app.add_block(FunctionBlock("rowfft", kernel="fft_rows", threads=nodes))
    rowfft.add_in("in", t, cyclic(0))
    rowfft.add_out("out", t, cyclic(0))
    colfft = app.add_block(FunctionBlock("colfft", kernel="fft_cols", threads=nodes))
    colfft.add_in("in", t, striped(1))
    colfft.add_out("out", t, striped(1))
    sink = app.add_block(FunctionBlock("sink", kernel="matrix_sink", threads=nodes))
    sink.add_in("in", t, striped(1))
    app.connect(src.port("out"), rowfft.port("in"))
    app.connect(rowfft.port("out"), colfft.port("in"))
    app.connect(colfft.port("out"), sink.port("in"))
    return app


class TestCyclicEndToEnd:
    @pytest.mark.parametrize("nodes", [1, 2, 4])
    def test_cyclic_row_fft_matches_numpy(self, nodes):
        n = 32
        provider = MatrixProvider(n, seed=9)
        app = cyclic_fft_model(n, nodes)
        mapping = benchmark_mapping(app, nodes)
        glue = generate_glue(app, mapping, num_processors=nodes)
        runtime = SageRuntime.build(glue, cspi())
        result = runtime.run(iterations=1, input_provider=provider)
        np.testing.assert_allclose(
            result.full_result(0), np.fft.fft2(provider(0)), atol=2e-1
        )

    def test_glue_carries_cyclic_block(self):
        app = cyclic_fft_model(32, 2)
        glue = generate_glue(app, benchmark_mapping(app, 2), num_processors=2)
        buf = glue.logical_buffers[0]  # src -> rowfft
        assert buf["dst_striping"] == {"kind": "cyclic", "axis": 0, "block": 1}


class TestCyclicValidation:
    def test_more_threads_than_cyclic_blocks_warns(self):
        t = DataType("tiny", "float32", (2, 8))
        app = ApplicationModel("w")
        src = app.add_block(FunctionBlock("src", kernel="matrix_source"))
        src.add_out("out", t)
        work = app.add_block(FunctionBlock("work", kernel="identity", threads=4))
        work.add_in("in", t, cyclic(0))
        work.add_out("out", t, cyclic(0))
        snk = app.add_block(FunctionBlock("snk", kernel="matrix_sink"))
        snk.add_in("in", t)
        app.connect(src.port("out"), work.port("in"))
        app.connect(work.port("out"), snk.port("in"))
        issues = validate_application(app, strict=False)
        assert any("own no data" in i.message for i in issues)

    def test_bad_block_rejected(self):
        with pytest.raises(ValueError):
            cyclic(0, block=0)

    def test_striping_dict_roundtrip_with_block(self):
        from repro.core.model import Striping

        s = cyclic(1, block=4)
        assert Striping.from_dict(s.to_dict()) == s
        assert "block=4" in s.describe()
