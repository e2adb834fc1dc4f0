"""Striping region algebra, phantom arrays, and buffer-manager tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import REPLICATED, cyclic, striped
from repro.kernels.cornerturn import row_block_bounds
from repro.core.runtime import (
    AxisIndices,
    BufferError,
    PhantomArray,
    RuntimeBuffer,
    intersect,
    materialize,
    message_plan,
    region_elems,
    region_shape,
    thread_region,
)


def box(*bounds):
    """Shorthand: a contiguous region from (start, stop) pairs."""
    return tuple(AxisIndices.of_range(a, b) for a, b in bounds)


class TestAxisIndices:
    def test_range_basics(self):
        ax = AxisIndices.of_range(2, 6)
        assert ax.count() == 4
        assert ax.is_contiguous
        assert list(ax.as_array()) == [2, 3, 4, 5]
        assert ax.indexer() == slice(2, 6)

    def test_index_set_basics(self):
        ax = AxisIndices.of_indices([0, 2, 4])
        assert ax.count() == 3
        assert not ax.is_contiguous

    def test_contiguous_indices_collapse_to_range(self):
        ax = AxisIndices.of_indices([3, 4, 5])
        assert ax.is_contiguous
        assert (ax.start, ax.stop) == (3, 6)

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError):
            AxisIndices.of_indices([3, 3])
        with pytest.raises(ValueError):
            AxisIndices.of_indices([5, 2])

    def test_intersect_range_range(self):
        assert AxisIndices.of_range(0, 4).intersect(AxisIndices.of_range(2, 6)) == (
            AxisIndices.of_range(2, 4)
        )
        assert AxisIndices.of_range(0, 4).intersect(AxisIndices.of_range(4, 8)) is None

    def test_intersect_cyclic_range(self):
        evens = AxisIndices.of_indices([0, 2, 4, 6])
        assert evens.intersect(AxisIndices.of_range(0, 4)) == AxisIndices.of_indices([0, 2])

    def test_intersect_cyclic_cyclic_disjoint(self):
        evens = AxisIndices.of_indices([0, 2, 4])
        odds = AxisIndices.of_indices([1, 3, 5])
        assert evens.intersect(odds) is None

    def test_positions_of(self):
        ax = AxisIndices.of_indices([1, 3, 5, 7])
        sub = AxisIndices.of_indices([3, 7])
        assert list(ax.positions_of(sub)) == [1, 3]

    def test_positions_of_not_contained(self):
        with pytest.raises(ValueError):
            AxisIndices.of_indices([1, 3]).positions_of(AxisIndices.of_indices([2]))

    def test_hash_and_eq(self):
        assert AxisIndices.of_range(0, 3) == AxisIndices.of_indices([0, 1, 2])
        assert hash(AxisIndices.of_range(0, 3)) == hash(AxisIndices.of_indices([0, 1, 2]))
        assert AxisIndices.of_range(0, 3) != AxisIndices.of_indices([0, 1, 3])


class TestThreadRegion:
    def test_replicated_full_box(self):
        assert thread_region((8, 6), REPLICATED, 4, 2) == box((0, 8), (0, 6))

    def test_striped_axis0(self):
        assert thread_region((8, 6), striped(0), 4, 1) == box((2, 4), (0, 6))

    def test_striped_axis1(self):
        assert thread_region((8, 6), striped(1), 3, 2) == box((0, 8), (4, 6))

    def test_uneven_division_leading_threads_bigger(self):
        regions = [thread_region((10,), striped(0), 4, t) for t in range(4)]
        sizes = [r[0].count() for r in regions]
        assert sizes == [3, 3, 2, 2]

    def test_cyclic_round_robin(self):
        r0 = thread_region((8,), cyclic(0), 2, 0)
        r1 = thread_region((8,), cyclic(0), 2, 1)
        assert list(r0[0].as_array()) == [0, 2, 4, 6]
        assert list(r1[0].as_array()) == [1, 3, 5, 7]

    def test_block_cyclic(self):
        r0 = thread_region((8,), cyclic(0, block=2), 2, 0)
        assert list(r0[0].as_array()) == [0, 1, 4, 5]

    def test_cyclic_thread_with_no_data(self):
        r3 = thread_region((2,), cyclic(0), 4, 3)
        assert r3[0].count() == 0

    def test_out_of_range_thread(self):
        with pytest.raises(ValueError):
            thread_region((8,), striped(0), 2, 2)

    def test_axis_out_of_range(self):
        with pytest.raises(ValueError):
            thread_region((8,), striped(1), 2, 0)

    @given(st.integers(1, 64), st.integers(1, 8), st.integers(0, 1))
    @settings(max_examples=60, deadline=None)
    def test_striped_regions_partition_exactly(self, extent, threads, axis):
        shape = (extent, 16) if axis == 0 else (16, extent)
        if threads > extent:
            threads = extent
        regions = [
            thread_region(shape, striped(axis), threads, t) for t in range(threads)
        ]
        # Disjoint along the axis, covering [0, extent), and the blocks the
        # hand-coded kernels divide rows into
        spans = sorted((r[axis].start, r[axis].stop) for r in regions)
        assert spans == row_block_bounds(extent, threads)
        assert spans[0][0] == 0 and spans[-1][1] == extent
        for (_a1, b1), (a2, _) in zip(spans, spans[1:]):
            assert b1 == a2
        # Total elements == full logical size
        total = sum(region_elems(r) for r in regions)
        assert total == shape[0] * shape[1]

    @given(st.integers(1, 64), st.integers(1, 8), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_cyclic_regions_partition_exactly(self, extent, threads, block):
        import numpy as np

        regions = [
            thread_region((extent,), cyclic(0, block=block), threads, t)
            for t in range(threads)
        ]
        all_indices = np.concatenate([r[0].as_array() for r in regions])
        assert sorted(all_indices) == list(range(extent))


class TestIntersect:
    def test_overlap(self):
        assert intersect(box((0, 4), (0, 8)), box((2, 6), (0, 8))) == box((2, 4), (0, 8))

    def test_disjoint_is_none(self):
        assert intersect(box((0, 4)), box((4, 8))) is None

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            intersect(box((0, 1)), box((0, 1), (0, 1)))

    def test_region_shape(self):
        assert region_shape(box((2, 4), (0, 8))) == (2, 8)


class TestMessagePlan:
    def test_same_axis_same_threads_is_one_to_one(self):
        plan = message_plan((8, 8), 8, striped(0), 4, striped(0), 4)
        assert len(plan) == 4
        assert all(m.src_thread == m.dst_thread for m in plan)

    def test_cross_axis_is_all_to_all(self):
        plan = message_plan((8, 8), 8, striped(0), 4, striped(1), 4)
        pairs = {(m.src_thread, m.dst_thread) for m in plan}
        assert pairs == {(s, d) for s in range(4) for d in range(4)}
        # Each tile is 2x2 complex64
        assert all(m.nbytes == 2 * 2 * 8 for m in plan)

    def test_scatter_from_single_source(self):
        plan = message_plan((8, 8), 8, striped(0), 1, striped(0), 4)
        assert len(plan) == 4
        assert all(m.src_thread == 0 for m in plan)
        assert {m.dst_thread for m in plan} == {0, 1, 2, 3}

    def test_gather_to_single_sink(self):
        plan = message_plan((8, 8), 8, striped(1), 4, REPLICATED, 1)
        assert len(plan) == 4
        assert all(m.dst_thread == 0 for m in plan)

    def test_replicated_source_spreads_load(self):
        plan = message_plan((8, 8), 8, REPLICATED, 2, striped(0), 4)
        # destinations 0..3 pull from source threads d % 2
        assert [(m.src_thread, m.dst_thread) for m in plan] == [
            (0, 0), (1, 1), (0, 2), (1, 3)
        ]

    def test_replicated_to_replicated(self):
        plan = message_plan((4,), 4, REPLICATED, 1, REPLICATED, 3)
        assert len(plan) == 3
        assert all(m.nbytes == 16 for m in plan)

    @given(
        st.sampled_from([4, 8, 16, 32]),
        st.integers(1, 8),
        st.integers(1, 8),
        st.sampled_from([(0, 0), (0, 1), (1, 0), (1, 1)]),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_dst_region_exactly_covered(self, n, st_, dt, axes):
        """Property: the union of message regions per destination thread is a
        disjoint exact cover of that thread's region."""
        src_threads = min(st_, n)
        dst_threads = min(dt, n)
        sa, da = axes
        plan = message_plan((n, n), 8, striped(sa), src_threads, striped(da), dst_threads)
        for d in range(dst_threads):
            need = thread_region((n, n), striped(da), dst_threads, d)
            pieces = [m.region for m in plan if m.dst_thread == d]
            got = sum(region_elems(r) for r in pieces)
            assert got == region_elems(need)
            # every piece inside the needed region
            for r in pieces:
                assert intersect(r, need) == r


class TestPhantomArray:
    def test_metadata(self):
        p = PhantomArray((4, 8), "complex64")
        assert p.size == 32
        assert p.nbytes == 256
        assert p.ndim == 2
        assert p.T.shape == (8, 4)

    def test_slicing(self):
        p = PhantomArray((8, 6))
        assert p[2:4].shape == (2, 6)
        assert p[2:4, 1:3].shape == (2, 2)
        assert p[0].shape == (6,)

    def test_slice_step_rejected(self):
        with pytest.raises(ValueError):
            PhantomArray((8,))[::2]

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            PhantomArray((4,))[9]
        with pytest.raises(IndexError):
            PhantomArray((4,))[0, 0]

    def test_reshape(self):
        assert PhantomArray((4, 4)).reshape(16).shape == (16,)
        with pytest.raises(ValueError):
            PhantomArray((4, 4)).reshape(5)

    def test_materialize(self):
        arr = materialize(PhantomArray((2, 2), "float32"))
        assert isinstance(arr, np.ndarray)
        assert arr.shape == (2, 2) and not arr.any()

    def test_equality_and_copy(self):
        a = PhantomArray((2, 3))
        assert a == a.copy()
        assert a.astype("float32") != a


def make_buffer(execute_data=True, src_threads=2, dst_threads=2, src_axis=0, dst_axis=0):
    spec = {
        "id": 0,
        "name": "a.out->b.in",
        "src_function": 0,
        "src_port": "out",
        "dst_function": 1,
        "dst_port": "in",
        "dtype": "complex64",
        "shape": (8, 8),
        "elem_bytes": 8,
        "total_bytes": 8 * 8 * 8,
        "src_striping": {"kind": "striped", "axis": src_axis},
        "dst_striping": {"kind": "striped", "axis": dst_axis},
        "src_threads": src_threads,
        "dst_threads": dst_threads,
    }
    return RuntimeBuffer(spec, execute_data=execute_data)


class TestRuntimeBuffer:
    def test_write_then_read_roundtrips(self):
        buf = make_buffer()
        rng = np.random.default_rng(0)
        full = rng.normal(size=(8, 8)).astype("complex64")
        buf.write(0, 0, full[:4])
        buf.write(0, 1, full[4:])
        np.testing.assert_array_equal(buf.read(0, 0), full[:4])
        np.testing.assert_array_equal(buf.read(0, 1), full[4:])

    def test_corner_turn_redistribution(self):
        buf = make_buffer(src_axis=0, dst_axis=1)
        rng = np.random.default_rng(1)
        full = rng.normal(size=(8, 8)).astype("complex64")
        buf.write(0, 0, full[:4])
        buf.write(0, 1, full[4:])
        np.testing.assert_array_equal(buf.read(0, 0), full[:, :4])
        np.testing.assert_array_equal(buf.read(0, 1), full[:, 4:])

    def test_read_returns_copy(self):
        buf = make_buffer()
        buf.write(0, 0, np.ones((4, 8), dtype="complex64"))
        buf.write(0, 1, np.ones((4, 8), dtype="complex64"))
        out = buf.read(0, 0)
        out[:] = 0
        # storage was freed only after both reads; second read unaffected
        np.testing.assert_array_equal(buf.read(0, 1), np.ones((4, 8)))

    def test_wrong_shape_write_rejected(self):
        buf = make_buffer()
        with pytest.raises(BufferError, match="region needs"):
            buf.write(0, 0, np.ones((3, 8)))

    def test_read_before_write_rejected(self):
        with pytest.raises(BufferError, match="before any write"):
            make_buffer().read(0, 0)

    def test_storage_freed_after_all_reads(self):
        buf = make_buffer()
        buf.write(0, 0, np.zeros((4, 8), dtype="complex64"))
        buf.write(0, 1, np.zeros((4, 8), dtype="complex64"))
        assert buf.live_iterations == 1
        buf.read(0, 0)
        buf.read(0, 1)
        assert buf.live_iterations == 0

    def test_multiple_iterations_in_flight(self):
        buf = make_buffer()
        for k in range(3):
            buf.write(k, 0, np.full((4, 8), k, dtype="complex64"))
            buf.write(k, 1, np.full((4, 8), k, dtype="complex64"))
        assert buf.live_iterations == 3
        assert buf.read(1, 0)[0, 0] == 1

    def test_phantom_mode_checks_shapes_only(self):
        buf = make_buffer(execute_data=False)
        buf.write(0, 0, PhantomArray((4, 8)))
        buf.write(0, 1, PhantomArray((4, 8)))
        out = buf.read(0, 0)
        assert isinstance(out, PhantomArray)
        assert out.shape == (4, 8)

    def test_phantom_mode_wrong_shape_rejected(self):
        buf = make_buffer(execute_data=False)
        with pytest.raises(BufferError):
            buf.write(0, 0, PhantomArray((5, 8)))

    def test_inconsistent_total_bytes_rejected(self):
        spec = {
            "id": 0, "name": "x", "src_function": 0, "src_port": "o",
            "dst_function": 1, "dst_port": "i", "dtype": "complex64",
            "shape": (4, 4), "elem_bytes": 8, "total_bytes": 999,
            "src_striping": {"kind": "replicated", "axis": 0},
            "dst_striping": {"kind": "replicated", "axis": 0},
            "src_threads": 1, "dst_threads": 1,
        }
        with pytest.raises(BufferError, match="inconsistent"):
            RuntimeBuffer(spec)
