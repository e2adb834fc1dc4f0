"""Data-striping region algebra.

§2: *"the port striping conventions enable the system designer to define
complex data distribution patterns between functions in a multi-threaded
environment"* and *"The runtime is responsible for striping the data based
on the model information specified in the glue-code."*

This module is that striping logic.  A port's striping declaration plus its
function's thread count determine which *region* of the logical buffer each
thread owns; regions are per-axis index sets supporting three layouts:

* ``replicated`` — every thread owns the full extent,
* ``striped``    — contiguous block decomposition (remainder on leading
  threads),
* ``cyclic``     — (block-)cyclic round-robin decomposition, the "complex"
  pattern (e.g. cyclic row distribution for load-balanced row kernels).

For a (source port, destination port) pair, :func:`message_plan` computes
the exact redistribution: which sub-region every source thread ships to
every destination thread.  Cross-axis plans are where the corner turn falls
out naturally: axis-0 blocks against axis-1 blocks intersect in a full
p x p grid of tiles — an all-to-all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from ...perf.cache import named_cache
from ...perf.registry import REGISTRY
from ..model.datatypes import Striping

__all__ = [
    "AxisIndices",
    "Region",
    "thread_region",
    "intersect",
    "message_plan",
    "compute_message_plan",
    "PlannedMessage",
    "region_elems",
    "region_shape",
    "region_indexer",
    "plan_remote_traffic",
]


class AxisIndices:
    """Index ownership along one axis: a contiguous range or an index set.

    The contiguous case is the fast path (plain slices); cyclic layouts use
    an explicit sorted index array.
    """

    __slots__ = ("start", "stop", "indices")

    def __init__(self, start: int = 0, stop: int = 0,
                 indices: Optional[np.ndarray] = None):
        if indices is not None:
            arr = np.asarray(indices, dtype=np.int64)
            if arr.ndim != 1:
                raise ValueError("indices must be 1-D")
            if arr.size and np.any(np.diff(arr) <= 0):
                raise ValueError("indices must be strictly increasing")
            # Collapse contiguous index sets to ranges (fast path + canonical
            # form, so equality and hashing behave).
            if arr.size and arr[-1] - arr[0] + 1 == arr.size:
                self.start, self.stop, self.indices = int(arr[0]), int(arr[-1]) + 1, None
            elif arr.size == 0:
                self.start = self.stop = 0
                self.indices = None
            else:
                self.start, self.stop, self.indices = int(arr[0]), int(arr[-1]) + 1, arr
        else:
            if stop < start:
                raise ValueError(f"stop {stop} < start {start}")
            self.start, self.stop, self.indices = int(start), int(stop), None

    # -- factories ---------------------------------------------------------
    @staticmethod
    def full(extent: int) -> "AxisIndices":
        return AxisIndices(0, extent)

    @staticmethod
    def of_range(start: int, stop: int) -> "AxisIndices":
        return AxisIndices(start, stop)

    @staticmethod
    def of_indices(indices) -> "AxisIndices":
        return AxisIndices(indices=np.asarray(indices))

    # -- basic properties -----------------------------------------------------
    @property
    def is_contiguous(self) -> bool:
        return self.indices is None

    def count(self) -> int:
        if self.indices is not None:
            return int(self.indices.size)
        return max(0, self.stop - self.start)

    def as_array(self) -> np.ndarray:
        if self.indices is not None:
            return self.indices
        return np.arange(self.start, self.stop, dtype=np.int64)

    def indexer(self) -> Union[slice, np.ndarray]:
        """Something usable to index a numpy axis."""
        if self.indices is not None:
            return self.indices
        return slice(self.start, self.stop)

    # -- algebra ------------------------------------------------------------
    def intersect(self, other: "AxisIndices") -> Optional["AxisIndices"]:
        if self.is_contiguous and other.is_contiguous:
            lo, hi = max(self.start, other.start), min(self.stop, other.stop)
            if lo >= hi:
                return None
            return AxisIndices(lo, hi)
        common = np.intersect1d(self.as_array(), other.as_array(), assume_unique=True)
        if common.size == 0:
            return None
        return AxisIndices(indices=common)

    def contains(self, other: "AxisIndices") -> bool:
        inter = self.intersect(other)
        return inter is not None and inter.count() == other.count()

    def positions_of(self, sub: "AxisIndices") -> np.ndarray:
        """Positions of ``sub``'s indices inside this axis set's ordering."""
        mine = self.as_array()
        theirs = sub.as_array()
        pos = np.searchsorted(mine, theirs)
        if np.any(pos >= mine.size) or np.any(mine[pos] != theirs):
            raise ValueError("sub indices are not contained in this axis set")
        return pos

    # -- value semantics -------------------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, AxisIndices):
            return NotImplemented
        if self.is_contiguous != other.is_contiguous:
            return False
        if self.is_contiguous:
            return (self.start, self.stop) == (other.start, other.stop)
        return np.array_equal(self.indices, other.indices)

    def __hash__(self):
        if self.is_contiguous:
            return hash(("range", self.start, self.stop))
        return hash(("idx", self.indices.tobytes()))

    def __repr__(self):
        if self.is_contiguous:
            return f"[{self.start}:{self.stop}]"
        return f"[{self.count()} indices {self.start}..{self.stop - 1}]"


#: A region is one AxisIndices per axis of the logical shape.
Region = Tuple[AxisIndices, ...]


#: Message plans are pure functions of hashable striping parameters, so they
#: are memoized process-wide (see repro.perf.cache for invalidation).
_PLAN_CACHE = named_cache("striping.message_plan", maxsize=1024)


def thread_region(shape: Tuple[int, ...], striping: Striping, threads: int, t: int) -> Region:
    """The region of the logical data that thread ``t`` of ``threads`` owns."""
    if threads <= 0:
        raise ValueError("threads must be positive")
    if not (0 <= t < threads):
        raise ValueError(f"thread {t} out of range [0, {threads})")
    if striping.kind == "replicated":
        return tuple(AxisIndices.full(d) for d in shape)
    axis = striping.axis
    if axis >= len(shape):
        raise ValueError(f"stripe axis {axis} out of range for shape {shape}")
    extent = shape[axis]
    if striping.kind == "striped":
        # Entry t of row_block_bounds(extent, threads), without building
        # the other threads' entries.
        base, extra = divmod(extent, threads)
        owned = AxisIndices(t * base + min(t, extra),
                            (t + 1) * base + min(t + 1, extra))
    elif striping.kind == "cyclic":
        block = striping.block
        blocks = np.arange(extent) // block
        owned = AxisIndices.of_indices(np.nonzero(blocks % threads == t)[0])
        if owned.count() == 0:
            owned = AxisIndices(0, 0)
    else:  # pragma: no cover - Striping validates kinds
        raise ValueError(f"unknown striping kind {striping.kind!r}")
    return tuple(
        owned if a == axis else AxisIndices.full(d) for a, d in enumerate(shape)
    )


def region_elems(region: Region) -> int:
    n = 1
    for ax in region:
        n *= ax.count()
    return n


def region_shape(region: Region) -> Tuple[int, ...]:
    return tuple(ax.count() for ax in region)


def region_indexer(region: Region):
    """An indexer tuple addressing the region inside the full logical array.

    Mixed slice/array indexing in numpy has surprising semantics, so when
    any axis is non-contiguous we go through ``np.ix_`` on all axes.
    """
    if all(ax.is_contiguous for ax in region):
        return tuple(ax.indexer() for ax in region)
    return np.ix_(*[ax.as_array() for ax in region])


def intersect(r1: Region, r2: Region) -> Optional[Region]:
    """Region intersection; None when empty."""
    if len(r1) != len(r2):
        raise ValueError("rank mismatch")
    out = []
    for a1, a2 in zip(r1, r2):
        common = a1.intersect(a2)
        if common is None or common.count() == 0:
            return None
        out.append(common)
    return tuple(out)


@dataclass(frozen=True)
class PlannedMessage:
    """One hop of a redistribution: src thread -> dst thread, a region of data."""

    src_thread: int
    dst_thread: int
    region: Region
    nbytes: int


def message_plan(
    shape: Tuple[int, ...],
    elem_bytes: int,
    src_striping: Striping,
    src_threads: int,
    dst_striping: Striping,
    dst_threads: int,
) -> List[PlannedMessage]:
    """All messages needed to redistribute a logical buffer.

    Every destination thread must receive its full region exactly once.
    When the source is replicated (several threads hold the same data), the
    copy whose thread index matches ``d % src_threads`` supplies it, spreading
    the send load.

    Memoized on the full parameter tuple; the cached plan is returned as a
    shallow copy so callers may reorder their list without corrupting the
    cache (``PlannedMessage`` itself is frozen and shared).
    """
    key = (tuple(shape), elem_bytes, src_striping, src_threads,
           dst_striping, dst_threads)
    plan = _PLAN_CACHE.get(
        key,
        lambda: compute_message_plan(
            shape, elem_bytes, src_striping, src_threads,
            dst_striping, dst_threads,
        ),
    )
    return list(plan)


def compute_message_plan(
    shape: Tuple[int, ...],
    elem_bytes: int,
    src_striping: Striping,
    src_threads: int,
    dst_striping: Striping,
    dst_threads: int,
) -> List[PlannedMessage]:
    """Uncached :func:`message_plan`; the property tests compare the two."""
    plan: List[PlannedMessage] = []
    dst_regions = [
        thread_region(shape, dst_striping, dst_threads, d) for d in range(dst_threads)
    ]
    if src_striping.kind == "replicated":
        for d, need in enumerate(dst_regions):
            s = d % src_threads
            plan.append(PlannedMessage(s, d, need, region_elems(need) * elem_bytes))
        return plan
    src_regions = [
        thread_region(shape, src_striping, src_threads, s) for s in range(src_threads)
    ]
    for d, need in enumerate(dst_regions):
        for s, have in enumerate(src_regions):
            piece = intersect(have, need)
            if piece is not None:
                plan.append(
                    PlannedMessage(s, d, piece, region_elems(piece) * elem_bytes)
                )
    return plan


def plan_remote_traffic(plan, src_proc_of, dst_proc_of):
    """Per-thread bytes of ``plan`` that cross processors under a placement.

    ``src_proc_of(thread)`` / ``dst_proc_of(thread)`` give the processor of
    the sending / receiving thread.  Returns two dicts,
    ``(send_bytes_by_src_thread, recv_bytes_by_dst_thread)``, counting only
    the hops whose endpoints land on different processors — the traffic the
    run-time must stage through the fabric.  The run-time recomputes it over
    every buffer at construction and after every re-placement (shrink, grow,
    straggler drain and restore).
    """
    send: dict = {}
    recv: dict = {}
    for msg in plan:
        if src_proc_of(msg.src_thread) != dst_proc_of(msg.dst_thread):
            send[msg.src_thread] = send.get(msg.src_thread, 0) + msg.nbytes
            recv[msg.dst_thread] = recv.get(msg.dst_thread, 0) + msg.nbytes
    REGISTRY.count("striping.replan_full_messages", len(plan))
    REGISTRY.count("striping.replan_full", 1)
    return send, recv
