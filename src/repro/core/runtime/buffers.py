"""Logical and physical buffer management.

§2: *"Located and shared between each port on the sender and receiver
functions is the SAGE notion of a logical buffer ... It contains the
striding information, total buffer size (before striding), thread
information (number and type). The runtime uses the logical buffer and the
striding information to create physical buffers for message transfer."*

:class:`RuntimeBuffer` is the live counterpart of one glue ``LOGICAL_BUFFERS``
entry: it owns the per-iteration backing storage, the striping regions of
every endpoint thread, and the message plan that redistributes data between
the sender's layout and the receiver's.

It is also the one derivation of "who sends what to whom" for everything
that reasons about a model without running it: :func:`logical_buffer_specs`
builds the specs straight from the model, :func:`buffer_views` wraps them
in phantom buffers, and :func:`remote_traffic_tables` /
:func:`endpoint_footprint` turn a placement into staging traffic and DRAM
bytes.  The static predictor, the Verifier's COMM/RECON passes, admission's
footprint check and AToT read these rather than re-deriving the plans.
:func:`ring_mirrors` and :func:`moved_region_transfers` are the one rule
for what a re-placement ships and from where, which the run-time executes
and RECON checks.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..model.application import ApplicationModel
from ..model.datatypes import Striping
from .phantom import PhantomArray
from .striping import (
    PlannedMessage,
    Region,
    message_plan,
    plan_remote_traffic,
    region_elems,
    region_indexer,
    region_shape,
    thread_region,
)

__all__ = [
    "RuntimeBuffer",
    "BufferError",
    "moved_region_transfers",
    "logical_buffer_specs",
    "buffer_views",
    "remote_traffic_tables",
    "endpoint_footprint",
]


class BufferError(RuntimeError):
    """Raised for misuse of the buffer manager."""


def ring_mirrors(ring: Iterable[int], survivors: Set[int]) -> Dict[int, int]:
    """Where a lost processor's checkpoint copy is read after a shrink.

    Checkpoints are ring-mirrored: the copy of a processor's regions lives
    on the next processor after it, in ``ring`` order (the active set before
    the transition), that is in ``survivors``.  Returns ``{lost: mirror}``
    for every processor of ``ring`` outside ``survivors``.
    """
    ring = sorted(ring)
    mirrors: Dict[int, int] = {}
    for i, proc in enumerate(ring):
        if proc in survivors:
            continue
        for step in range(1, len(ring)):
            cand = ring[(i + step) % len(ring)]
            if cand in survivors:
                mirrors[proc] = cand
                break
    return mirrors


def moved_region_transfers(buffers, old_proc_of, new_proc_of,
                           mirrors: Optional[Dict[int, int]] = None):
    """Region moves implied by a re-placement of the buffers' endpoint threads.

    ``old_proc_of(function_id, thread)`` / ``new_proc_of(function_id,
    thread)`` give the placements before and after.  Returns ``(src,
    new_proc, nbytes, label)`` tuples, one per endpoint region whose owning
    thread changed processor — the checkpointed state that must travel when
    the mapping changes.  ``src`` is the old owner, or its entry in
    ``mirrors`` (:func:`ring_mirrors`) when the owner is lost; a live owner
    ships its own state.  Moves with ``src == new_proc`` or no bytes are
    kept: nothing travels for them, and callers filter them out.
    """
    mirrors = mirrors or {}
    out: List[Tuple[int, int, int, str]] = []
    for buf in buffers:
        for side, fid, threads, nbytes in (
            ("src", buf.src_function, buf.src_threads, buf.src_region_bytes),
            ("dst", buf.dst_function, buf.dst_threads, buf.dst_region_bytes),
        ):
            for t in range(threads):
                old, new = old_proc_of(fid, t), new_proc_of(fid, t)
                if old != new:
                    out.append((mirrors.get(old, old), new, nbytes(t),
                                f"{buf.name}.{side}[{t}]"))
    return out


def logical_buffer_specs(app: ApplicationModel) -> List[dict]:
    """Derive ``LOGICAL_BUFFERS``-shaped specs straight from the model.

    Mirrors what the glue scripts emit, without executing any Alter code, so
    the hazard checker can run on a model that fails other passes.  A spec's
    ``id`` is its arc's position in ``app.flattened_arcs()``; dangling arcs
    (an endpoint outside the model) are skipped — model validation reports
    them.  Shape and dtype are the producer port's.
    """
    by_block = {id(inst.block): inst for inst in app.function_instances()}
    specs: List[dict] = []
    for buffer_id, (src, dst) in enumerate(app.flattened_arcs()):
        src_inst = by_block.get(id(src.block))
        dst_inst = by_block.get(id(dst.block))
        if src_inst is None or dst_inst is None:
            continue
        dt = src.datatype
        specs.append(
            {
                "id": buffer_id,
                "name": f"{src_inst.path}.{src.name}->{dst_inst.path}.{dst.name}",
                "shape": tuple(dt.shape),
                "dtype": dt.dtype,
                "elem_bytes": dt.elem_bytes,
                "total_bytes": dt.total_bytes,
                "src_function": src_inst.function_id,
                "dst_function": dst_inst.function_id,
                "src_port": src.name,
                "dst_port": dst.name,
                "src_striping": src.striping.to_dict(),
                "dst_striping": dst.striping.to_dict(),
                "src_threads": src_inst.threads,
                "dst_threads": dst_inst.threads,
            }
        )
    return specs


def buffer_views(app: ApplicationModel) -> List["RuntimeBuffer"]:
    """Phantom :class:`RuntimeBuffer` for every logical buffer of a model:
    the run-time's own regions, message plans and send order, with no
    storage behind them."""
    return [RuntimeBuffer(spec, execute_data=False) for spec in logical_buffer_specs(app)]


def remote_traffic_tables(buffers, proc_of: Callable[[int, int], int]):
    """Per-``(buffer_id, thread)`` bytes that cross processors.

    Returns ``(send, recv)``: for each sending / receiving endpoint thread,
    the bytes of its buffer's plan whose other end lands on a different
    processor under ``proc_of`` — what the "remote" staging policies copy.
    Threads with no remote traffic have no entry.  One
    :func:`~repro.core.runtime.striping.plan_remote_traffic` call per buffer.
    """
    send_remote: Dict[Tuple[int, int], int] = {}
    recv_remote: Dict[Tuple[int, int], int] = {}
    for buf in buffers:
        send, recv = plan_remote_traffic(
            buf.plan,
            lambda t, f=buf.src_function: proc_of(f, t),
            lambda t, f=buf.dst_function: proc_of(f, t),
        )
        for t, nbytes in send.items():
            send_remote[(buf.buffer_id, t)] = nbytes
        for t, nbytes in recv.items():
            recv_remote[(buf.buffer_id, t)] = nbytes
    return send_remote, recv_remote


def endpoint_footprint(buffers, proc_of: Callable[[int, int], int]) -> Dict[int, int]:
    """Per-processor physical-buffer bytes of a placement.

    Every endpoint thread holds its own region of every buffer it touches:
    each source thread its ``src_region_bytes``, each destination thread its
    ``dst_region_bytes``, charged to the processor ``proc_of`` places it on.
    Nothing else is counted — no staging copy, no kernel state.  Processors
    holding no endpoint have no entry.  The run-time's ``enforce_memory``
    check, admission's JOB002 and (over its own region tables) the
    Verifier's BUF206 all apply this formula.
    """
    footprint: Dict[int, int] = {}
    for buf in buffers:
        for t in range(buf.src_threads):
            p = proc_of(buf.src_function, t)
            footprint[p] = footprint.get(p, 0) + buf.src_region_bytes(t)
        for t in range(buf.dst_threads):
            p = proc_of(buf.dst_function, t)
            footprint[p] = footprint.get(p, 0) + buf.dst_region_bytes(t)
    return footprint


class RuntimeBuffer:
    """One logical buffer instance (an arc's data channel)."""

    def __init__(self, spec: dict, execute_data: bool = True):
        self.spec = dict(spec)
        self.buffer_id: int = spec["id"]
        self.name: str = spec["name"]
        self.shape: Tuple[int, ...] = tuple(spec["shape"])
        self.dtype: str = spec["dtype"]
        self.elem_bytes: int = spec["elem_bytes"]
        self.total_bytes: int = spec["total_bytes"]
        self.src_function: int = spec["src_function"]
        self.dst_function: int = spec["dst_function"]
        self.src_port: str = spec["src_port"]
        self.dst_port: str = spec["dst_port"]
        self.src_striping = Striping.from_dict(spec["src_striping"])
        self.dst_striping = Striping.from_dict(spec["dst_striping"])
        self.src_threads: int = spec["src_threads"]
        self.dst_threads: int = spec["dst_threads"]
        self.execute_data = execute_data

        expected = 1
        for d in self.shape:
            expected *= d
        if expected * self.elem_bytes != self.total_bytes:
            raise BufferError(
                f"buffer {self.name!r}: total_bytes {self.total_bytes} inconsistent "
                f"with shape {self.shape} x {self.elem_bytes}"
            )

        self.plan: List[PlannedMessage] = message_plan(
            self.shape,
            self.elem_bytes,
            self.src_striping,
            self.src_threads,
            self.dst_striping,
            self.dst_threads,
        )
        self._storage: Dict[int, Any] = {}
        self._pending_reads: Dict[int, int] = {}

        # Every endpoint thread's region and shape, derived once for the data path.
        self._src_regions: List[Region] = [thread_region(
            self.shape, self.src_striping, self.src_threads, t) for t in range(self.src_threads)]
        self._dst_regions: List[Region] = [thread_region(
            self.shape, self.dst_striping, self.dst_threads, t) for t in range(self.dst_threads)]
        self._src_shapes = [region_shape(r) for r in self._src_regions]
        self._dst_shapes = [region_shape(r) for r in self._dst_regions]

        # The kernel walks the plan per (thread, iteration); index it once.
        self._msgs_from: Dict[int, List[PlannedMessage]] = {
            s: [] for s in range(self.src_threads)
        }
        self._msgs_to: Dict[int, List[PlannedMessage]] = {
            d: [] for d in range(self.dst_threads)
        }
        # Arrival slots are keyed by a message's position within its
        # destination's list; PlannedMessage objects are shared with the
        # process-wide plan cache, so key by identity, not equality.
        self._msg_slot: Dict[int, int] = {}
        for m in self.plan:
            self._msgs_from[m.src_thread].append(m)
            to = self._msgs_to[m.dst_thread]
            self._msg_slot[id(m)] = len(to)
            to.append(m)
        # Senders transmit in rotated order (start past your own thread id)
        # to spread fabric load; the order is static, so compute it once.
        ring = max(1, self.dst_threads)
        self._send_order: Dict[int, List[PlannedMessage]] = {
            s: sorted(msgs, key=lambda m: (m.dst_thread - s) % ring)
            for s, msgs in self._msgs_from.items()
        }

    # -- regions -----------------------------------------------------------
    def src_region(self, thread: int) -> Region:
        return self._src_regions[thread]

    def dst_region(self, thread: int) -> Region:
        return self._dst_regions[thread]

    def src_shape(self, thread: int) -> Tuple[int, ...]:
        return self._src_shapes[thread]

    def src_region_bytes(self, thread: int) -> int:
        return region_elems(self.src_region(thread)) * self.elem_bytes

    def dst_region_bytes(self, thread: int) -> int:
        return region_elems(self.dst_region(thread)) * self.elem_bytes

    # -- message plan ----------------------------------------------------------
    def messages_from(self, src_thread: int) -> List[PlannedMessage]:
        return self._msgs_from.get(src_thread, [])

    def messages_to(self, dst_thread: int) -> List[PlannedMessage]:
        return self._msgs_to.get(dst_thread, [])

    def send_order(self, src_thread: int) -> List[PlannedMessage]:
        """``messages_from`` in the rotated order the sender transmits them."""
        return self._send_order.get(src_thread, [])

    def message_slot(self, msg: PlannedMessage) -> int:
        """Position of ``msg`` within its destination thread's message list."""
        return self._msg_slot[id(msg)]

    # -- data path ----------------------------------------------------------------
    def _backing(self, iteration: int):
        store = self._storage.get(iteration)
        if store is None:
            if self.execute_data:
                store = np.zeros(self.shape, dtype=self.dtype)
            else:
                store = PhantomArray(self.shape, self.dtype)
            self._storage[iteration] = store
            self._pending_reads[iteration] = self.dst_threads
        return store

    def write(self, iteration: int, src_thread: int, data: Any) -> None:
        """Sender thread deposits its region of the logical data."""
        region = self._src_regions[src_thread]
        want = self._src_shapes[src_thread]
        store = self._backing(iteration)
        if not self.execute_data:
            # Phantom mode: check only the shape contract.
            got = tuple(getattr(data, "shape", ()))
            if got != want:
                raise BufferError(
                    f"buffer {self.name!r}: thread {src_thread} wrote shape "
                    f"{got}, region needs {want}"
                )
            return
        arr = np.asarray(data)
        if arr.shape != want:
            raise BufferError(
                f"buffer {self.name!r}: thread {src_thread} wrote shape "
                f"{arr.shape}, region needs {want}"
            )
        store[region_indexer(region)] = arr

    def read(self, iteration: int, dst_thread: int) -> Any:
        """Receiver thread obtains its region (a fresh copy, value semantics)."""
        if iteration not in self._storage:
            raise BufferError(
                f"buffer {self.name!r}: read of iteration {iteration} before any write"
            )
        store = self._storage[iteration]
        if self.execute_data:
            out = np.array(store[region_indexer(self._dst_regions[dst_thread])], copy=True)
        else:
            out = PhantomArray(self._dst_shapes[dst_thread], self.dtype)
        self._pending_reads[iteration] -= 1
        if self._pending_reads[iteration] <= 0:
            # All receivers served: free the iteration's backing storage.
            del self._storage[iteration]
            del self._pending_reads[iteration]
        return out

    # -- checkpointing -----------------------------------------------------
    def snapshot(self) -> dict:
        """Deep-copy the live backing state (checkpoint_restart support)."""
        return {
            "storage": {
                k: (v.copy() if isinstance(v, np.ndarray) else v)
                for k, v in self._storage.items()
            },
            "pending": dict(self._pending_reads),
        }

    def restore(self, snap: dict) -> None:
        """Reset the backing state to a :meth:`snapshot` (copies again, so a
        snapshot can be restored more than once)."""
        self._storage = {
            k: (v.copy() if isinstance(v, np.ndarray) else v)
            for k, v in snap["storage"].items()
        }
        self._pending_reads = dict(snap["pending"])

    @property
    def live_iterations(self) -> int:
        return len(self._storage)

    def __repr__(self):
        return (
            f"<RuntimeBuffer {self.name!r} {self.shape} "
            f"{self.src_striping.describe()}->{self.dst_striping.describe()} "
            f"{self.src_threads}->{self.dst_threads} threads, "
            f"{len(self.plan)} messages>"
        )
