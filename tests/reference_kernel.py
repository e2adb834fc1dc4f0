"""The process-per-thread run-time kernel, kept as a test oracle.

``SageRuntime`` runs each (function, thread, iteration) as a
:class:`~repro.core.runtime.threads.ThreadRun`: a slotted callback state
machine over a step list built once per (function, thread).  This subclass
is the design it replaced, unchanged: one generator :class:`Process` per
(function, thread, iteration) whose body re-derives the node, the binding,
the staged bytes and every message's destination on every iteration.  The
only edits are the call sites whose signatures moved: the process is a
:class:`~tests.killable_process.KillableProcess` (``done`` and ``cancel()``,
the names recovery uses), the dispatch overhead holds the CPU through
``Resource.use`` (the engine's ``SimNode.busy`` is gone), and each
:class:`Transfer` is handed its destination processor, entry and arrival
slot.  ``tests/test_reference_kernel.py`` runs both kernels on drawn
designs and fault schedules and checks that they produce the same trace,
result, injector log and engine event count.
"""

from __future__ import annotations

from typing import List

from repro.core.runtime.kernel import RuntimeError_, SageRuntime
from repro.core.runtime.kernels import KernelError
from repro.core.runtime.transfer import Transfer
from repro.machine.faults import TransientError

from .killable_process import KillableProcess

__all__ = ["ReferenceRuntime"]


class ReferenceRuntime(SageRuntime):
    """:class:`SageRuntime` with one generator process per thread per
    iteration."""

    def _spawn_iteration(self, k: int) -> List[KillableProcess]:
        """Create iteration ``k``'s bookkeeping events and thread processes."""
        sink_thread_count = sum(self.functions[f]["threads"] for f in self.sink_ids)
        self._iter_complete[k] = self.env.event()
        self._iter_sinks_left[k] = sink_thread_count
        for fid in self.glue.execution_order:
            entry = self.functions[fid]
            for t in range(entry["threads"]):
                self._thread_done[(fid, t, k)] = self.env.event()
        procs = []
        for fid in self.glue.execution_order:
            entry = self.functions[fid]
            for t in range(entry["threads"]):
                procs.append(
                    KillableProcess(
                        self.env,
                        self._thread_body(fid, t, k),
                        name=f"{entry['name']}[{t}]#{k}",
                    )
                )
        return procs

    # -- per-thread process ---------------------------------------------------------
    def _thread_body(self, fid: int, thread: int, iteration: int):
        entry = self.functions[fid]
        node = self.cluster.node(self.processor_of(fid, thread))
        cfg = self.config

        # Sequence iterations of the same thread (a thread is one control flow).
        if iteration > 0:
            yield self._thread_done[(fid, thread, iteration - 1)]

        if fid in self.source_ids:
            # Data-set admission control (§3.3 latency protocol measures one
            # data set at a time; pipelined runs raise max_in_flight).
            m = cfg.max_in_flight
            if m is not None and iteration >= m:
                yield self._iter_complete[iteration - m]
            # Source pacing, when requested.
            if self._source_interval > 0:
                target = iteration * self._source_interval
                if target > self.env.now:
                    yield self.env.timeout(target - self.env.now)

        # Wait for every inbound message of this iteration.
        for buf in self.in_buffers[fid]:
            events = self._arrival_events(buf, iteration, thread)
            if events:
                yield self.env.all_of(events)

        # Straggler telemetry (migrate_stragglers): measure the wall span
        # from dispatch to exit per node.  A limping node's CPU-rate scaling
        # and queueing delay inflate this honestly — the score needs no
        # access to the injector's ground truth.
        track_progress = self.fault_policy.migrates_stragglers
        busy_from = self.env.now if track_progress else 0.0

        # Function-table dispatch (the per-invocation run-time cost).
        if cfg.dispatch_overhead > 0:
            yield from node.cpu.use(node.busy_time(cfg.dispatch_overhead))
            node.check_alive()
        self._probe("enter", entry, thread, iteration, node.index)

        binding = self.bindings[entry["kernel"]]

        # Receive-side logical->physical buffer copies (unpack).  DMA
        # endpoints read the logical buffer directly and pay nothing here.
        if not binding.dma_endpoint:
            recv_bytes = sum(
                self._staged_bytes(buf, thread, cfg.recv_staging, receive=True)
                for buf in self.in_buffers[fid]
            )
            if recv_bytes:
                yield from node.copy(recv_bytes)

        inputs = {
            buf.dst_port: buf.read(iteration, thread) for buf in self.in_buffers[fid]
        }
        ctx = self._make_ctx(entry, thread, iteration)

        flops = binding.flops(ctx, inputs)
        copy_bytes = binding.copy_bytes(ctx, inputs)
        if flops:
            # Generated call sites sustain a fraction of hand-tuned MFLOPS
            # (generic strides through port descriptors).
            yield from node.compute(flops / cfg.compute_efficiency)
        if copy_bytes:
            yield from node.copy(copy_bytes)

        policy = self.fault_policy
        attempts = 1 + (policy.max_retries if policy.mode != "fail_fast" else 0)
        delay = policy.backoff
        for attempt in range(1, attempts + 1):
            try:
                outputs = binding.run(ctx, inputs)
                break
            except TransientError as exc:
                if attempt >= attempts:
                    raise
                self._probe_runtime(
                    "retry",
                    detail=(
                        f"kernel {entry['kernel']} attempt {attempt}: {exc}"
                    ),
                    processor=node.index,
                    iteration=iteration,
                )
                if delay > 0:
                    yield self.env.timeout(self._jittered(delay))
                delay *= policy.backoff_factor
            except KernelError:
                raise
            except Exception as exc:
                raise RuntimeError_(
                    f"kernel {entry['kernel']!r} of {entry['name']!r} failed: {exc}"
                ) from exc

        if fid in self.source_ids:
            # "Latency ... from when the first data leaves the data source":
            # keep the earliest source completion of this iteration.
            prev = self._source_times.get(iteration)
            self._source_times[iteration] = (
                self.env.now if prev is None else min(prev, self.env.now)
            )
            self._probe("source", entry, thread, iteration, node.index)
        if fid in self.sink_ids:
            # "... to the time the final result is output to the data sink":
            # keep the latest sink completion.
            self._sink_times[iteration] = max(
                self._sink_times.get(iteration, 0.0), self.env.now
            )
            self._probe("sink", entry, thread, iteration, node.index)

        # Send-side staging copies (pack) + deposit into logical buffers.
        for buf in self.out_buffers[fid]:
            if buf.src_port not in outputs:
                raise RuntimeError_(
                    f"kernel {entry['kernel']!r} produced no data for port "
                    f"{buf.src_port!r} (has {sorted(outputs)})"
                )
            if binding.dma_endpoint and not cfg.stage_dma_sources:
                staged = 0  # optimised glue: source DMAs into the buffer
            else:
                staged = self._staged_bytes(buf, thread, cfg.send_staging, receive=False)
            if staged:
                yield from node.copy(staged)
            buf.write(iteration, thread, outputs[buf.src_port])
            # Rotated send order (start past your own thread id) so concurrent
            # redistributions don't all target destination 0 first (ejection
            # convoys); this is the schedule a pairwise exchange produces.
            for msg in buf.send_order(thread):
                Transfer(self, buf, msg, iteration, entry, node,
                         self.processor_of(buf.dst_function, msg.dst_thread),
                         self.functions[buf.dst_function], buf.message_slot(msg))

        if track_progress:
            per_node = self._iter_busy.setdefault(iteration, {})
            per_node[node.index] = (
                per_node.get(node.index, 0.0) + (self.env.now - busy_from)
            )

        self._probe("exit", entry, thread, iteration, node.index)
        if fid in self.sink_ids:
            self._iter_sinks_left[iteration] -= 1
            if self._iter_sinks_left[iteration] == 0:
                self._iter_complete[iteration].succeed()
        self._thread_done[(fid, thread, iteration)].succeed()
