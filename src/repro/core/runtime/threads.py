"""The run-time's threads: a step list per (function, thread), walked once
per iteration.

A :class:`ThreadPlan` derives once what a thread's placement fixes (node,
binding, role, awaited buffers, staged bytes, each message's destination
and arrival slot) and the step list those facts select; ``SageRuntime``
drops the plans whenever it re-places threads.  A :class:`ThreadRun` walks
one plan for one iteration as a :class:`~repro.machine.simulator.CallbackProcess`:
a step returns False to go straight on, or starts a hold or a wait and
returns True to go on when it ends.  docs/RUNTIME.md lists the steps.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Tuple

from ...machine.faults import TransientError
from ...machine.simulator import AllOf, CallbackProcess
from .buffers import RuntimeBuffer
from .kernels import KernelError
from .transfer import Transfer

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import SageRuntime

__all__ = ["RuntimeError_", "ThreadPlan", "ThreadRun"]


class RuntimeError_(RuntimeError):
    """Run-time kernel configuration/execution failure."""


class ThreadPlan:
    """What one (function, thread)'s placement fixes, and the steps it selects."""

    __slots__ = ("entry", "fid", "thread", "node", "binding", "in_bufs",
                 "attempts", "steps")

    def __init__(self, rt: "SageRuntime", fid: int, thread: int):
        cfg, policy = rt.config, rt.fault_policy
        entry = self.entry = rt.functions[fid]
        self.fid, self.thread = fid, thread
        self.node = rt.cluster.node(rt.processor_of(fid, thread))
        binding = self.binding = rt.bindings[entry["kernel"]]
        in_bufs = self.in_bufs = rt.in_buffers[fid]
        self.attempts = 1 + (policy.max_retries if policy.mode != "fail_fast" else 0)
        source, sink, run = fid in rt.source_ids, fid in rt.sink_ids, ThreadRun
        # Flat (step, argument, step, argument, ...): one tuple a plan.
        steps: list = [run._after_previous, None]
        if source:
            # Data-set admission control (§3.3 latency protocol measures one
            # data set at a time; pipelined runs raise max_in_flight).
            if cfg.max_in_flight is not None:
                steps += (run._admit, cfg.max_in_flight)
            steps += (run._pace, None)
        for buf in (b for b in in_bufs if b.messages_to(thread)):
            steps += (run._gather, buf)
        if policy.migrates_stragglers:
            steps += (run._clock_in, None)
        if cfg.dispatch_overhead > 0:
            # Function-table dispatch (the per-invocation run-time cost).
            steps += (run._busy, cfg.dispatch_overhead)
        steps += (run._note, "enter")
        # Receive-side logical->physical buffer copies (unpack).  DMA
        # endpoints read the logical buffer directly and pay nothing here.
        recv = 0 if binding.dma_endpoint else sum(
            rt._staged_bytes(buf, thread, cfg.recv_staging, receive=True) for buf in in_bufs)
        if recv:
            steps += (run._copy, recv)
        steps += (run._read, cfg.compute_efficiency, run._copy, None, run._call, None)
        steps += (run._source_time, None) if source else ()
        steps += (run._sink_time, None) if sink else ()
        for buf in rt.out_buffers[fid]:
            # Send-side staging copy (pack), then the deposit and one Transfer
            # per message of the plan, in the rotated order the sender uses.
            if binding.dma_endpoint and not cfg.stage_dma_sources:
                staged = 0  # optimised glue: source DMAs into the buffer
            else:
                staged = rt._staged_bytes(buf, thread, cfg.send_staging, receive=False)
            if staged:
                steps += (run._stage, (buf, staged))
            msgs, dst = buf.send_order(thread), buf.dst_function
            steps += (run._deposit, (
                buf, rt.functions[dst], msgs,
                tuple(rt.processor_of(dst, msg.dst_thread) for msg in msgs),
                tuple(buf.message_slot(msg) for msg in msgs),
            ))
        if policy.migrates_stragglers:
            steps += (run._clock_out, None)
        steps += (run._exit, sink)
        self.steps: Tuple[Any, ...] = tuple(steps)


class ThreadRun(CallbackProcess):
    """Iteration ``iteration`` of ``plan``'s thread.  ``done`` fires when it
    ends; :meth:`cancel` kills it for fault recovery."""

    __slots__ = ("rt", "plan", "iteration", "_pc", "_attempt", "_delay",
                 "_busy_from", "_nbytes", "_inputs", "_ctx", "_outputs")

    def __init__(self, rt: "SageRuntime", plan: ThreadPlan, iteration: int):
        self.rt, self.plan, self.iteration = rt, plan, iteration
        self._pc, self._attempt, self._delay = 0, 1, rt.fault_policy.backoff
        CallbackProcess.__init__(self, rt.env)

    def _advance(self) -> None:
        """Run steps until one waits (it continues here) or the last ends."""
        steps = self.plan.steps
        while True:
            pc = self._pc
            self._pc = pc + 2
            if steps[pc](self, steps[pc + 1]):
                return

    _begin = _advance

    def _end(self) -> None:
        # Break the bound-method cycle; drop the data as a generator's frame would.
        self._then = self._inputs = self._ctx = self._outputs = None

    def _busy(self, seconds: float) -> bool:
        node = self.plan.node
        self._hold((node.cpu,), node.busy_time(seconds), self._worked)
        return True

    def _sleep(self, delay: float) -> bool:
        self._hold((), delay, self._advance)
        return True

    def _await(self, event) -> bool:
        self._wait(event, self._advance)
        return True

    def _worked(self) -> None:
        # A crash that lands mid-operation surfaces when the work "completes".
        if self.plan.node.faults is not None:
            self.plan.node.check_alive()
        self._advance()

    def _output(self, buf: RuntimeBuffer) -> Any:
        outputs = self._outputs
        if buf.src_port not in outputs:
            raise RuntimeError_(
                f"kernel {self.plan.entry['kernel']!r} produced no data for port "
                f"{buf.src_port!r} (has {sorted(outputs)})"
            )
        return outputs[buf.src_port]

    # -- the steps: each returns True when it waits ------------------------------
    def _after_previous(self, _arg) -> bool:
        # Iterations of one thread are sequenced (a thread is one control flow).
        k, plan = self.iteration, self.plan
        return k > 0 and self._await(self.rt._thread_done[(plan.fid, plan.thread, k - 1)])

    def _admit(self, depth: int) -> bool:
        k = self.iteration
        return k >= depth and self._await(self.rt._iter_complete[k - depth])

    def _pace(self, _arg) -> bool:
        wait = self.iteration * self.rt._source_interval - self.env.now
        return self.rt._source_interval > 0 and wait > 0 and self._sleep(wait)

    def _gather(self, buf: RuntimeBuffer) -> bool:
        events = self.rt._arrival_events(buf, self.iteration, self.plan.thread)
        return self._await(AllOf(self.env, events))

    def _clock_in(self, _arg) -> bool:
        # Straggler telemetry: the wall span from dispatch to exit per node,
        # honestly inflated by a limping node's rate and queueing.
        self._busy_from = self.env.now
        return False

    def _note(self, kind: str) -> bool:
        plan = self.plan
        self.rt._probe(kind, plan.entry, plan.thread, self.iteration, plan.node.index)
        return False

    def _copy(self, nbytes) -> bool:
        nbytes = self._nbytes if nbytes is None else nbytes  # None: the kernel's
        return bool(nbytes) and self._busy(self.plan.node.spec.copy_time(nbytes))

    def _read(self, efficiency: float) -> bool:
        plan, k = self.plan, self.iteration
        thread, binding = plan.thread, plan.binding
        inputs = self._inputs = {buf.dst_port: buf.read(k, thread) for buf in plan.in_bufs}
        ctx = self._ctx = self.rt._make_ctx(plan.entry, thread, k)
        flops = binding.flops(ctx, inputs)
        self._nbytes = binding.copy_bytes(ctx, inputs)
        # Generated call sites sustain a fraction of hand-tuned MFLOPS
        # (generic strides through port descriptors).
        return bool(flops) and self._busy(plan.node.spec.compute_time(flops / efficiency))

    def _call(self, _arg) -> bool:
        entry = self.plan.entry
        try:
            self._outputs = self.plan.binding.run(self._ctx, self._inputs)
        except TransientError as exc:
            attempt = self._attempt
            if attempt >= self.plan.attempts:
                raise
            rt = self.rt
            rt._probe_runtime(
                "retry", detail=f"kernel {entry['kernel']} attempt {attempt}: {exc}",
                processor=self.plan.node.index, iteration=self.iteration,
            )
            self._attempt = attempt + 1
            self._pc -= 2  # call again, after the backoff
            delay = self._delay
            self._delay = delay * rt.fault_policy.backoff_factor
            return delay > 0 and self._sleep(rt._jittered(delay))
        except KernelError:
            raise
        except Exception as exc:
            raise RuntimeError_(
                f"kernel {entry['kernel']!r} of {entry['name']!r} failed: {exc}"
            ) from exc
        return False

    def _source_time(self, _arg) -> bool:
        # §3.3 latency starts when the first data leaves the source ...
        times, k, now = self.rt._source_times, self.iteration, self.env.now
        times[k] = min(times.get(k, now), now)
        return self._note("source")

    def _sink_time(self, _arg) -> bool:
        # ... and ends when the last result reaches the sink.
        times, k = self.rt._sink_times, self.iteration
        times[k] = max(times.get(k, 0.0), self.env.now)
        return self._note("sink")

    def _stage(self, out: Tuple[RuntimeBuffer, int]) -> bool:
        self._output(out[0])
        return self._copy(out[1])

    def _deposit(self, out: tuple) -> bool:
        buf, dst_entry, msgs, dsts, slots = out
        rt, plan, k = self.rt, self.plan, self.iteration
        buf.write(k, plan.thread, self._output(buf))
        for msg, dst, slot in zip(msgs, dsts, slots):
            Transfer(rt, buf, msg, k, plan.entry, plan.node, dst, dst_entry, slot)
        return False

    def _clock_out(self, _arg) -> bool:
        per_node = self.rt._iter_busy.setdefault(self.iteration, {})
        index = self.plan.node.index
        per_node[index] = per_node.get(index, 0.0) + (self.env.now - self._busy_from)
        return False

    def _exit(self, sink: bool) -> bool:
        rt, plan, k = self.rt, self.plan, self.iteration
        self._note("exit")
        if sink:
            rt._iter_sinks_left[k] -= 1
            if rt._iter_sinks_left[k] == 0:
                rt._iter_complete[k].succeed()
        rt._thread_done[(plan.fid, plan.thread, k)].succeed()
        self._finish()
        return True
