"""One planned message in flight: the run-time's transfer state machine.

Every message of a striping plan crosses the machine the same way (the table
is in ``docs/RUNTIME.md``): striping bookkeeping on the source CPU, ``send``
probe, the fabric crossing, the fault layer's verdict — retried with backoff
when the policy allows — then ``arrive`` probe and the arrival event.

A :class:`Transfer` is a hand-rolled simulator process with one verb: *hold
these resources for this long, then continue there*.  It schedules exactly
the events a generator process would, in the same order — the seeded fault
draws and every pinned trace depend on it — at one plain call per event
instead of a resume through nested generators.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional, Tuple

from ...machine.faults import LinkFailure
from ...machine.node import SimNode
from ...machine.simulator import Event, Resource, Timeout
from .buffers import RuntimeBuffer
from .policy import TransportError

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import SageRuntime

__all__ = ["Transfer"]


class Transfer:
    """Ships one message of ``buf``'s plan for ``iteration`` from the thread
    running on ``node``; starts itself.

    While unfinished it is a key of ``runtime._in_flight``, in spawn order.
    ``done`` fires once the message has arrived or the transfer was cancelled;
    a stage that raises (a dead endpoint, an outage or loss the policy does
    not retry) propagates out of the engine step, as from an unawaited process.
    """

    __slots__ = ("rt", "buf", "msg", "iteration", "src_entry", "node", "dst",
                 "done", "_chain", "_held", "_duration", "_then", "_target",
                 "_attempt", "_delay")

    def __init__(self, rt: "SageRuntime", buf: RuntimeBuffer, msg,
                 iteration: int, src_entry: dict, node: SimNode):
        self.rt = rt
        self.buf = buf
        self.msg = msg
        self.iteration = iteration
        self.src_entry = src_entry
        self.node = node
        self.dst = rt.processor_of(buf.dst_function, msg.dst_thread)
        env = rt.env
        self.done = Event(env)
        #: Resources to hold together, in acquisition order.  The first
        #: ``_held`` are held; ``_target`` is the next one's request or, with
        #: all held, the timeout after which they go back and ``_then`` runs.
        self._chain: Tuple[Resource, ...] = ()
        self._held = 0
        self._then: Optional[Callable[[], None]] = self._begin
        # As with a process's start event, _target stays unset: a transfer
        # cancelled before it starts still starts, and dies at the kick.
        self._target: Optional[Event] = None
        self._attempt = 1
        self._delay = rt.fault_policy.backoff
        rt._in_flight[self] = None
        Event(env).succeed().callbacks.append(self._elapsed)

    # -- process mechanics ---------------------------------------------------
    def _hold(self, chain: Tuple[Resource, ...], duration: float,
              then: Callable[[], None]) -> None:
        self._chain, self._duration, self._then = chain, duration, then
        if chain:
            self._target = request = chain[0].request()
            request.callbacks.append(self._granted)
        else:
            self._target = timeout = Timeout(self.rt.env, duration)
            timeout.callbacks.append(self._elapsed)

    def _granted(self, request: Event) -> None:
        if not request._ok:  # the resource was reset under the request
            self._die()
            raise request._value
        held = self._held = self._held + 1
        chain = self._chain
        if held < len(chain):
            self._target = request = chain[held].request()
            request.callbacks.append(self._granted)
        else:
            self._target = timeout = Timeout(self.rt.env, self._duration)
            timeout.callbacks.append(self._elapsed)

    def _elapsed(self, _event: Event) -> None:
        try:
            self._release()
            self._then()
        except BaseException:
            self._die()
            raise

    def _release(self) -> None:
        """Withdraw the pending request and release what is held, innermost
        first — a generator's ``try``/``finally`` blocks."""
        chain = self._chain
        self._chain = ()
        if self._held < len(chain):
            chain[self._held].cancel(self._target)
        while self._held:
            self._held -= 1
            chain[self._held].release()

    def _end(self) -> None:
        self._then = None  # also breaks the cycle through the bound method
        self.rt._in_flight.pop(self, None)

    def _die(self) -> None:
        self._end()
        self._release()

    def _detach(self) -> None:
        target = self._target
        if target is not None and target.callbacks is not None:
            step = (self._granted if self._held < len(self._chain)
                    else self._elapsed)
            if step in target.callbacks:
                target.callbacks.remove(step)

    def cancel(self) -> None:
        """Kill the transfer at the current instant (fault recovery): the
        pending request is withdrawn and every held port/CPU slot released
        when a kick event scheduled now fires."""
        self._detach()
        Event(self.rt.env).succeed().callbacks.append(self._cancelled)

    def _cancelled(self, _kick: Event) -> None:
        if self._then is None:
            return  # finished or failed in the meantime
        self._detach()  # it may have moved on to another event since cancel()
        self._die()
        self.done.succeed()

    # -- stages ---------------------------------------------------------------
    def _begin(self) -> None:
        overhead = self.rt.config.striping_overhead_per_message
        if overhead > 0:
            node = self.node
            self._hold((node.cpu,), node.busy_time(overhead), self._bookkept)
        else:
            self._send()

    def _bookkept(self) -> None:
        self.node.check_alive()
        self._send()

    def _send(self) -> None:
        buf, msg, src = self.buf, self.msg, self.node.index
        self.rt._probe("send", self.src_entry, msg.src_thread, self.iteration,
                       src, buf.name, msg.nbytes)
        if src != self.dst:
            self._cross()
        else:
            self._arrive()

    def _cross(self) -> None:
        """One attempt at the fabric: admission, then inject -> shared
        medium -> eject, held together for the wire time."""
        try:
            duration, inject, shared, eject = self.rt.cluster.fabric.route(
                self.node.index, self.dst, self.msg.nbytes
            )
        except LinkFailure as exc:
            # Link outages may heal; node crashes (NodeFailure) always
            # propagate — the transfer level cannot restart a node.
            if self._attempt >= self._attempts():
                raise
            self._back_off(exc)
            return
        chain = (inject, eject) if shared is None else (inject, shared, eject)
        self._hold(chain, duration, self._crossed)

    def _crossed(self) -> None:
        outcome = self.rt.cluster.fabric.verdict(
            self.node.index, self.dst, self.msg.nbytes
        )
        if outcome.ok:
            self._arrive()
        elif self._attempt < self._attempts():
            self._back_off(outcome.reason)
        else:
            raise TransportError(
                f"message {self.buf.name}#{self.iteration} from processor "
                f"{self.node.index} to {self.dst} undelivered: "
                f"{outcome.reason}; gave up after {self._attempt} attempt(s) "
                f"at t={self.rt.env.now:.6f}"
            )

    def _attempts(self) -> int:
        policy = self.rt.fault_policy
        return 1 + (policy.max_retries if policy.retries_transfers else 0)

    def _back_off(self, failure: Any) -> None:
        """An ack-protocol model: the sender observes the delivery verdict
        and retransmits after the policy's (jittered) backoff."""
        rt = self.rt
        rt._probe_runtime(
            "retry",
            detail=(
                f"{self.buf.name}#{self.iteration} {self.node.index}->"
                f"{self.dst} attempt {self._attempt}: {failure}"
            ),
            processor=self.node.index,
            iteration=self.iteration,
        )
        self._attempt += 1
        delay = self._delay
        self._delay *= rt.fault_policy.backoff_factor
        if delay > 0:
            self._hold((), rt._jittered(delay), self._cross)
        else:
            self._cross()

    def _arrive(self) -> None:
        rt, buf, msg = self.rt, self.buf, self.msg
        rt._probe("arrive", rt.functions[buf.dst_function], msg.dst_thread,
                  self.iteration, self.dst, buf.name, msg.nbytes)
        events = rt._arrival_events(buf, self.iteration, msg.dst_thread)
        events[buf.message_slot(msg)].succeed()
        self._end()
        self.done.succeed()
