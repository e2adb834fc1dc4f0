"""The run-time's messages: fabric crossings retried under its ``FaultPolicy``.

A planned message adds its SAGE stages around the crossing (the table is in
``docs/RUNTIME.md``): striping bookkeeping on the source CPU, ``send`` probe,
the :class:`~repro.machine.interconnect.Crossing`, ``arrive`` probe and the
arrival event.  Restripe and migration shipping is the bare crossing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ...machine.interconnect import Crossing
from ...machine.node import SimNode
from .buffers import RuntimeBuffer
from .policy import TransportError

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import SageRuntime

__all__ = ["Shipment", "Transfer"]


class Shipment(Crossing):
    """``nbytes`` from processor ``src`` to ``dst`` for ``iteration``, retried
    as the run-time's policy allows; ``label`` names it in probes and errors."""

    __slots__ = ("rt", "iteration", "label")

    def __init__(self, rt: "SageRuntime", src: int, dst: int, nbytes: int,
                 iteration: int, label: str):
        self.rt, self.iteration, self.label = rt, iteration, label
        super().__init__(rt.env, rt.cluster.fabric, src, dst, nbytes, *rt._retry_rule)

    def _name(self, error: bool) -> str:
        return f"restripe {'transfer ' if error else ''}{self.label}"

    def _backoff(self, failure: Any, delay: float) -> float:
        self.rt._probe_runtime("retry", detail=(
            f"{self._name(False)} {self.src}->{self.dst} attempt {self._attempt}: "
            f"{failure}"), processor=self.src, iteration=self.iteration)
        return self.rt._jittered(delay)

    def _undelivered(self, failure: Any) -> None:
        if isinstance(failure, BaseException):
            raise failure
        raise TransportError(
            f"{self._name(True)} from processor {self.src} to {self.dst} undelivered: "
            f"{failure}; gave up after {self._attempt} attempt(s) at t={self.env.now:.6f}")


class Transfer(Shipment):
    """One message of ``buf``'s plan for ``iteration`` from the thread on
    ``node`` to arrival ``slot`` of ``dst_entry``'s thread on ``dst``; a key
    of ``runtime._in_flight`` (spawn order) until it ends.  Nothing awaits
    ``done``: a stage that raises leaves the engine step."""

    __slots__ = ("buf", "msg", "src_entry", "node", "dst_entry", "slot")

    def __init__(self, rt: "SageRuntime", buf: RuntimeBuffer, msg,
                 iteration: int, src_entry: dict, node: SimNode, dst: int,
                 dst_entry: dict, slot: int):
        self.buf, self.msg, self.src_entry, self.node = buf, msg, src_entry, node
        self.dst_entry, self.slot = dst_entry, slot
        # Shipment's constructor without the label, inlined: once per message.
        self.rt, self.iteration = rt, iteration
        Crossing.__init__(self, rt.env, rt.cluster.fabric, node.index, dst,
                          msg.nbytes, *rt._retry_rule)
        rt._in_flight[self] = None

    def _name(self, error: bool) -> str:
        return f"{'message ' if error else ''}{self.buf.name}#{self.iteration}"

    def _end(self) -> None:
        self._then = None
        self.rt._in_flight.pop(self, None)

    def _begin(self) -> None:
        overhead = self.rt.config.striping_overhead_per_message
        if overhead > 0:
            node = self.node
            self._hold((node.cpu,), node.busy_time(overhead), self._bookkept)
        else:
            self._send()

    def _bookkept(self) -> None:
        if self.node.faults is not None:
            self.node.check_alive()
        self._send()

    def _send(self) -> None:
        buf, msg = self.buf, self.msg
        self.rt._probe("send", self.src_entry, msg.src_thread, self.iteration,
                       self.src, buf.name, msg.nbytes)
        if self.src != self.dst:
            self._cross()
        else:
            self._arrive(None)

    def _arrive(self, _outcome) -> None:
        rt, buf, msg = self.rt, self.buf, self.msg
        rt._probe("arrive", self.dst_entry, msg.dst_thread, self.iteration,
                  self.dst, buf.name, msg.nbytes)
        rt._arrival_events(buf, self.iteration, msg.dst_thread)[self.slot].succeed()
        self._end()
        self.done.succeed()
