"""Interconnect fabric cost model.

Models the 1999-era embedded fabrics the paper's benchmarks ran on:
Myrinet (CSPI), RACEway (Mercury), SKYchannel (SKY).  A fabric is a set of
point-to-point *links* with latency, bandwidth, and per-message software
overhead; each link is a simulator :class:`Resource`, so concurrent messages
over the same link serialise (contention), while disjoint pairs proceed in
parallel — the property that makes pairwise-exchange all-to-all algorithms
profitable.

Two locality tiers are modeled, matching the CSPI target machine description
(§3.2): *intra-board* transfers between processors on the same quad-PPC board
are faster than *inter-board* transfers across the Myrinet fabric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .simulator import Environment, Resource

__all__ = ["LinkSpec", "FabricSpec", "Fabric", "TransferOutcome"]


@dataclass(frozen=True)
class TransferOutcome:
    """What happened to one fabric transfer (fault layer verdict).

    ``delivered`` is False when the payload was lost in transit (injected
    message loss, or the destination node died mid-flight); ``corrupted``
    marks a delivered-but-damaged payload.  ``reason`` is a short human
    label for the failure mode.
    """

    delivered: bool = True
    corrupted: bool = False
    reason: str = ""

    @property
    def ok(self) -> bool:
        return self.delivered and not self.corrupted


#: The common case: no fault layer, clean delivery.
_CLEAN = TransferOutcome()


@dataclass(frozen=True)
class LinkSpec:
    """Cost parameters for one class of link.

    ``time(nbytes) = sw_overhead + latency + nbytes / bandwidth``
    """

    latency: float        # wire + switch latency, seconds
    bandwidth: float      # bytes / second
    sw_overhead: float    # per-message protocol/software cost, seconds

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.latency < 0 or self.sw_overhead < 0:
            raise ValueError("latency and sw_overhead must be non-negative")

    def transfer_time(self, nbytes: float) -> float:
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        return self.sw_overhead + self.latency + nbytes / self.bandwidth


@dataclass(frozen=True)
class FabricSpec:
    """Static description of an interconnect fabric."""

    name: str
    inter_board: LinkSpec
    intra_board: LinkSpec
    #: True if the fabric is a full crossbar (per-pair links); False models a
    #: shared medium where all inter-board traffic contends on one resource.
    crossbar: bool = True
    #: Maximum simultaneous inter-board transfers when crossbar is False.
    shared_channels: int = 1

    def link_for(self, same_board: bool) -> LinkSpec:
        return self.intra_board if same_board else self.inter_board


class Fabric:
    """A fabric instance bound to a simulation environment.

    ``transfer(src, dst, nbytes)`` is a process generator charging the modeled
    time on the (possibly contended) link between two node indices.
    """

    def __init__(self, env: Environment, spec: FabricSpec, boards: Dict[int, int]):
        """``boards`` maps node index -> board index (locality tiers)."""
        self.env = env
        self.spec = spec
        self.boards = dict(boards)
        # Per-node injection/ejection ports: a node's NIC moves one message in
        # each direction at a time (full duplex), so fan-out sends serialise
        # at the sender — the property that makes pairwise-exchange all-to-all
        # competitive with naive flooding.
        self._inject: Dict[int, Resource] = {}
        self._eject: Dict[int, Resource] = {}
        self._shared: Resource = Resource(env, capacity=max(1, spec.shared_channels))
        #: Optional FaultInjector consulted on every transfer.
        self.faults = None

    def same_board(self, src: int, dst: int) -> bool:
        return self.boards.get(src) == self.boards.get(dst)

    def attach_node(self, node: int, board: int) -> None:
        """Register (or re-register) a node's locality; ports stay lazy."""
        self.boards[node] = board

    def detach_node(self, node: int) -> int:
        """Drop a removed node's NIC ports, forcing fresh (idle) Resources on
        re-attach.  In-flight transfers through the old ports keep their held
        slots in the orphaned objects, so replacement hardware at the same
        index starts with clean port capacity.  Returns the number of stranded
        slots/queued requests discarded with the old ports."""
        stranded = 0
        for table in (self._inject, self._eject):
            port = table.pop(node, None)
            if port is not None:
                stranded += port.count + port.queue_length
        return stranded

    def transfer_time(self, src: int, dst: int, nbytes: float) -> float:
        """Uncontended transfer time between two nodes."""
        if src == dst:
            # Loopback: charged by the caller as a memory copy, not here.
            return 0.0
        return self.spec.link_for(self.same_board(src, dst)).transfer_time(nbytes)

    def _port(self, table: Dict[int, Resource], node: int) -> Resource:
        port = table.get(node)
        if port is None:
            port = Resource(self.env, capacity=1)
            table[node] = port
        return port

    def _acquire(self, resource: Resource):
        """Sub-generator: interrupt-safe resource acquisition.

        An exception thrown while suspended on the request (fault-recovery
        interrupts) cancels the request so the port is never leaked.
        """
        req = resource.request()
        try:
            yield req
        except BaseException:
            resource.cancel(req)
            raise

    def route(self, src: int, dst: int, nbytes: float):
        """Admit one crossing: ``(duration, inject, shared, eject)``.

        Consults the fault layer (both endpoints alive, link up — raising
        :class:`~repro.machine.faults.NodeFailure` /
        :class:`~repro.machine.faults.LinkFailure` otherwise), then prices
        the wire time over the possibly degraded, possibly jittery link.
        The three resources are to be acquired in the order returned and
        held for ``duration``; ``shared`` is None unless the hop crosses a
        shared medium.  Loopback (``src == dst``) returns None: the caller
        charges it as a memory copy.
        """
        faults = self.faults
        if faults is not None:
            faults.check_node(src)
            faults.check_node(dst)
            faults.check_link(src, dst)
        if src == dst:
            return None
        boards = self.boards  # same_board(), inlined: once per message
        same_board = boards.get(src) == boards.get(dst)
        link = self.spec.link_for(same_board)
        factor = faults.link_factor(src, dst) if faults is not None else 1.0
        duration = link.sw_overhead + link.latency + nbytes / (link.bandwidth * factor)
        if faults is not None:
            # Gray-failure jitter: seeded extra wire latency on noisy links.
            duration += faults.sample_jitter(src, dst)
        inject = self._port(self._inject, src)
        eject = self._port(self._eject, dst)
        shared = None if self.spec.crossbar or same_board else self._shared
        return duration, inject, shared, eject

    def verdict(self, src: int, dst: int, nbytes: float) -> TransferOutcome:
        """The fault layer's ruling on a crossing whose wire time has just
        elapsed (destination still alive, link still up, seeded loss and
        corruption draws)."""
        faults = self.faults
        if faults is None:
            return _CLEAN
        if not faults.alive(dst):
            return TransferOutcome(delivered=False, reason=f"node {dst} died in flight")
        if not faults.link_up(src, dst):
            return TransferOutcome(
                delivered=False, reason=f"link {src}<->{dst} dropped in flight"
            )
        outcome = faults.sample_delivery(src, dst, nbytes)
        if outcome == "lost":
            return TransferOutcome(delivered=False, reason="message lost")
        if outcome == "corrupted":
            return TransferOutcome(corrupted=True, reason="message corrupted")
        return _CLEAN

    def transfer(self, src: int, dst: int, nbytes: float):
        """Generator: move ``nbytes`` from ``src`` to ``dst``, with contention.

        Acquisition order is inject -> shared medium -> eject (a fixed
        hierarchy, so concurrent transfers can never deadlock); the message
        holds all its resources for the full wire time, modelling wormhole
        head-of-line blocking.

        Returns a :class:`TransferOutcome`.  With a fault layer installed,
        the transfer may raise :class:`~repro.machine.faults.NodeFailure` /
        :class:`~repro.machine.faults.LinkFailure` at injection time, run
        slower over a degraded link, or come back undelivered/corrupted.
        """
        route = self.route(src, dst, nbytes)
        if route is None:
            return _CLEAN
        duration, inject, shared, eject = route
        yield from self._acquire(inject)
        try:
            if shared is not None:
                yield from self._acquire(shared)
            try:
                yield from self._acquire(eject)
                try:
                    yield self.env.timeout(duration)
                finally:
                    eject.release()
            finally:
                if shared is not None:
                    shared.release()
        finally:
            inject.release()
        # (the None test only spares clean fabrics the call: repro.mpi's path)
        return _CLEAN if self.faults is None else self.verdict(src, dst, nbytes)
