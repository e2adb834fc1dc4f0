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

Every message, whoever sends it, crosses the fabric as a :class:`Crossing`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

from .faults import LinkFailure
from .simulator import CallbackProcess, Environment, Resource

__all__ = ["LinkSpec", "FabricSpec", "Fabric", "TransferOutcome", "Crossing"]


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

    def __str__(self) -> str:
        return self.reason


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
    """A fabric bound to a simulation environment: link costs, per-node NIC
    ports and the fault layer's rulings, for every :class:`Crossing`."""

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
        """Uncontended time of a crossing; 0 for loopback (the caller's copy)."""
        return 0.0 if src == dst else self.wire_time(src, dst, nbytes)

    def wire_time(self, src: int, dst: int, nbytes: float) -> float:
        """Jitter-free wire time of one crossing over the possibly degraded
        link: ``sw_overhead + latency + nbytes / (bandwidth * factor)``."""
        boards = self.boards  # same_board(), inlined: once per message
        link = self.spec.link_for(boards.get(src) == boards.get(dst))
        faults = self.faults
        factor = faults.link_factor(src, dst) if faults is not None else 1.0
        return link.sw_overhead + link.latency + nbytes / (link.bandwidth * factor)

    def _port(self, table: Dict[int, Resource], node: int) -> Resource:
        port = table.get(node)
        if port is None:
            port = Resource(self.env, capacity=1)
            table[node] = port
        return port

    def route(self, src: int, dst: int, nbytes: float):
        """Admit one crossing: ``(duration, inject, shared, eject)``, to be
        acquired in that order (``shared`` is None off a shared medium) and
        held for ``duration``, the wire time plus seeded gray-failure jitter.
        Raises ``NodeFailure`` / ``LinkFailure`` for a dead endpoint or a
        down link; returns None for loopback (the caller's memory copy).
        """
        faults = self.faults
        if faults is not None:
            faults.check_node(src)
            faults.check_node(dst)
            faults.check_link(src, dst)
        if src == dst:
            return None
        duration = self.wire_time(src, dst, nbytes)
        if faults is not None:
            # Gray-failure jitter: seeded extra wire latency on noisy links.
            duration += faults.sample_jitter(src, dst)
        inject = self._port(self._inject, src)
        eject = self._port(self._eject, dst)
        shared = None if self.spec.crossbar or self.same_board(src, dst) else self._shared
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
            return TransferOutcome(False, reason=f"link {src}<->{dst} dropped in flight")
        outcome = faults.sample_delivery(src, dst, nbytes)
        if outcome == "lost":
            return TransferOutcome(delivered=False, reason="message lost")
        if outcome == "corrupted":
            return TransferOutcome(corrupted=True, reason="message corrupted")
        return _CLEAN


class Crossing(CallbackProcess):
    """One message from ``src`` to ``dst``, starting itself: ``Fabric.route``,
    inject -> [shared] -> eject held for the wire time, ``Fabric.verdict``,
    then retry or finish (the stage table is in ``docs/RUNTIME.md``).

    A :class:`~repro.machine.simulator.CallbackProcess`: ``done`` fires with
    the accepted :class:`TransferOutcome` (nothing if cancelled).  Senders
    subclass it: ``attempts``/``backoff``/``factor`` and the hooks below are
    their retry rule and their own stages."""

    __slots__ = ("fabric", "src", "dst", "nbytes", "_attempt", "_attempts",
                 "_delay", "_factor")

    #: A delivered-but-corrupted payload arrives (the receiver checks it).
    corrupt_ok = False

    def __init__(self, env: Environment, fabric: Fabric, src: int, dst: int,
                 nbytes: float, attempts: int = 1, backoff: float = 0.0,
                 factor: float = 1.0):
        self.fabric = fabric
        self.src, self.dst, self.nbytes = src, dst, nbytes
        self._attempt, self._attempts = 1, attempts
        self._delay, self._factor = backoff, factor
        CallbackProcess.__init__(self, env)

    # -- the crossing ---------------------------------------------------------
    def _cross(self) -> None:
        """One attempt: admission, then the ports held for the wire time."""
        try:
            route = self.fabric.route(self.src, self.dst, self.nbytes)
        except LinkFailure as exc:
            self._failed(exc)  # outages may heal; node crashes propagate
            return
        if route is None:  # loopback: nothing crosses the fabric
            self._arrive(_CLEAN)
            return
        duration, inject, shared, eject = route
        chain = (inject, eject) if shared is None else (inject, shared, eject)
        self._hold(chain, duration, self._crossed)

    def _crossed(self) -> None:
        outcome = self.fabric.verdict(self.src, self.dst, self.nbytes)
        if outcome.ok or (self.corrupt_ok and outcome.delivered):
            self._arrive(outcome)
        else:
            self._failed(outcome)

    def _failed(self, failure: Any) -> None:
        """The one retry loop (an ack-protocol model: the sender observes
        the verdict): back off and cross again while attempts last."""
        if self._attempt >= self._attempts:
            self._undelivered(failure)
            return
        delay = self._delay
        self._delay *= self._factor
        sleep = self._backoff(failure, delay)
        self._attempt += 1
        if sleep > 0:
            self._hold((), sleep, self._cross)
        else:
            self._cross()

    _begin = _cross

    # -- the sender's hooks ---------------------------------------------------
    def _backoff(self, failure: Any, delay: float) -> float:
        """Record a retry of ``failure``; return the sleep before it."""
        return delay

    def _arrive(self, outcome: TransferOutcome) -> None:
        self._finish(outcome)

    def _undelivered(self, failure: Any) -> None:
        """Out of attempts on ``failure`` (a ``LinkFailure`` or a verdict):
        raise, or finish without an arrival."""
        if isinstance(failure, BaseException):
            raise failure
        self._finish(failure)
