"""Deterministic fault injection for the simulated machine.

The paper's target systems — VxWorks signal processors on embedded fabrics —
treat node and fabric failures as first-class design concerns.  This module
lets a simulation declare the faults a deployment would have to survive:

* **Node crash** — the processor dies at virtual time *t*; every subsequent
  (or in-progress) operation charged to it raises :class:`NodeFailure`.
  Crashes are revivable by a recovery layer (modelling a process restart)
  unless declared ``permanent``.
* **Node hang** — the processor freezes for a duration: its CPU resource is
  held, so all work charged to it stalls and then resumes (transient).
* **Link drop** — the (undirected) link between two nodes goes down, either
  forever or for a duration; transfers over it raise :class:`LinkFailure`.
* **Link degradation** — the link's bandwidth is multiplied by a factor in
  (0, 1]; transfers complete but slower (degraded mode).
* **Message loss / corruption** — each fabric transfer is independently
  lost or corrupted with a configured probability, drawn from a seeded RNG.
* **Node slowdown** — a *gray* failure: the processor keeps answering but
  its CPU runs at a fraction of nominal rate (a "limping" node, distinct
  from a binary hang).  Liveness checks pass; only progress measurement
  notices.
* **Link jitter** — each transfer over the link pays extra latency drawn
  from a seeded exponential distribution (mean ``sigma``); the link is up,
  just noisy.
* **Link flap** — seeded degrade/restore cycles: the link alternates
  between degraded (or fully down, ``factor=0``) and healthy every half
  ``period`` for ``cycles`` cycles.

Determinism
-----------
A :class:`FaultPlan` is pure data plus a seed.  Scheduled faults fire at
exact virtual times through the simulator's totally-ordered event queue, and
probabilistic draws happen in simulation event order from a private
``random.Random(seed)`` — so two runs of the same plan on the same workload
produce bit-identical timelines, traces, and reports.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, List, Optional, Tuple

from .simulator import CallbackProcess, Environment, Resource, Timer

__all__ = [
    "FaultError",
    "NodeFailure",
    "LinkFailure",
    "TransientError",
    "NodeCrash",
    "NodeHang",
    "NodeJoin",
    "NodeSlow",
    "LinkDrop",
    "LinkDegrade",
    "LinkJitter",
    "LinkFlap",
    "FaultPlan",
    "FaultInjector",
    "DELIVERED",
    "LOST",
    "CORRUPTED",
]

#: Delivery verdicts returned by :meth:`FaultInjector.sample_delivery`.
DELIVERED = "delivered"
LOST = "lost"
CORRUPTED = "corrupted"


class FaultError(RuntimeError):
    """Base class for injected-fault failures."""


class NodeFailure(FaultError):
    """An operation touched a crashed node."""

    def __init__(self, node: int, failed_at: float, observed_at: float):
        super().__init__(
            f"node {node} crashed at t={failed_at:.6f} "
            f"(observed at t={observed_at:.6f})"
        )
        self.node = node
        self.failed_at = failed_at
        self.observed_at = observed_at


class LinkFailure(FaultError):
    """A transfer was attempted over a downed link."""

    def __init__(self, src: int, dst: int, down_since: float, observed_at: float):
        super().__init__(
            f"link {src}<->{dst} down since t={down_since:.6f} "
            f"(observed at t={observed_at:.6f})"
        )
        self.src = src
        self.dst = dst
        self.down_since = down_since
        self.observed_at = observed_at


class TransientError(FaultError):
    """A recoverable, retry-worthy failure (e.g. a flaky kernel invocation)."""


def _check_time(at: float) -> float:
    if at < 0:
        raise ValueError(f"fault time must be non-negative, got {at!r}")
    return float(at)


@dataclass(frozen=True)
class NodeCrash:
    """Node ``node`` dies at time ``at``; revivable unless ``permanent``."""

    node: int
    at: float
    permanent: bool = False

    def __post_init__(self):
        _check_time(self.at)


@dataclass(frozen=True)
class NodeHang:
    """Node ``node`` freezes at ``at`` for ``duration`` seconds."""

    node: int
    at: float
    duration: float

    def __post_init__(self):
        _check_time(self.at)
        if self.duration <= 0:
            raise ValueError("hang duration must be positive")


@dataclass(frozen=True)
class NodeJoin:
    """Node ``node`` becomes available at ``at``.

    Two cases, distinguished by the state of the index when the event fires:
    an index holding a (permanently) crashed node models *replacement
    hardware* slotted into the same chassis position — the old occupant's
    fault state is discharged and the node resets to power-on state; an index
    beyond the current cluster size models brand-new capacity.  Either way the
    hardware merely becomes reachable: admission into the running application
    is the membership protocol's job (see ``FailureDetector.request_join``).
    """

    node: int
    at: float

    def __post_init__(self):
        _check_time(self.at)


@dataclass(frozen=True)
class NodeSlow:
    """Node ``node`` limps at ``factor`` × nominal CPU rate from ``at``.

    A gray failure: the node still heartbeats, acks, and completes work —
    just slowly.  ``duration=None`` means the slowdown is sustained until
    the node is replaced (or the run ends); otherwise it recovers after
    ``duration`` seconds.  Operations *in flight* when the slowdown starts
    complete at their original rate (the modelled cost was already
    committed to the event queue); everything dispatched afterwards pays.
    """

    node: int
    at: float
    factor: float
    duration: Optional[float] = None

    def __post_init__(self):
        _check_time(self.at)
        if not (0 < self.factor <= 1):
            raise ValueError("slow factor must be in (0, 1]")
        if self.duration is not None and self.duration <= 0:
            raise ValueError("slow duration must be positive or None")


@dataclass(frozen=True)
class LinkDrop:
    """The ``a``–``b`` link goes down at ``at`` (forever if duration None)."""

    a: int
    b: int
    at: float
    duration: Optional[float] = None

    def __post_init__(self):
        _check_time(self.at)
        if self.duration is not None and self.duration <= 0:
            raise ValueError("drop duration must be positive or None")


@dataclass(frozen=True)
class LinkDegrade:
    """The ``a``–``b`` link's bandwidth is multiplied by ``factor``."""

    a: int
    b: int
    at: float
    factor: float
    duration: Optional[float] = None

    def __post_init__(self):
        _check_time(self.at)
        if not (0 < self.factor <= 1):
            raise ValueError("degrade factor must be in (0, 1]")
        if self.duration is not None and self.duration <= 0:
            raise ValueError("degrade duration must be positive or None")


@dataclass(frozen=True)
class LinkJitter:
    """Transfers over ``a``–``b`` pay extra seeded latency (mean ``sigma``).

    Each transfer draws an exponential extra delay with mean ``sigma``
    seconds from the injector's gray-failure RNG — a separate stream from
    the loss/corruption RNG, so arming jitter never perturbs the delivery
    draws of an existing plan.
    """

    a: int
    b: int
    at: float
    sigma: float
    duration: Optional[float] = None

    def __post_init__(self):
        _check_time(self.at)
        if self.sigma <= 0:
            raise ValueError("jitter sigma must be positive")
        if self.duration is not None and self.duration <= 0:
            raise ValueError("jitter duration must be positive or None")


@dataclass(frozen=True)
class LinkFlap:
    """The ``a``–``b`` link flaps: degraded/healthy cycles from ``at``.

    Each cycle lasts ``period`` seconds: down-phase first (bandwidth ×
    ``factor``; ``factor=0`` means fully down) for half the period, then
    healthy for the other half, repeated ``cycles`` times.
    """

    a: int
    b: int
    at: float
    period: float
    factor: float = 0.0
    cycles: int = 3

    def __post_init__(self):
        _check_time(self.at)
        if self.period <= 0:
            raise ValueError("flap period must be positive")
        if not (0 <= self.factor <= 1):
            raise ValueError("flap factor must be in [0, 1]")
        if self.cycles < 1:
            raise ValueError("flap cycles must be >= 1")


class FaultPlan:
    """A seeded, declarative schedule of faults to inject into one run.

    Builder methods chain::

        plan = (FaultPlan(seed=7)
                .crash_node(2, at=0.5)
                .degrade_link(0, 1, at=0.0, factor=0.25)
                .message_loss(0.05))
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self.events: List[Any] = []
        self.loss_rate: float = 0.0
        self.corruption_rate: float = 0.0

    # -- builders --------------------------------------------------------
    def crash_node(self, node: int, at: float, permanent: bool = False) -> "FaultPlan":
        self.events.append(NodeCrash(node, at, permanent))
        return self

    def hang_node(self, node: int, at: float, duration: float) -> "FaultPlan":
        self.events.append(NodeHang(node, at, duration))
        return self

    def join_node(self, node: int, at: float) -> "FaultPlan":
        """Replacement/new hardware at ``node`` powers on at time ``at``."""
        self.events.append(NodeJoin(node, at))
        return self

    def slow_node(self, node: int, at: float, factor: float,
                  duration: Optional[float] = None) -> "FaultPlan":
        """Node limps at ``factor`` × nominal CPU rate (gray failure)."""
        self.events.append(NodeSlow(node, at, factor, duration))
        return self

    def drop_link(self, a: int, b: int, at: float,
                  duration: Optional[float] = None) -> "FaultPlan":
        self.events.append(LinkDrop(a, b, at, duration))
        return self

    def jitter_link(self, a: int, b: int, at: float, sigma: float,
                    duration: Optional[float] = None) -> "FaultPlan":
        """Seeded exponential extra latency (mean ``sigma``) per transfer."""
        self.events.append(LinkJitter(a, b, at, sigma, duration))
        return self

    def flap_link(self, a: int, b: int, at: float, period: float,
                  factor: float = 0.0, cycles: int = 3) -> "FaultPlan":
        """Degrade/restore cycles every half ``period``, ``cycles`` times."""
        self.events.append(LinkFlap(a, b, at, period, factor, cycles))
        return self

    def degrade_link(self, a: int, b: int, at: float, factor: float,
                     duration: Optional[float] = None) -> "FaultPlan":
        self.events.append(LinkDegrade(a, b, at, factor, duration))
        return self

    def message_loss(self, rate: float) -> "FaultPlan":
        if not (0 <= rate < 1):
            raise ValueError("loss rate must be in [0, 1)")
        self.loss_rate = float(rate)
        return self

    def message_corruption(self, rate: float) -> "FaultPlan":
        if not (0 <= rate < 1):
            raise ValueError("corruption rate must be in [0, 1)")
        self.corruption_rate = float(rate)
        return self

    @property
    def is_empty(self) -> bool:
        return not self.events and not self.loss_rate and not self.corruption_rate

    def describe(self) -> str:
        parts = [type(e).__name__ for e in self.events]
        if self.loss_rate:
            parts.append(f"loss={self.loss_rate:g}")
        if self.corruption_rate:
            parts.append(f"corrupt={self.corruption_rate:g}")
        return f"FaultPlan(seed={self.seed}, {', '.join(parts) or 'empty'})"


class _Hang(CallbackProcess):
    """A hung node: its CPU held for ``duration``, so work charged to it
    stalls and then resumes."""

    __slots__ = ("_cpu", "_for")

    def __init__(self, env: Environment, cpu: Resource, duration: float):
        super().__init__(env)
        self._cpu, self._for = cpu, duration

    def _begin(self) -> None:
        self._hold((self._cpu,), self._for, self._finish)


def _link_key(a: int, b: int) -> Tuple[int, int]:
    """Links are undirected: both directions share fault state."""
    return (a, b) if a <= b else (b, a)


#: Each timed fault's injector methods: the one applying it at ``at``, and
#: the one clearing it ``duration`` later (None: it is never cleared).
#: A :class:`LinkFlap` schedules its cycles itself.
_ACTIONS = {
    NodeCrash: ("_apply_crash", None),
    NodeHang: ("_apply_hang", None),
    NodeJoin: ("_apply_join", None),
    LinkDrop: ("_apply_drop", "_clear_drop"),
    LinkDegrade: ("_apply_degrade", "_clear_degrade"),
    NodeSlow: ("_apply_slow", "_clear_slow"),
    LinkJitter: ("_apply_jitter", "_clear_jitter"),
}


class FaultInjector:
    """Live fault state for one simulation, driven by a :class:`FaultPlan`.

    The cluster installs the injector; nodes and the fabric then consult it
    on every operation.  ``log`` records every applied fault (and every
    sampled loss/corruption) as ``(time, kind, detail)`` tuples, and
    listeners subscribed via :meth:`subscribe` are called synchronously —
    the runtime uses this to emit ``fault_injected`` trace probes.
    """

    def __init__(self, env: Environment, plan: FaultPlan):
        self.env = env
        self.plan = plan
        self._rng = random.Random(plan.seed)
        # Gray-failure draws (jitter) come from a *separate* seeded stream
        # so arming them never perturbs the loss/corruption draw order of
        # an existing plan (golden traces stay byte-identical).
        self._gray_rng = random.Random(plan.seed ^ 0x9E3779B9)
        self._dead: dict = {}        # node -> (failed_at, permanent)
        self._down: dict = {}        # link key -> down_since
        self._degrade: dict = {}     # link key -> factor
        self._slow: dict = {}        # node -> cpu factor
        self._jitter: dict = {}      # link key -> mean extra latency (s)
        self.log: List[Tuple[float, str, str]] = []
        self._listeners: List[Callable[[float, str, str, int], None]] = []
        self.cluster = None
        #: Node indices whose NodeJoin events have fired, in event order.
        self.joined: List[int] = []

    # -- wiring ----------------------------------------------------------
    def install(self, cluster) -> None:
        """Bind to a cluster and start the fault schedule."""
        self.cluster = cluster
        cluster.faults = self
        cluster.fabric.faults = self
        for node in cluster.nodes:
            node.faults = self
        actions = []
        for order, ev in enumerate(self.plan.events):
            if isinstance(ev, LinkFlap):
                half = ev.period / 2.0
                for cycle in range(ev.cycles):
                    start = ev.at + cycle * ev.period
                    actions.append(
                        (start, order, partial(self._apply_flap_down, ev, cycle)))
                    actions.append(
                        (start + half, order, partial(self._apply_flap_up, ev, cycle)))
                continue
            apply, clear = _ACTIONS[type(ev)]
            actions.append((ev.at, order, partial(getattr(self, apply), ev)))
            if clear is not None and ev.duration is not None:
                actions.append((ev.at + ev.duration, order,
                                partial(getattr(self, clear), ev)))
        if actions:
            actions.sort(key=lambda a: (a[0], a[1]))
            first = actions[0][0] - self.env.now
            Timer(self.env, partial(self._apply_due, deque(actions)),
                  first if first > 0 else None)

    def subscribe(self, fn: Callable[[float, str, str, int], None]) -> None:
        """``fn(time, kind, detail, node)`` is called for every applied fault."""
        self._listeners.append(fn)

    def _record(self, kind: str, detail: str, node: int = -1) -> None:
        now = self.env.now
        self.log.append((now, kind, detail))
        for fn in self._listeners:
            fn(now, kind, detail, node)

    # -- schedule execution ----------------------------------------------
    def _apply_due(self, actions: deque) -> Optional[float]:
        """Apply the action the schedule waited for and every later one due
        by now; return the wait for the next, or None when none is left."""
        actions.popleft()[2]()
        while actions and actions[0][0] <= self.env.now:
            actions.popleft()[2]()
        return actions[0][0] - self.env.now if actions else None

    def _apply_crash(self, ev: NodeCrash) -> None:
        self._dead[ev.node] = (self.env.now, ev.permanent)
        self._record(
            "node_crash",
            f"node {ev.node}{' (permanent)' if ev.permanent else ''}",
            ev.node,
        )

    def _apply_join(self, ev: NodeJoin) -> None:
        detail = f"node {ev.node}"
        replacement = ev.node in self._dead
        if replacement:
            # Replacement hardware at a dead index discharges the crash.
            del self._dead[ev.node]
            detail += " (replacement)"
        # Fresh hardware in the slot never inherits a limp.
        self._slow.pop(ev.node, None)
        if self.cluster is not None:
            if ev.node >= len(self.cluster):
                self.cluster.add_node(index=ev.node)
                detail += " (new capacity)"
            elif replacement:
                # Reset the slot; a join for a healthy index is a no-op
                # beyond the announcement (never clobber live hardware).
                self.cluster.add_node(index=ev.node)
        self.joined.append(ev.node)
        self._record("node_join", detail, ev.node)

    def _apply_hang(self, ev: NodeHang) -> None:
        node = self.cluster.node(ev.node)
        self._record("node_hang", f"node {ev.node} for {ev.duration:g}s", ev.node)
        _Hang(self.env, node.cpu, ev.duration)

    def _apply_slow(self, ev: NodeSlow) -> None:
        self._slow[ev.node] = ev.factor
        self._record("node_slow", f"node {ev.node} x{ev.factor:g}", ev.node)

    def _clear_slow(self, ev: NodeSlow) -> None:
        self._slow.pop(ev.node, None)
        self._record("node_recover", f"node {ev.node}", ev.node)

    def _apply_jitter(self, ev: LinkJitter) -> None:
        self._jitter[_link_key(ev.a, ev.b)] = ev.sigma
        self._record(
            "link_jitter", f"link {ev.a}<->{ev.b} sigma={ev.sigma:g}s", ev.a
        )

    def _clear_jitter(self, ev: LinkJitter) -> None:
        self._jitter.pop(_link_key(ev.a, ev.b), None)
        self._record("link_restore", f"link {ev.a}<->{ev.b} jitter", ev.a)

    def _apply_flap_down(self, ev: LinkFlap, cycle: int) -> None:
        key = _link_key(ev.a, ev.b)
        if ev.factor == 0:
            self._down[key] = self.env.now
        else:
            self._degrade[key] = ev.factor
        self._record(
            "link_flap",
            f"link {ev.a}<->{ev.b} down (cycle {cycle + 1}/{ev.cycles})",
            ev.a,
        )

    def _apply_flap_up(self, ev: LinkFlap, cycle: int) -> None:
        key = _link_key(ev.a, ev.b)
        if ev.factor == 0:
            self._down.pop(key, None)
        else:
            self._degrade.pop(key, None)
        self._record(
            "link_restore",
            f"link {ev.a}<->{ev.b} flap (cycle {cycle + 1}/{ev.cycles})",
            ev.a,
        )

    def _apply_drop(self, ev: LinkDrop) -> None:
        self._down[_link_key(ev.a, ev.b)] = self.env.now
        self._record("link_drop", f"link {ev.a}<->{ev.b}", ev.a)

    def _clear_drop(self, ev: LinkDrop) -> None:
        self._down.pop(_link_key(ev.a, ev.b), None)
        self._record("link_restore", f"link {ev.a}<->{ev.b}", ev.a)

    def _apply_degrade(self, ev: LinkDegrade) -> None:
        self._degrade[_link_key(ev.a, ev.b)] = ev.factor
        self._record(
            "link_degrade", f"link {ev.a}<->{ev.b} x{ev.factor:g}", ev.a
        )

    def _clear_degrade(self, ev: LinkDegrade) -> None:
        self._degrade.pop(_link_key(ev.a, ev.b), None)
        self._record("link_restore", f"link {ev.a}<->{ev.b} bandwidth", ev.a)

    # -- queries used by nodes / fabric ----------------------------------
    def alive(self, node: int) -> bool:
        return node not in self._dead

    def check_node(self, node: int) -> None:
        info = self._dead.get(node)
        if info is not None:
            raise NodeFailure(node, info[0], self.env.now)

    def check_link(self, src: int, dst: int) -> None:
        since = self._down.get(_link_key(src, dst))
        if since is not None:
            raise LinkFailure(src, dst, since, self.env.now)

    def link_up(self, src: int, dst: int) -> bool:
        return _link_key(src, dst) not in self._down

    def link_factor(self, src: int, dst: int) -> float:
        return self._degrade.get(_link_key(src, dst), 1.0)

    def cpu_factor(self, node: int) -> float:
        """Current CPU rate multiplier for ``node`` (1.0 = full speed)."""
        return self._slow.get(node, 1.0)

    def sample_jitter(self, src: int, dst: int) -> float:
        """Seeded extra latency for one transfer over ``src``–``dst``.

        Returns 0.0 — without consuming a draw — when the link has no
        jitter armed, so un-jittered plans are RNG-order-identical to
        pre-gray-failure builds.
        """
        sigma = self._jitter.get(_link_key(src, dst))
        if not sigma:
            return 0.0
        return self._gray_rng.expovariate(1.0 / sigma)

    def sample_delivery(self, src: int, dst: int, nbytes: float) -> str:
        """Deterministic per-transfer loss/corruption draw."""
        if self.plan.loss_rate and self._rng.random() < self.plan.loss_rate:
            self._record(
                "message_loss", f"{src}->{dst} {int(nbytes)}B", src
            )
            return LOST
        if (self.plan.corruption_rate
                and self._rng.random() < self.plan.corruption_rate):
            self._record(
                "message_corruption", f"{src}->{dst} {int(nbytes)}B", src
            )
            return CORRUPTED
        return DELIVERED

    # -- recovery hooks ---------------------------------------------------
    def revive(self, node: int) -> bool:
        """Bring a crashed node back (a restarted process); False if permanent."""
        info = self._dead.get(node)
        if info is None:
            return True
        if info[1]:  # permanent
            return False
        del self._dead[node]
        self._record("node_revive", f"node {node}", node)
        return True

    def revive_all(self) -> List[int]:
        """Revive every non-permanently crashed node; returns the revived."""
        revived = [n for n in sorted(self._dead) if not self._dead[n][1]]
        for n in revived:
            self.revive(n)
        return revived

    @property
    def dead_nodes(self) -> List[int]:
        return sorted(self._dead)
