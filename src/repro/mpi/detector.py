"""Heartbeat/gossip failure detection over the simulated fabric.

PR 1's fault tolerance *reacted* to failures: an operation touching a dead
node raised, or a receive timed out.  Real HPC runtimes detect failures
proactively — every node periodically heartbeats its peers and silence, not
an oracle, marks a rank dead.  :class:`FailureDetector` is that service:

* **Heartbeats** — each node, every ``period`` virtual seconds, sends a
  small out-of-band ping to every peer.  Pings travel the same links as
  data (charged the link's latency/bandwidth model, degraded-link slowdown
  included, and subject to the plan's seeded message loss and link outages)
  but bypass the NIC injection/ejection ports, modelling the dedicated
  low-priority heartbeat channel of real RAS networks — application
  congestion alone can never starve the detector into a false positive.
* **Silence check** — on the same tick, right after sending, each node
  checks how long each peer has been silent.  Silence beyond ``miss_grace``
  periods increments a suspicion counter (a ``suspect`` event on the first
  miss); ``threshold`` consecutive misses declare the peer dead
  (``declare_dead``).  Any heartbeat resets the counter.
* **Gossip** — each ping piggybacks the sender's set of declared-dead ranks.
  A receiver adopts a gossiped death only when its own silence corroborates
  it (no heartbeat from the accused within the grace window), so a partition
  between one pair cannot poison observers that still hear the accused rank;
  when the accused really is dead, gossip short-circuits the remaining
  misses and detection converges cluster-wide in O(1) gossip hops.

Views are **per-observer**: rank *r*'s opinion of who is dead lives in
``view(r)`` and observers may transiently disagree (exactly like a real
gossip detector).  Nothing consults the injector's ground truth to *decide*
— it is only used to emit/receive pings, so detection latency and false
positives are honest, measurable quantities (see the R2 ``reconfiguration``
experiment).

* **Join/admission** — membership is elastic.  A new (or replacement) node
  announces itself over the same out-of-band channel to every known rank;
  the *coordinator* — the lowest rank each receiver believes alive — answers
  with an admission ack, and on receipt the joiner is absorbed: every
  observer's view gains (or resets) the rank, its detector processes start,
  and its death event re-arms.  Announces and acks pay real wire time
  and are subject to the same loss model as heartbeats, so the joiner
  retries each admission window until acked (``join_announce`` / ``admit``
  events; see ``docs/ELASTICITY.md``).

* **Adaptive suspicion (gray failures)** — with ``adaptive=True`` the grace
  window is no longer the fixed ``miss_grace * period``: each observer keeps
  a Jacobson/Karels estimator of every peer's heartbeat *inter-arrival*
  time, and silence is judged against ``mean + phi * dev`` (clamped between
  the configured grace and ``max_grace_periods``).  A degraded or jittery
  link stretches the observed intervals, the grace stretches with them, and
  the detector stops false-positiving — the phi-accrual idea.
* **RTT probes / suspected_slow** — with ``rtt_probe_every > 0`` each rank
  round-trips a probe to one live peer per window (round-robin, staggered
  by rank so the aggregate load stays O(n)); the *ack charges real CPU on
  the target node*, so a limping processor (``slow_node``) inflates the
  measured RTT even though its link is healthy.  The probe body is a fixed
  benchmark of known nominal cost: acks whose measured *service time*
  exceeds ``slow_factor ×`` that nominal are slow samples (wire latency
  cancels out, and an idle-but-limping node stays visible); streaks pool
  cluster-wide, and ``slow_threshold`` consecutive slow
  samples raise a ``suspect_slow`` state (distinct from
  ``suspected``/``dead`` — the rank is alive, just limping), while
  ``slow_clear_threshold`` consecutive normal samples clear it
  (``clear_slow``).  The runtime's ``migrate_stragglers`` policy drains
  and restores nodes off this signal.

Determinism: the schedule is pure virtual time and the only randomness is
the fault plan's own seeded per-message loss draw, taken in simulation event
order — identical seed + config reproduce bit-identical detection times.

Cost: the channel runs on engine callbacks, not processes.  Per rank and
period it takes one tick, one start event for the round's messages and one
arrival per distinct wire time (see ``docs/DETECTION.md``).  Each rank's tick
and RTT prober, and each joiner, is a :class:`~repro.machine.simulator.Timer`;
each probe is a :class:`~repro.machine.simulator.CallbackProcess`.
:meth:`FailureDetector.stop` and :meth:`FailureDetector.clear` *cancel* them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..machine.cluster import SimCluster
from ..machine.simulator import CallbackProcess, Environment, Event, Timer
from .adaptive import RttEstimator

__all__ = ["HeartbeatConfig", "FailureDetector", "DetectorEvent"]

#: Kinds of detector events reported to listeners / kept in the log.
DETECTOR_EVENT_KINDS = (
    "suspect", "clear_suspect", "declare_dead", "join_announce", "admit",
    "suspect_slow", "clear_slow",
)


@dataclass(frozen=True)
class HeartbeatConfig:
    """Tuning knobs of the heartbeat failure detector.

    Attributes
    ----------
    period:
        Virtual seconds between heartbeat rounds (emit and monitor both tick
        at this rate).
    miss_grace:
        Silence longer than ``miss_grace * period`` counts as a missed
        heartbeat (values > 1 absorb wire time and tick skew).
    threshold:
        Consecutive missed-heartbeat ticks before a peer is declared dead.
        Expected detection latency after a crash is roughly
        ``(miss_grace + threshold) * period``; raising it trades latency for
        robustness to message loss.
    ping_bytes:
        Modelled heartbeat payload size (charges the link bandwidth term).
    adaptive:
        When True, the silence grace per peer is derived from the observed
        heartbeat inter-arrival estimate (``mean + phi * dev``) instead of
        the fixed ``miss_grace * period`` — degraded/jittery links stretch
        the grace instead of tripping it.  The fixed grace stays the floor
        and ``max_grace_periods * period`` the ceiling.  Off by default:
        legacy configs behave byte-identically.
    phi:
        Deviation multiplier for the adaptive grace (Jacobson's k=4).
    peak_margin:
        Adaptive-grace floor as a multiple of the peer's decaying *peak*
        inter-arrival gap.  ``mean + phi * dev`` converges back toward the
        per-sample jitter under random loss, but loss *streaks* recur: a
        gap the channel has already survived once must not read as death
        the next time.  Values > 1 leave headroom above the worst observed
        gap.
    max_grace_periods:
        Upper clamp of the adaptive grace, in periods — a limping-but-alive
        peer can stretch patience only so far before real suspicion.
    rtt_probe_every:
        Every ``rtt_probe_every`` periods each rank round-trips an RTT
        probe to one live peer (round-robin); the ack charges ``probe_cpu``
        seconds on the target's (possibly limping, possibly contended)
        CPU.  0 disables probing — the default, so legacy runs schedule no
        new events.
    probe_cpu:
        CPU seconds a target spends producing a probe ack.  This is what
        makes a ``slow_node`` visible: its ack is stretched by 1/cpu_factor
        and queues behind its (slower) application work.
    slow_factor:
        A probe ack whose measured service time exceeds ``slow_factor ×``
        the nominal ``probe_cpu`` cost counts as a slow sample.
    slow_threshold:
        Consecutive slow samples (pooled across observers) before
        ``suspect_slow`` is raised.
    slow_clear_threshold:
        Consecutive normal samples (pooled) before a slow suspicion clears.
    """

    period: float = 1e-4
    miss_grace: float = 2.5
    threshold: int = 3
    ping_bytes: int = 32
    adaptive: bool = False
    phi: float = 4.0
    peak_margin: float = 2.0
    max_grace_periods: float = 20.0
    rtt_probe_every: int = 0
    probe_cpu: float = 5e-6
    slow_factor: float = 3.0
    slow_threshold: int = 3
    slow_clear_threshold: int = 2

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError("heartbeat period must be positive")
        if self.miss_grace < 1:
            raise ValueError("miss_grace must be >= 1 period")
        if self.threshold < 1:
            raise ValueError("threshold must be >= 1")
        if self.ping_bytes < 0:
            raise ValueError("ping_bytes must be non-negative")
        if self.phi < 0:
            raise ValueError("phi must be non-negative")
        if self.peak_margin < 1:
            raise ValueError("peak_margin must be >= 1")
        if self.max_grace_periods < self.miss_grace:
            raise ValueError("max_grace_periods must be >= miss_grace")
        if self.rtt_probe_every < 0:
            raise ValueError("rtt_probe_every must be >= 0 (0 disables)")
        if self.probe_cpu < 0:
            raise ValueError("probe_cpu must be non-negative")
        if self.slow_factor <= 1:
            raise ValueError("slow_factor must be > 1")
        if self.slow_threshold < 1 or self.slow_clear_threshold < 1:
            raise ValueError("slow thresholds must be >= 1")

    @property
    def window(self) -> float:
        """Approximate worst-case detection latency after a crash."""
        return (self.miss_grace + self.threshold) * self.period


@dataclass(frozen=True)
class DetectorEvent:
    """One entry of the detector's event log."""

    time: float
    kind: str       # one of DETECTOR_EVENT_KINDS
    observer: int   # the rank holding the opinion
    target: int     # the rank the opinion is about
    detail: str = ""


class _RankView:
    """One observer's live opinion of its peers."""

    __slots__ = (
        "last_heard", "suspicion", "suspected", "dead",
        "intervals", "rtt",
    )

    def __init__(self, peers: Sequence[int], start: float):
        self.last_heard: Dict[int, float] = {p: start for p in peers}
        self.suspicion: Dict[int, int] = {p: 0 for p in peers}
        self.suspected: Set[int] = set()
        self.dead: Set[int] = set()
        # -- gray-failure state (adaptive / RTT probing) ------------------
        self.intervals: Dict[int, RttEstimator] = {}   # heartbeat gaps
        self.rtt: Dict[int, RttEstimator] = {}         # probe round trips

    def reset_gray(self, peer: int) -> None:
        """Forget all latency history for ``peer`` (replaced hardware)."""
        self.intervals.pop(peer, None)
        self.rtt.pop(peer, None)


class FailureDetector:
    """A per-node heartbeat/gossip failure detection service.

    Bound to a :class:`~repro.machine.cluster.SimCluster`; ``start()``
    launches one heartbeat process (and RTT prober) per rank.  Consumers
    subscribe to ``suspect`` / ``clear_suspect`` / ``declare_dead`` events,
    wait on :meth:`death_event`, or poll :meth:`view`.  The run-time
    kernel's ``shrink_restripe`` and ``grow_restripe`` policies build on
    this service.
    """

    def __init__(self, cluster: SimCluster,
                 config: Optional[HeartbeatConfig] = None,
                 ranks: Optional[Sequence[int]] = None):
        self.cluster = cluster
        self.env: Environment = cluster.env
        self.config = config if config is not None else HeartbeatConfig()
        self.ranks: List[int] = (
            sorted(ranks) if ranks is not None else list(range(len(cluster)))
        )
        if len(self.ranks) < 2:
            raise ValueError("failure detection needs at least 2 ranks")
        self.views: Dict[int, _RankView] = {}
        self.log: List[DetectorEvent] = []
        self._listeners: List[Callable[[float, str, int, int, str], None]] = []
        self._death_events: Dict[int, Event] = {}
        self._first_declared: Dict[int, Tuple[float, int]] = {}
        self._first_slow: Dict[int, Tuple[float, int]] = {}
        # Slow-suspicion evidence is pooled cluster-wide: baselines are per
        # observer (each learns its own path's RTT), but slow/normal sample
        # streaks aggregate across observers so staggered round-robin probes
        # reach the threshold in ~threshold windows instead of
        # ~threshold × n windows.
        self._slow: Set[int] = set()
        self._slow_streak: Dict[int, int] = {}
        self._normal_streak: Dict[int, int] = {}
        # Heartbeat gaps pool detector-wide too: random message loss is a
        # fabric property, and a loss *streak* is rare per pair but common
        # across n(n-1) streams.  The pooled peak teaches every observer
        # the fabric's worst survivable gap long before its own pair
        # happens to produce one.  The decay is scaled to the pool's
        # aggregate sample rate so the watermark's lifetime matches a
        # single stream's (decay is per sample, and the pool sees n(n-1)
        # samples in the time one pair sees one).
        n = len(self.ranks)
        self._gap_pool = RttEstimator(
            peak_decay=RttEstimator.PEAK_DECAY / (n * (n - 1)))
        self._procs: Dict[int, List[Timer]] = {}
        self._started = False
        # -- join protocol state -----------------------------------------
        self._join_events: Dict[int, Event] = {}
        self._join_requested: Dict[int, float] = {}
        self._admitted: Dict[int, Tuple[float, int]] = {}
        self._announce_seen: Set[Tuple[int, int]] = set()

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "FailureDetector":
        """Launch the per-rank detector processes (idempotent)."""
        if self._started:
            return self
        self._started = True
        now = self.env.now
        for r in self.ranks:
            self.views[r] = _RankView([p for p in self.ranks if p != r], now)
            self._launch(r)
        return self

    def stop(self) -> None:
        """Cancel every detector process (end-of-run cleanup)."""
        for procs in self._procs.values():
            for proc in procs:
                if not proc.done.triggered:
                    proc.cancel()
        self._procs.clear()
        self._started = False

    def _launch(self, rank: int) -> None:
        cfg = self.config
        procs = self._procs[rank] = [
            Timer(self.env, partial(self._tick, rank), cfg.period)]
        if cfg.rtt_probe_every > 0:
            procs.append(self._prober(rank))

    # -- observation API ---------------------------------------------------
    def subscribe(self, fn: Callable[[float, str, int, int, str], None]) -> None:
        """``fn(time, kind, observer, target, detail)`` on every event."""
        self._listeners.append(fn)

    def view(self, rank: int) -> _RankView:
        """Rank ``rank``'s current opinion of its peers."""
        if not self._started:
            raise RuntimeError("detector not started")
        return self.views[rank]

    def dead_according_to(self, rank: int) -> Set[int]:
        """The set of ranks observer ``rank`` has declared dead."""
        return set(self.view(rank).dead)

    def death_event(self, target: int) -> Event:
        """An event fired when *any* observer first declares ``target`` dead.

        Already-declared targets return an already-succeeded event, so
        ``env.run(until=detector.death_event(n))`` never blocks spuriously.
        """
        ev = self._death_events.get(target)
        if ev is None:
            ev = self.env.event()
            self._death_events[target] = ev
            if target in self._first_declared:
                ev.succeed(self._first_declared[target])
        return ev

    def first_detection(self, target: int) -> Optional[Tuple[float, int]]:
        """(time, observer) of the first declaration of ``target``, or None."""
        return self._first_declared.get(target)

    def declared_dead(self) -> Set[int]:
        """Every rank declared dead by at least one observer."""
        return set(self._first_declared)

    # -- gray-failure observation ------------------------------------------
    def suspected_slow(self, target: int) -> bool:
        """True while the pooled probe evidence holds a slow suspicion."""
        return target in self._slow

    def first_slow(self, target: int) -> Optional[Tuple[float, int]]:
        """(time, observer) of the first ``suspect_slow`` of target, or None."""
        return self._first_slow.get(target)

    def rtt_estimate(self, observer: int,
                     target: int) -> Optional[RttEstimator]:
        """Observer's probe-RTT estimator for ``target`` (None until warm)."""
        return self.view(observer).rtt.get(target)

    def clear(self, target: int) -> None:
        """Forget a declaration (the rank was revived/restarted).

        Resets every observer's opinion of ``target``, re-arms its death
        event, and restarts the rank's own detector processes if they exited
        when its node died.
        """
        now = self.env.now
        for view in self.views.values():
            view.dead.discard(target)
            view.suspected.discard(target)
            view.reset_gray(target)
            if target in view.suspicion:
                view.suspicion[target] = 0
                view.last_heard[target] = now
        self._first_declared.pop(target, None)
        self._first_slow.pop(target, None)
        self._slow.discard(target)
        self._slow_streak.pop(target, None)
        self._normal_streak.pop(target, None)
        self._death_events.pop(target, None)
        if self._started:
            # A crashed rank's heartbeat process exits at its next tick, but
            # longer-interval processes (the RTT prober wakes every
            # ``rtt_probe_every`` periods) can sleep straight through a
            # short death window — so "all dead" is the wrong relaunch
            # test.  If *any* process died while the rank was down, restart
            # the whole set: cancel the stale survivors and relaunch.
            procs = self._procs.get(target, [])
            alive = [p for p in procs if not p.done.triggered]
            if len(alive) < len(procs) and self._node_alive(target):
                for p in alive:
                    p.cancel()
                view = self.views[target]
                for peer in view.last_heard:
                    view.last_heard[peer] = now
                    view.suspicion[peer] = 0
                self._launch(target)

    # -- join / admission protocol -----------------------------------------
    def request_join(self, rank: int, max_attempts: int = 8) -> Event:
        """Run the admission handshake for ``rank``; returns its join event.

        The joiner announces itself to every known rank over the out-of-band
        channel (real wire time, loss model applied); whichever receiver
        believes itself coordinator — the lowest rank alive in its own view —
        acks, and the ack's arrival absorbs the rank into the membership.
        The returned event fires with ``(time, coordinator)`` at absorption.
        Announces are retried every admission window (``config.window``) up
        to ``max_attempts`` times, so a lossy fabric delays admission rather
        than wedging it.  Re-joining a previously-declared-dead rank resets
        every observer's opinion of it (replacement hardware at the same
        index); a rank beyond the current membership is appended and peers
        learn of it at absorption time.
        """
        if not self._started:
            raise RuntimeError("detector not started")
        ev = self._join_events.get(rank)
        if ev is not None and not ev.triggered:
            return ev  # handshake already in flight
        if (rank in self.views and rank not in self._first_declared
                and self._node_alive(rank) and ev is not None):
            return ev  # already a live, admitted member
        ev = self.env.event()
        self._join_events[rank] = ev
        self._admitted.pop(rank, None)
        self._join_requested[rank] = self.env.now
        self._announce_seen = {
            pair for pair in self._announce_seen if pair[1] != rank
        }
        self._join(rank, max_attempts)
        return ev

    def admitted(self, rank: int) -> Optional[Tuple[float, int]]:
        """(time, coordinator) of ``rank``'s admission, or None."""
        return self._admitted.get(rank)

    def join_latency(self, rank: int) -> Optional[float]:
        """Virtual seconds from announce to admission, or None if pending."""
        info = self._admitted.get(rank)
        if info is None or rank not in self._join_requested:
            return None
        return info[0] - self._join_requested[rank]

    def _join(self, rank: int, max_attempts: int) -> None:
        """Announce ``rank`` to every known rank once per admission window
        until it is admitted or dies, at most ``max_attempts`` times."""
        sent = 0

        def announce() -> Optional[float]:
            nonlocal sent
            if (sent == max_attempts or (sent and rank in self._admitted)
                    or not self._node_alive(rank)):
                return None
            sent += 1
            self._send(rank, [p for p in self.ranks if p != rank],
                       self._receive_announce)
            return self.config.window

        Timer(self.env, announce)

    # -- the out-of-band channel -------------------------------------------
    def _send(self, src: int, dsts: List[int],
              deliver: Callable[[int, int], None]) -> None:
        """Send ``src``'s message to each of ``dsts``: priced by
        ``Fabric.wire_time``, ruled by :meth:`_arrived`, holding no NIC port
        (see the module docstring); ``deliver(dst, src)`` runs per arrival.
        Departures wait for one start event, behind every entry already
        queued for this instant (so a link fault toggled now applies), and
        each distinct arrival time is one timeout."""
        env = self.env

        def arrive(group: List[int]) -> None:
            for dst in group:
                if self._arrived(src, dst):
                    deliver(dst, src)

        def depart(_start: Event) -> None:
            fabric, nbytes = self.cluster.fabric, self.config.ping_bytes
            groups: Dict[float, Tuple[float, List[int]]] = {}
            for dst in dsts:
                if fabric.faults is None or fabric.faults.link_up(src, dst):
                    wire = fabric.wire_time(src, dst, nbytes)
                    groups.setdefault(env.now + wire, (wire, []))[1].append(dst)
            for wire, group in groups.values():
                env.timeout(wire).callbacks.append(lambda _ev, g=group: arrive(g))

        start = env.event()
        start.callbacks.append(depart)
        start.succeed()

    def _arrived(self, src: int, dst: int) -> bool:
        """The ruling on a message whose wire time has just elapsed."""
        return (self._node_alive(src)
                and self.cluster.fabric.verdict(src, dst, self.config.ping_bytes).ok)

    def _receive_announce(self, dst: int, src: int) -> None:
        if dst not in self.views or not self._node_alive(dst):
            return
        if (dst, src) not in self._announce_seen:
            self._announce_seen.add((dst, src))
            self._emit("join_announce", dst, src, f"rank {src} announcing")
        if src in self._admitted:
            return  # late duplicate; already absorbed
        view = self.views[dst]
        live = [r for r in self.ranks if r != src and r not in view.dead]
        coord = min(live) if live else dst
        if dst == coord:
            self._send(dst, [src], self._absorb)  # the admission ack

    def _absorb(self, rank: int, coordinator: int) -> None:
        """Complete admission: membership mutation + event fan-out."""
        if rank in self._admitted:
            return
        now = self.env.now
        self._admitted[rank] = (now, coordinator)
        if rank in self.views:
            # Rejoin at an existing index: reset every opinion of it and
            # restart its own detector processes.
            self.clear(rank)
        else:
            self.ranks.append(rank)
            self.ranks.sort()
            for r, view in self.views.items():
                if r != rank:
                    view.last_heard[rank] = now
                    view.suspicion[rank] = 0
            self.views[rank] = _RankView(
                [p for p in self.ranks if p != rank], now
            )
            if self._started:
                self._launch(rank)
        self._emit("admit", coordinator, rank, f"rank {rank} admitted")
        ev = self._join_events.get(rank)
        if ev is not None and not ev.triggered:
            ev.succeed((now, coordinator))

    # -- event plumbing ----------------------------------------------------
    def _emit(self, kind: str, observer: int, target: int, detail: str) -> None:
        ev = DetectorEvent(self.env.now, kind, observer, target, detail)
        self.log.append(ev)
        for fn in self._listeners:
            fn(ev.time, ev.kind, ev.observer, ev.target, ev.detail)

    def _declare(self, observer: int, target: int, detail: str) -> None:
        view = self.views[observer]
        if target in view.dead:
            return
        view.dead.add(target)
        view.suspected.discard(target)
        self._emit("declare_dead", observer, target, detail)
        if target not in self._first_declared:
            self._first_declared[target] = (self.env.now, observer)
            ev = self._death_events.get(target)
            if ev is not None and not ev.triggered:
                ev.succeed((self.env.now, observer))

    # -- the detector processes --------------------------------------------
    def _node_alive(self, rank: int) -> bool:
        faults = self.cluster.faults
        return faults is None or faults.alive(rank)

    def _grace(self, view: _RankView, peer: int) -> float:
        """Silence tolerated for ``peer`` before a tick counts as a miss.

        Fixed mode: ``miss_grace * period``.  Adaptive mode: the
        Jacobson/Karels deadline over that peer's observed heartbeat
        inter-arrival times — additionally floored at ``peak_margin x``
        the decaying peak gap (loss streaks recur; a survived gap is
        survivable) — floored at the fixed grace (never twitchier than
        the legacy detector) and capped at ``max_grace_periods``.
        """
        cfg = self.config
        base = cfg.miss_grace * cfg.period
        if not cfg.adaptive:
            return base
        want = base
        est = view.intervals.get(peer)
        if est is not None and est.samples >= 2:
            want = max(want, est.deadline(cfg.phi),
                       est.peak * cfg.peak_margin)
        if self._gap_pool.samples >= 2:
            want = max(want, self._gap_pool.peak * cfg.peak_margin)
        return min(want, cfg.max_grace_periods * cfg.period)

    def _receive_heartbeat(self, dst: int, src: int,
                           gossip_dead: Tuple[int, ...]) -> None:
        view = self.views[dst]
        now = self.env.now
        if src not in view.dead:
            if self.config.adaptive:
                interval = now - view.last_heard.get(src, now)
                if interval > 0:
                    est = view.intervals.get(src)
                    if est is None:
                        est = view.intervals[src] = RttEstimator()
                    est.observe(interval)
                    self._gap_pool.observe(interval)
            view.last_heard[src] = now
        for target in gossip_dead:
            if target == dst or target in view.dead:
                continue
            # Adopt gossip only when locally corroborated by silence.
            if now - view.last_heard.get(target, now) > self._grace(view, target):
                self._declare(dst, target, f"gossip from rank {src}")

    def _tick(self, rank: int) -> Optional[float]:
        """Every period: heartbeat every peer, then judge their silence."""
        if not self._node_alive(rank):
            return None  # a dead node stops heartbeating — that IS the signal
        cfg = self.config
        view = self.views[rank]
        dead = tuple(sorted(view.dead))
        self._send(rank, [p for p in self.ranks if p != rank],
                   lambda dst, src: self._receive_heartbeat(dst, src, dead))
        now = self.env.now
        # Peers come from the view each tick: membership is elastic,
        # and an absorbed joiner must be monitored from then on.
        for peer in list(view.last_heard):
            if peer in view.dead:
                continue
            if now - view.last_heard[peer] > self._grace(view, peer):
                view.suspicion[peer] += 1
                if peer not in view.suspected:
                    view.suspected.add(peer)
                    self._emit(
                        "suspect", rank, peer,
                        f"silent for {now - view.last_heard[peer]:.6f}s",
                    )
                if view.suspicion[peer] >= cfg.threshold:
                    self._declare(
                        rank, peer,
                        f"{view.suspicion[peer]} missed heartbeats",
                    )
            elif view.suspicion[peer]:
                view.suspicion[peer] = 0
                view.suspected.discard(peer)
                self._emit("clear_suspect", rank, peer, "heartbeat resumed")
        return cfg.period

    # -- RTT probing (gray-failure / straggler detection) ------------------
    def _prober(self, rank: int) -> Timer:
        """Start ``rank``'s RTT prober: each window, a :class:`_Probe` to
        the next live peer, round-robin.

        One probe per window (not one per peer) keeps the aggregate probe
        load O(n) instead of O(n²): with every observer probing every peer
        each window, the CPU charge on an already-limping node can exceed
        its remaining capacity and the measurement itself wedges the
        cluster.  Starting each rank's rotation at its own index staggers
        the observers so a given target still sees ≈1 probe per window.
        """
        cfg = self.config
        interval = cfg.rtt_probe_every * cfg.period
        offset = rank

        def probe_next() -> Optional[float]:
            nonlocal offset
            if not self._node_alive(rank):
                return None
            view = self.views[rank]
            peers = [p for p in self.ranks if p != rank and p not in view.dead]
            if peers:
                _Probe(self, rank, peers[offset % len(peers)])
                offset += 1
            return interval

        return Timer(self.env, probe_next, interval)

    def _receive_probe_ack(self, observer: int, target: int,
                           rtt: float, service: float) -> None:
        cfg = self.config
        view = self.views.get(observer)
        if view is None or not self._node_alive(observer):
            return
        if target in view.dead:
            return
        est = view.rtt.get(target)
        if est is None:
            est = view.rtt[target] = RttEstimator()
        est.observe(rtt)
        # Slowness is judged on the benchmark's service time against its
        # known nominal cost, not on the round trip: wire latency cancels
        # out, and a drained (idle but still limping) node stays visibly
        # slow — its 1/cpu_factor stretch alone exceeds the threshold.
        if service > cfg.slow_factor * cfg.probe_cpu:
            self._slow_streak[target] = self._slow_streak.get(target, 0) + 1
            self._normal_streak[target] = 0
            if (self._slow_streak[target] >= cfg.slow_threshold
                    and target not in self._slow):
                self._slow.add(target)
                self._emit(
                    "suspect_slow", observer, target,
                    f"probe served in {service:.3g}s vs nominal "
                    f"{cfg.probe_cpu:.3g}s",
                )
                if target not in self._first_slow:
                    self._first_slow[target] = (self.env.now, observer)
        else:
            self._normal_streak[target] = (
                self._normal_streak.get(target, 0) + 1
            )
            self._slow_streak[target] = 0
            if (target in self._slow
                    and self._normal_streak[target]
                    >= cfg.slow_clear_threshold):
                self._slow.discard(target)
                self._emit(
                    "clear_slow", observer, target,
                    f"probe served in {service:.3g}s, back at nominal",
                )
                self._first_slow.pop(target, None)


class _Probe(CallbackProcess):
    """One RTT probe round trip: request wire time, target CPU, ack wire time.

    The ack holds the target's CPU for ``probe_cpu`` seconds *through its
    resource queue* — a limping node both stretches the charge
    (1/cpu_factor) and queues it behind its slowed application work.  The
    ack carries the benchmark's *self-timed CPU cost* (the standard canary
    technique: a fixed workload of known nominal cost times itself
    rusage-style, so the sample isolates the node's execution rate — immune
    to queueing behind co-mapped threads, yet visible even on an otherwise
    idle limping node), while the full round-trip time feeds
    :meth:`FailureDetector.rtt_estimate`.  A leg that is lost, or a target
    that is dead or dies mid-ack, ends the probe without a sample.
    """

    __slots__ = ("_det", "_src", "_dst", "_sent_at", "_node", "_service")

    def __init__(self, detector: FailureDetector, src: int, dst: int):
        super().__init__(detector.env)
        self._det, self._src, self._dst = detector, src, dst
        self._sent_at = detector.env.now

    def _leg(self, src: int, dst: int, then: Callable[[], None]) -> None:
        """Send one message over the heartbeat channel; ``then`` runs when
        its wire time is over and rules on its arrival."""
        det = self._det
        faults = det.cluster.faults
        if faults is not None and not faults.link_up(src, dst):
            return self._finish()
        self._hold((), det.cluster.fabric.wire_time(src, dst, det.config.ping_bytes), then)

    def _begin(self) -> None:
        self._leg(self._src, self._dst, self._serve)

    def _serve(self) -> None:
        det, dst = self._det, self._dst
        if not (det._arrived(self._src, dst) and det._node_alive(dst)):
            return self._finish()
        node = self._node = det.cluster.node(dst)
        self._hold((node.cpu,), node.busy_time(det.config.probe_cpu), self._served)

    def _served(self) -> None:
        det = self._det
        if not det._node_alive(self._dst):
            return self._finish()  # the target crashed mid-ack: no sample
        self._service = self._node.cpu_time_of(det.config.probe_cpu)
        self._leg(self._dst, self._src, self._acked)

    def _acked(self) -> None:
        det = self._det
        if det._arrived(self._dst, self._src):
            det._receive_probe_ack(self._src, self._dst,
                                   det.env.now - self._sent_at, self._service)
        self._finish()
