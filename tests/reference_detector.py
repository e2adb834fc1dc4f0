"""The process-per-ping heartbeat channel, kept as a test oracle.

``repro.mpi.detector.FailureDetector`` sends heartbeats, join announces and
admission acks as plain engine callbacks: one tick per rank per period, one
start event per round and one arrival per wire time.  This subclass is the
design it replaced: an emitter and a monitor process per rank, one
generator process per message (start, wire timeout, end), and generator
processes for the joiner, the RTT prober and each probe.  The processes
that ``stop()`` and ``clear()`` cancel are
:class:`~tests.killable_process.KillableProcess` objects.
``tests/test_detector.py`` runs both on random fault schedules and checks
that they reach the same verdicts at the same virtual times, draw the same
seeded losses, and that the production class processes no more events.
"""

from __future__ import annotations

from typing import Tuple

from repro.mpi.detector import FailureDetector

from .killable_process import KillableProcess

__all__ = ["ReferenceDetector"]


class ReferenceDetector(FailureDetector):
    """:class:`FailureDetector` with one generator process per message."""

    def _launch(self, rank: int) -> None:
        self._procs[rank] = [
            KillableProcess(self.env, self._emitter(rank)),
            KillableProcess(self.env, self._monitor(rank)),
        ]
        if self.config.rtt_probe_every > 0:
            self._procs[rank].append(
                KillableProcess(self.env, self._rtt_prober(rank)))

    def _join(self, rank: int, max_attempts: int) -> None:
        self.env.process(self._joiner(rank, max_attempts))

    def _joiner(self, rank: int, max_attempts: int):
        for _attempt in range(max_attempts):
            if not self._node_alive(rank):
                return  # the candidate died before admission
            for peer in [p for p in self.ranks if p != rank]:
                self.env.process(self._announce(rank, peer))
            yield self.env.timeout(self.config.window)
            if rank in self._admitted:
                return

    def _announce(self, src: int, dst: int):
        """One join announcement over the out-of-band channel."""
        if (yield from self._oob_send(src, dst)):
            self._receive_announce(dst, src)

    def _admit_ack(self, coord: int, joiner: int):
        """The coordinator's admission ack back to the joiner."""
        if (yield from self._oob_send(coord, joiner)):
            self._absorb(joiner, coord)

    def _oob_send(self, src: int, dst: int):
        """Sub-generator: one heartbeat-channel message, priced and ruled by
        the fabric (``wire_time``, ``verdict``) but holding no NIC port (see
        the module docstring); returns True when the payload arrived."""
        fabric = self.cluster.fabric
        faults = fabric.faults
        if faults is not None and not faults.link_up(src, dst):
            return False
        nbytes = self.config.ping_bytes
        yield self.env.timeout(fabric.wire_time(src, dst, nbytes))
        return self._node_alive(src) and fabric.verdict(src, dst, nbytes).ok

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
            self.env.process(self._admit_ack(dst, src))

    def _emitter(self, rank: int):
        while True:
            yield self.env.timeout(self.config.period)
            if not self._node_alive(rank):
                return  # a dead node stops heartbeating — that IS the signal
            dead = tuple(sorted(self.views[rank].dead))
            for peer in self.ranks:
                if peer != rank:
                    self.env.process(self._ping(rank, peer, dead))

    def _ping(self, src: int, dst: int, gossip_dead: Tuple[int, ...]):
        if (yield from self._oob_send(src, dst)):
            self._receive_heartbeat(dst, src, gossip_dead)

    def _monitor(self, rank: int):
        cfg = self.config
        while True:
            yield self.env.timeout(cfg.period)
            if not self._node_alive(rank):
                return
            view = self.views[rank]
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

    def _rtt_prober(self, rank: int):
        cfg = self.config
        offset = rank
        while True:
            yield self.env.timeout(cfg.rtt_probe_every * cfg.period)
            if not self._node_alive(rank):
                return
            view = self.views[rank]
            peers = [p for p in self.ranks if p != rank and p not in view.dead]
            if not peers:
                continue
            peer = peers[offset % len(peers)]
            offset += 1
            self.env.process(self._rtt_probe(rank, peer))

    def _rtt_probe(self, src: int, dst: int):
        sent_at = self.env.now
        arrived = yield from self._oob_send(src, dst)
        if not arrived or not self._node_alive(dst):
            return
        node = self.cluster.node(dst)
        yield from node.cpu.use(node.busy_time(self.config.probe_cpu))
        if not self._node_alive(dst):
            return  # the target crashed mid-ack: no sample
        service = node.cpu_time_of(self.config.probe_cpu)
        if (yield from self._oob_send(dst, src)):
            self._receive_probe_ack(src, dst, self.env.now - sent_at, service)
