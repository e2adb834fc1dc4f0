"""Point-to-point message passing over the simulated cluster.

The programming model mirrors mpi4py, adapted to the discrete-event engine:
rank programs are *generators* and every communication call is either

* a sub-generator used with ``yield from`` (blocking calls returning values),
  e.g. ``data = yield from comm.recv(source=0)``, or
* an immediate call returning a :class:`Request` whose ``wait()`` is itself a
  sub-generator (nonblocking calls), e.g.::

      req = comm.isend(x, dest=1)
      ...
      yield from req.wait()

Timing model
------------
A message from rank *s* to rank *d* is one fabric
:class:`~repro.machine.interconnect.Crossing`, the same one the SAGE
run-time's messages take: *s*'s inject port, the shared medium if any and
*d*'s eject port are held together for the wire time, so concurrent messages
through a port serialise.  Loopback messages (``s == d``) charge the node's
memory-copy cost instead.  ``isend`` starts the crossing and its
:class:`Request` is the crossing's completion; blocking ``send`` is
``isend`` + ``wait``, returning once the payload is buffered at the receiver
(buffered-send semantics, like the small-message eager protocol of the
vendor MPIs in §3.1).  ``recv`` blocks until a matching message has fully
arrived.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

from ..machine.cluster import SimCluster
from ..machine.faults import FaultError
from ..machine.interconnect import Crossing
from ..machine.simulator import Environment, Event, Process
from .datatypes import ANY_SOURCE, ANY_TAG, copy_and_size, payload_nbytes
from .errors import (
    CorruptionError,
    DeliveryError,
    MpiError,
    MpiTimeoutError,
    ProcessFailedError,
    RankError,
    RevokedError,
    TruncationError,
)

__all__ = [
    "Message",
    "Request",
    "RetryPolicy",
    "Communicator",
    "MpiWorld",
    "ANY_SOURCE",
    "ANY_TAG",
]

#: Tag space reserved for the fault-tolerant agreement protocol.  Operations
#: tagged at or above this base bypass the revocation check, so ``agree()``
#: and ``shrink()`` keep working on a revoked communicator (ULFM semantics).
#: User tags and the collectives' reserved range (1 << 20) sit below it.
_AGREE_TAG_BASE = 1 << 28


@dataclass(frozen=True)
class RetryPolicy:
    """Retry-with-exponential-backoff for p2p sends over lossy links.

    A send governed by a policy re-transmits when the fabric reports the
    payload lost (or the link transiently down), sleeping ``backoff``
    seconds before the first retry and multiplying by ``factor`` each
    attempt.  After ``max_attempts`` total transmissions it raises
    :class:`~repro.mpi.errors.DeliveryError`.

    ``jitter`` desynchronises retry storms: each backoff sleep is scaled by
    a factor drawn uniformly from ``[1 - jitter, 1 + jitter]`` using the
    world's seeded RNG — when a flapping link burns every rank's send at
    the same instant, their retransmissions spread out instead of slamming
    the fabric in lock-step.  Draws come from one seeded stream in
    simulation event order, so runs stay bit-reproducible.  The default
    (0.0) draws nothing and is byte-identical to the legacy policy.
    """

    max_attempts: int = 4
    backoff: float = 1e-4
    factor: float = 2.0
    jitter: float = 0.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff < 0 or self.factor < 1:
            raise ValueError("backoff must be >= 0 and factor >= 1")
        if not (0 <= self.jitter < 1):
            raise ValueError("jitter must be in [0, 1)")


class Message:
    """An in-flight or buffered message."""

    __slots__ = ("source", "dest", "tag", "data", "nbytes", "sent_at",
                 "arrived_at", "corrupted")

    def __init__(self, source: int, dest: int, tag: int, data: Any, sent_at: float,
                 nbytes: Optional[int] = None):
        self.source = source
        self.dest = dest
        self.tag = tag
        self.data = data
        self.nbytes = payload_nbytes(data) if nbytes is None else nbytes
        self.sent_at = sent_at
        self.arrived_at: Optional[float] = None
        self.corrupted = False

    def matches(self, source: int, tag: int) -> bool:
        return (source == ANY_SOURCE or source == self.source) and (
            tag == ANY_TAG or tag == self.tag
        )


class Request:
    """Handle for a nonblocking operation; ``wait()`` is a sub-generator."""

    def __init__(self, env: Environment, event: Event):
        self._env = env
        self._event = event

    @property
    def complete(self) -> bool:
        return self._event.processed

    def wait(self, timeout: Optional[float] = None) -> Generator:
        """Sub-generator: block until the operation finishes; returns its value.

        With ``timeout`` set, raises
        :class:`~repro.mpi.errors.MpiTimeoutError` if the operation has not
        completed within ``timeout`` virtual seconds (the operation itself
        keeps running in the background).
        """
        if timeout is None:
            value = yield self._event
            return value
        if timeout <= 0:
            raise MpiError("timeout must be positive")
        which, value = yield self._env.any_of(
            [self._event, self._env.timeout(timeout)]
        )
        if which == 0:
            return value
        if self._event.triggered:  # completed at the same instant
            if not self._event.ok:
                raise self._event.value
            return self._event.value
        raise MpiTimeoutError(
            f"request did not complete within {timeout:g}s "
            f"(t={self._env.now:.6f})"
        )

    def test(self) -> Tuple[bool, Any]:
        """Nonblocking completion probe (flag, value-or-None).

        Like ``MPI_Test``, a failed operation surfaces here: if the
        underlying operation raised, ``test()`` re-raises that exception
        rather than returning the exception object as a value.
        """
        if self._event.processed:
            if not self._event.ok:
                raise self._event.value
            return True, self._event.value
        return False, None

    @staticmethod
    def waitall(requests: List["Request"]) -> Generator:
        """Sub-generator: wait for every request; returns their values."""
        values = []
        for req in requests:
            values.append((yield from req.wait()))
        return values


class _Mailbox:
    """Per-rank store of arrived-but-unmatched messages plus pending receivers."""

    def __init__(self):
        self.unexpected: List[Message] = []
        # (source, tag, event) for receivers waiting on a match
        self.waiting: List[Tuple[int, int, Event]] = []

    def deliver(self, msg: Message) -> None:
        for i, (source, tag, event) in enumerate(self.waiting):
            if msg.matches(source, tag):
                del self.waiting[i]
                event.succeed(msg)
                return
        self.unexpected.append(msg)

    def match(self, source: int, tag: int, event: Event) -> None:
        for i, msg in enumerate(self.unexpected):
            if msg.matches(source, tag):
                del self.unexpected[i]
                event.succeed(msg)
                return
        self.waiting.append((source, tag, event))

    def cancel(self, event: Event) -> None:
        """Withdraw a pending receive (timeout path)."""
        self.waiting = [entry for entry in self.waiting if entry[2] is not event]

    def probe(self, source: int, tag: int) -> Optional[Message]:
        for msg in self.unexpected:
            if msg.matches(source, tag):
                return msg
        return None


class Communicator:
    """One rank's endpoint into a communication context.

    The world communicator has ``members=None`` (ranks are global node
    indices, context 0); communicators produced by :meth:`split` carry a
    member list mapping their dense local ranks onto global ranks, plus a
    private context whose mailboxes are isolated from every other
    communicator's traffic (so tags never collide across groups).
    """

    def __init__(self, world: "MpiWorld", rank: int,
                 members: Optional[List[int]] = None, context: int = 0):
        self.world = world
        self.rank = rank
        self.members = list(members) if members is not None else None
        self.context = context
        self.size = len(self.members) if self.members is not None else world.size
        self.bytes_sent = 0
        self.messages_sent = 0
        self._agree_seq = 0
        #: Deadline applied to every recv/wait (and hence every collective)
        #: when the call itself passes no explicit timeout.  None = block
        #: forever (the pre-fault-tolerance behaviour).
        self.default_timeout: Optional[float] = None
        #: Default :class:`RetryPolicy` for p2p sends (None = fire and forget).
        self.retry_policy: Optional[RetryPolicy] = None
        #: Optional :class:`~repro.mpi.adaptive.AdaptiveTimeout`: when set,
        #: receives with no explicit timeout derive their deadline from the
        #: observed per-source delivery latency (warmed-up sources only;
        #: cold sources fall back to ``default_timeout``).  Shared across
        #: this rank's sub-communicators so samples survive shrink/grow.
        self.adaptive_timeout = None

    # -- small helpers ----------------------------------------------------
    @property
    def env(self) -> Environment:
        return self.world.env

    @property
    def global_rank(self) -> int:
        """This endpoint's node index in the world."""
        if self.members is None:
            return self.rank
        return self.members[self.rank]

    def _check_rank(self, r: int, what: str) -> None:
        if not (0 <= r < self.size):
            raise RankError(f"{what} rank {r} out of range [0, {self.size})")

    def _g(self, r: int) -> int:
        """Local rank -> global rank (with range check)."""
        self._check_rank(r, "peer")
        return self.members[r] if self.members is not None else r

    def _g_source(self, r: int) -> int:
        return ANY_SOURCE if r == ANY_SOURCE else self._g(r)

    def _localize(self, msg: Message) -> Message:
        """Rewrite a received envelope's source into this comm's rank space."""
        if self.members is not None:
            msg.source = self.members.index(msg.source)
        return msg

    def _effective_timeout(self, timeout: Optional[float]) -> Optional[float]:
        return self.default_timeout if timeout is None else timeout

    def _recv_deadline(self, source_g: int,
                       timeout: Optional[float]) -> Optional[float]:
        """Deadline for one receive: explicit > adaptive > default.

        The adaptive estimate only engages once its source (or, for
        ``ANY_SOURCE``, at least one source) is warmed up — a degraded
        link then stretches the deadline with the observed latency instead
        of tripping a fixed timeout tuned for the healthy fabric.
        """
        if timeout is not None:
            return timeout
        if self.adaptive_timeout is not None:
            adaptive = self.adaptive_timeout.deadline(
                None if source_g == ANY_SOURCE else source_g
            )
            if adaptive is not None:
                return adaptive
        return self.default_timeout

    def _observe_latency(self, msg: "Message") -> None:
        """Feed a matched message's delivery latency to the estimator."""
        if self.adaptive_timeout is not None and msg.arrived_at is not None:
            self.adaptive_timeout.observe(
                msg.source, msg.arrived_at - msg.sent_at
            )

    def _group(self) -> List[int]:
        """This communicator's members as global ranks."""
        if self.members is not None:
            return list(self.members)
        return list(range(self.world.size))

    def _check_revoked(self, tag: int = 0) -> None:
        if tag < _AGREE_TAG_BASE and self.context in self.world._revoked:
            raise RevokedError(
                f"rank {self.rank}: communicator (context {self.context}) "
                f"has been revoked (t={self.env.now:.6f})"
            )

    def _known_failed(self) -> set:
        """Members this rank's failure-detector view has declared dead."""
        dead = self.world._dead_view(self.global_rank)
        if not dead:
            return set()
        return dead & set(self._group())

    # -- point-to-point ----------------------------------------------------
    def send(self, data: Any, dest: int, tag: int = 0,
             retry: Optional[RetryPolicy] = None) -> Generator:
        """Blocking buffered send (sub-generator): :meth:`isend` + wait."""
        yield from self.isend(data, dest, tag=tag, retry=retry).wait()

    def isend(self, data: Any, dest: int, tag: int = 0,
              retry: Optional[RetryPolicy] = None) -> Request:
        """Nonblocking send: a request that completes once the payload is
        buffered at the receiver.

        Without a retry policy the send is fire-and-forget: over a lossy
        fabric the payload may silently vanish (the receiver's timeout
        machinery is then the only detector).  With ``retry`` (or a
        communicator-level ``retry_policy``) the sender re-transmits with
        exponential backoff, failing the request with
        :class:`~repro.mpi.errors.DeliveryError` once attempts run out.
        """
        policy = retry if retry is not None else self.retry_policy
        return Request(self.env, _Send(self, data, dest, tag, policy).done)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             timeout: Optional[float] = None,
             max_bytes: Optional[int] = None) -> Generator:
        """Blocking receive (sub-generator returning the payload).

        ``timeout`` (or the communicator's ``default_timeout``) bounds the
        wait, raising :class:`~repro.mpi.errors.MpiTimeoutError` on expiry
        instead of wedging the event loop.  ``max_bytes`` models a sized
        receive buffer: a matched message larger than it raises
        :class:`~repro.mpi.errors.TruncationError`.

        With a failure detector attached to the world, a receive whose
        source has been declared dead — or an ``ANY_SOURCE`` receive once
        *all* possible senders are declared dead — raises
        :class:`~repro.mpi.errors.ProcessFailedError` immediately rather
        than wedging until the timeout.
        """
        self._check_revoked(tag)
        source_g = self._g_source(source)
        msg = yield from self.world._recv(
            self.global_rank, source_g, tag, self.context,
            timeout=self._recv_deadline(source_g, timeout),
            max_bytes=max_bytes,
        )
        self._observe_latency(msg)
        return msg.data

    def recv_msg(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
                 timeout: Optional[float] = None) -> Generator:
        """Like :meth:`recv` but returns the full :class:`Message` envelope."""
        self._check_revoked(tag)
        source_g = self._g_source(source)
        msg = yield from self.world._recv(
            self.global_rank, source_g, tag, self.context,
            timeout=self._recv_deadline(source_g, timeout),
        )
        self._observe_latency(msg)  # before _localize rewrites msg.source
        return self._localize(msg)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
              max_bytes: Optional[int] = None) -> Request:
        """Nonblocking receive; ``wait()`` returns the payload.

        Truncation and corruption checks run when the message is matched, so
        the resulting errors propagate through ``wait()``/``test()``.
        """
        self._check_revoked(tag)
        done = self.env.event()
        box = self.world._mailbox(self.global_rank, self.context)
        box.match(self._g_source(source), tag, done)
        if not done.triggered:
            self.world._fail_dead_waiters(self.global_rank, self.context)
        rank = self.rank

        def unwrap():
            msg = yield done
            _check_integrity(msg, rank, max_bytes)
            return msg.data

        proc = self.env.process(unwrap(), name=f"irecv r{self.rank} tag{tag}")
        return Request(self.env, proc)

    def sendrecv(
        self,
        senddata: Any,
        dest: int,
        source: int = ANY_SOURCE,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
    ) -> Generator:
        """Simultaneous send + receive (deadlock-free pair exchange)."""
        req = self.isend(senddata, dest, tag=sendtag)
        data = yield from self.recv(source=source, tag=recvtag)
        yield from req.wait()
        return data

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Optional[Message]:
        """Nonblocking probe of the unexpected-message queue."""
        self._check_revoked(tag)
        return self.world._mailbox(self.global_rank, self.context).probe(
            self._g_source(source), tag
        )

    def recv_timeout(
        self, timeout: float, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Generator:
        """Receive with a deadline (sub-generator).

        Returns ``(data, True)`` when a matching message arrives within
        ``timeout`` seconds, ``(None, False)`` otherwise.  On timeout the
        pending receive is withdrawn, so a late message stays queued for the
        next receive rather than vanishing.
        """
        if timeout <= 0:
            raise MpiError("timeout must be positive")
        self._check_revoked(tag)
        done = self.env.event()
        box = self.world._mailbox(self.global_rank, self.context)
        box.match(self._g_source(source), tag, done)
        if not done.triggered:
            self.world._fail_dead_waiters(self.global_rank, self.context)
        which, value = yield self.env.any_of([done, self.env.timeout(timeout)])
        if which == 0:
            _check_integrity(value, self.rank, None)
            return value.data, True
        if done.triggered:  # arrived at the same instant the clock expired
            _check_integrity(done.value, self.rank, None)
            return done.value.data, True
        box.cancel(done)
        return None, False

    # -- clock / node access -------------------------------------------------
    @property
    def now(self) -> float:
        return self.env.now

    def compute(self, flops: float) -> Generator:
        """Charge floating-point work to this rank's processor."""
        yield from self.world.cluster.node(self.global_rank).compute(flops)

    def copy(self, nbytes: float) -> Generator:
        """Charge a local memory copy to this rank's processor."""
        yield from self.world.cluster.node(self.global_rank).copy(nbytes)

    # -- sub-communicators ------------------------------------------------------
    def split(self, color: Optional[int], key: Optional[int] = None) -> Generator:
        """Collective: partition this communicator by ``color`` (MPI_Comm_split).

        Every rank must call it.  Ranks passing the same color form a new
        communicator whose ranks are ordered by ``key`` (default: current
        rank); a ``None`` color returns None (MPI_UNDEFINED).  Sub-generator::

            row_comm = yield from comm.split(color=comm.rank // 4)
        """
        sort_key = self.rank if key is None else key
        entries = yield from self.allgather((color, sort_key, self.global_rank))
        if color is None:
            return None
        members = [
            g for c, k, g in sorted(
                (e for e in entries if e[0] == color), key=lambda e: (e[1], e[2])
            )
        ]
        return self._derive(
            members, self.world._intern_context((self.context, color, tuple(members)))
        )

    def _derive(self, members: List[int], context: int) -> "Communicator":
        """This rank's endpoint into ``context`` over ``members`` (global
        ranks), inheriting this endpoint's fault-tolerance defaults."""
        self.world._register_context(context, members)
        sub = Communicator(self.world, members.index(self.global_rank),
                           members=members, context=context)
        sub.default_timeout = self.default_timeout
        sub.retry_policy = self.retry_policy
        sub.adaptive_timeout = self.adaptive_timeout
        return sub

    # -- ULFM-style fault-tolerance primitives -------------------------------
    def revoke(self) -> None:
        """Revoke this communicator (ULFM ``MPI_Comm_revoke``).

        Non-collective and immediate: every pending receive on this
        communicator's context — on *every* rank — fails with
        :class:`~repro.mpi.errors.RevokedError`, and all future operations
        on it raise the same, unblocking survivors stuck in a collective
        broken by a dead rank.  Only :meth:`agree` and :meth:`shrink` keep
        working afterwards; the usual recovery idiom is::

            try:
                result = yield from comm.allreduce(x)
            except ProcessFailedError:
                comm.revoke()                 # unstick everyone else
                comm = yield from comm.shrink()   # survivors continue
        """
        self.world._revoke_context(self.context)

    def _agree_timeout(self, timeout: Optional[float]) -> Optional[float]:
        """Deadline for one agreement exchange.

        With a failure detector attached the agreement blocks for live
        members indefinitely (true ULFM semantics) — dead members surface
        as :class:`~repro.mpi.errors.ProcessFailedError` on the pending
        receive, so no timeout is needed.  Without a detector the only
        failure signal is silence, so a deadline (explicit, or the
        communicator default) bounds the wait and silent members are
        conservatively agreed failed.
        """
        if timeout is not None:
            return timeout
        if self.world.detector is not None:
            return None
        if self.default_timeout is not None:
            return self.default_timeout
        return 0.01

    def agree(self, flag: int = 1, timeout: Optional[float] = None) -> Generator:
        """Fault-tolerant agreement (ULFM ``MPI_Comm_agree``); sub-generator.

        Collective over the surviving members.  Returns ``(agreed_flag,
        failed)`` where ``agreed_flag`` is the bitwise AND of every
        contributing rank's ``flag`` and ``failed`` is a frozenset of
        *global* ranks agreed to have failed — the union of every
        participant's detector view plus any member that did not answer
        within the deadline.

        Works on a revoked communicator.  The protocol is coordinator-based:
        the lowest member not locally known dead collects (flag, dead-set)
        contributions and broadcasts the decision.  With a converged
        detector all ranks pick the same coordinator; a rank whose
        contribution is lost on the wire is conservatively agreed failed and
        will observe ``MpiTimeoutError`` waiting for the decision.
        """
        members = self._group()
        deadline = self._agree_timeout(timeout)
        seq = self._agree_seq
        self._agree_seq += 1
        tag = _AGREE_TAG_BASE + 2 * (seq % (1 << 16))
        failed = set(self._known_failed())
        alive = [r for r, g in enumerate(members) if g not in failed]
        if not alive:
            raise ProcessFailedError(
                f"rank {self.rank}: agree() has no surviving members",
                ranks=failed,
            )
        coord = alive[0]
        retry = self.retry_policy or RetryPolicy(max_attempts=3, backoff=1e-5)
        if self.rank == coord:
            agreed = flag
            for r, g in enumerate(members):
                if r == coord or g in failed:
                    continue
                try:
                    their_flag, their_dead = yield from self._agree_recv(
                        g, tag, deadline
                    )
                except (ProcessFailedError, MpiTimeoutError):
                    failed.add(g)  # dead (or, with no detector, silent) member
                    continue
                agreed &= their_flag
                failed |= set(their_dead)
            decision = (agreed, tuple(sorted(failed)))
            for r, g in enumerate(members):
                if r == coord or g in failed:
                    continue
                try:
                    yield from self.send(decision, dest=r, tag=tag + 1, retry=retry)
                except (MpiError, FaultError):
                    pass  # it will be agreed failed in the next round
            return agreed, frozenset(failed)
        try:
            yield from self.send(
                (flag, tuple(sorted(failed))), dest=coord, tag=tag, retry=retry
            )
        except (MpiError, FaultError):
            pass  # coordinator unreachable; the recv below will surface it
        agreed, failed_t = yield from self._agree_recv(
            members[coord], tag + 1,
            None if deadline is None else deadline * (len(members) + 1),
        )
        return agreed, frozenset(failed_t)

    def _agree_recv(self, source_g: int, tag: int,
                    deadline: Optional[float]) -> Generator:
        """Raw receive for the agreement protocol: bypasses the revocation
        check and the communicator ``default_timeout`` (``deadline=None``
        really blocks, relying on the detector to surface dead peers)."""
        msg = yield from self.world._recv(
            self.global_rank, source_g, tag, self.context, timeout=deadline
        )
        return msg.data

    def shrink(self, timeout: Optional[float] = None) -> Generator:
        """Build a survivor communicator (ULFM ``MPI_Comm_shrink``).

        Collective over the surviving members (works on a revoked
        communicator): agrees on the failed set, then returns a new
        communicator over the sorted survivors with dense remapped ranks
        and a fresh context (pending traffic of the old communicator cannot
        leak in).  ``default_timeout`` / ``retry_policy`` are inherited.
        """
        seq = self._agree_seq  # same on every member under collective discipline
        _, failed = yield from self.agree(timeout=timeout)
        members = self._group()
        survivors = [g for g in members if g not in failed]
        if self.global_rank not in survivors:
            raise ProcessFailedError(
                f"rank {self.rank}: this rank was agreed failed during shrink",
                ranks=failed,
            )
        return self._derive(survivors, self.world._intern_context(
            ("shrink", self.context, seq, tuple(survivors))
        ))

    def grow(self, joiners: Sequence[int],
             timeout: Optional[float] = None) -> Generator:
        """Absorb new ranks into a larger communicator (the ULFM dual of
        :meth:`shrink`, modelling the connect/accept side of
        ``MPI_Comm_spawn``).

        Collective over the current members: agrees on the live survivor
        set, then returns a new communicator whose members are the survivors
        in their existing relative order — *rank stability*: no survivor's
        rank shifts because capacity arrived — followed by the ``joiners``
        in sorted global order (deterministic rank assignment; every member
        derives the same numbering without further communication).  Joiners
        are not members of this communicator and therefore cannot take part
        in the collective; each obtains its endpoint into the grown context
        from :meth:`MpiWorld.endpoint` afterwards.  ``default_timeout`` /
        ``retry_policy`` are inherited.
        """
        seq = self._agree_seq  # same on every member under collective discipline
        _, failed = yield from self.agree(timeout=timeout)
        members = self._group()
        survivors = [g for g in members if g not in failed]
        if self.global_rank not in survivors:
            raise ProcessFailedError(
                f"rank {self.rank}: this rank was agreed failed during grow",
                ranks=failed,
            )
        self.world.expand()  # no-op unless the cluster gained nodes
        extra = sorted(set(joiners) - set(survivors))
        for j in extra:
            if not (0 <= j < self.world.size):
                raise RankError(
                    f"joiner rank {j} out of range [0, {self.world.size}) — "
                    f"add the node to the cluster before growing"
                )
        new_members = survivors + extra
        return self._derive(new_members, self.world._intern_context(
            ("grow", self.context, seq, tuple(new_members))
        ))

    # -- collectives (implemented in collectives.py, bound here) -------------
    # These are assigned at import time at the bottom of collectives.py to
    # keep the two files separately readable; see that module for semantics.


def _check_integrity(msg: Message, rank: int, max_bytes: Optional[int]) -> None:
    """Receiver-side checks: sized-buffer truncation and corruption detect."""
    if max_bytes is not None and msg.nbytes > max_bytes:
        raise TruncationError(
            f"rank {rank}: matched message of {msg.nbytes} bytes exceeds "
            f"receive buffer of {max_bytes} bytes "
            f"(source {msg.source}, tag {msg.tag})"
        )
    if msg.corrupted:
        raise CorruptionError(
            f"rank {rank}: message from rank {msg.source} tag {msg.tag} "
            f"failed integrity check (corrupted in transit)"
        )


#: A send without a policy: one attempt, and a lost payload is no error.
_SEND_ONCE = RetryPolicy(max_attempts=1)


class _Send(Crossing):
    """One point-to-point message under the sender's :class:`RetryPolicy`:
    its fabric crossing, or a memory copy on loopback.  Each attempt posts a
    fresh copy of the payload; a corrupted one is delivered flagged."""

    __slots__ = ("comm", "data", "dest", "tag", "policy", "msg")

    corrupt_ok = True

    def __init__(self, comm: "Communicator", data: Any, dest: int, tag: int,
                 policy: Optional[RetryPolicy]):
        self.comm, self.data, self.dest, self.tag, self.policy = comm, data, dest, tag, policy
        rule = policy or _SEND_ONCE
        super().__init__(comm.env, comm.world.cluster.fabric, comm.global_rank,
                         dest, 0, rule.max_attempts, rule.backoff, rule.factor)

    def _begin(self) -> None:
        comm = self.comm
        comm._check_revoked(self.tag)
        self.dst = comm._g(self.dest)
        if self.dst in comm.world._dead_view(self.src):
            raise ProcessFailedError(
                f"rank {comm.rank}: send to rank {self.dest} tag {self.tag} "
                f"failed: rank {self.dest} declared dead (t={self.env.now:.6f})",
                ranks=(self.dst,),
            )
        self._cross()

    def _cross(self) -> None:
        comm, world = self.comm, self.comm.world
        payload, nbytes = copy_and_size(self.data)
        self.msg = Message(self.src, self.dst, self.tag, payload,
                           sent_at=self.env.now, nbytes=nbytes)
        self.nbytes = nbytes
        comm.bytes_sent += nbytes
        comm.messages_sent += 1
        world.total_bytes += nbytes
        world.total_messages += 1
        if self.src != self.dst:
            super()._cross()
            return
        node = world.cluster.node(self.src)
        self._hold((node.cpu,), node.busy_time(node.spec.copy_time(nbytes)),
                   self._copied)

    def _copied(self) -> None:
        self.comm.world.cluster.node(self.src).check_alive()
        self._arrive(None)

    def _backoff(self, failure: Any, delay: float) -> float:
        jitter = self.policy.jitter
        if jitter and delay > 0:
            # Seeded, event-ordered draw: spread simultaneous retries out
            # without giving up reproducibility.
            delay *= 1.0 + jitter * (2.0 * self.comm.world._backoff_rng.random() - 1.0)
        return delay

    def _arrive(self, outcome) -> None:
        msg = self.msg
        msg.corrupted = outcome is not None and outcome.corrupted
        msg.arrived_at = self.env.now
        self.comm.world._mailbox(self.dst, self.comm.context).deliver(msg)
        self._finish()

    def _undelivered(self, failure: Any) -> None:
        policy = self.policy
        if policy is None:
            if isinstance(failure, BaseException):
                raise failure
            self._finish()  # lost in transit: the wire time was spent
            return
        raise DeliveryError(
            f"rank {self.comm.rank}: send to rank {self.dest} tag {self.tag} failed after "
            f"{policy.max_attempts} attempt(s) at t={self.env.now:.6f}: {failure}")


class MpiWorld:
    """The set of ranks over a simulated cluster.

    ``default_timeout`` / ``retry_policy`` seed every rank communicator's
    fault-tolerance defaults (see :class:`Communicator`).
    """

    def __init__(self, cluster: SimCluster,
                 default_timeout: Optional[float] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 detector: Optional[Any] = None,
                 adaptive_timeouts: bool = False,
                 adaptive_params: Optional[dict] = None):
        self.cluster = cluster
        self.env: Environment = cluster.env
        self.size = len(cluster)
        # Seeded stream for RetryPolicy backoff jitter: derived from the
        # fault plan's seed (0 when no fault layer), drawn in simulation
        # event order — deterministic, and untouched when jitter is 0.
        faults = getattr(cluster, "faults", None)
        plan_seed = faults.plan.seed if faults is not None else 0
        self._backoff_rng = random.Random(plan_seed ^ 0x5B0FF)
        self._mailboxes: Dict[Tuple[int, int], _Mailbox] = {}
        self._contexts: Dict[Any, int] = {}
        #: context id -> member global ranks (None = all world ranks); feeds
        #: the "all possible senders dead" check for ANY_SOURCE receives.
        self._context_members: Dict[int, Optional[Tuple[int, ...]]] = {0: None}
        self._revoked: set = set()
        self._procs: List[Process] = []
        self.comms: List[Communicator] = [Communicator(self, r) for r in range(self.size)]
        for comm in self.comms:
            comm.default_timeout = default_timeout
            comm.retry_policy = retry_policy
        self.total_bytes = 0
        self.total_messages = 0
        self.detector = None
        self._adaptive_params: Optional[dict] = None
        if adaptive_timeouts or adaptive_params is not None:
            self.enable_adaptive_timeouts(**(adaptive_params or {}))
        if detector is not None:
            self.attach_detector(detector)

    def enable_adaptive_timeouts(self, **params) -> None:
        """Arm adaptive receive deadlines on every rank endpoint.

        Each rank gets its *own* :class:`~repro.mpi.adaptive.AdaptiveTimeout`
        (latency is observed per observer/source pair); endpoints created
        later by :meth:`expand` inherit the same parameters.
        """
        from .adaptive import AdaptiveTimeout

        self._adaptive_params = dict(params)
        for comm in self.comms:
            if comm.adaptive_timeout is None:
                comm.adaptive_timeout = AdaptiveTimeout(**params)

    # -- elastic membership --------------------------------------------------
    def expand(self) -> int:
        """Grow the world to match the cluster's node count (idempotent).

        Called after :meth:`~repro.machine.cluster.SimCluster.add_node`:
        every new node index gets a world communicator endpoint, and
        existing world endpoints learn the larger rank range.  Mailboxes
        are created lazily, so no per-rank state beyond the endpoint is
        needed.  Returns the new world size.
        """
        new_size = len(self.cluster)
        if new_size <= self.size:
            return self.size
        template = self.comms[0] if self.comms else None
        for r in range(self.size, new_size):
            comm = Communicator(self, r)
            if template is not None:
                comm.default_timeout = template.default_timeout
                comm.retry_policy = template.retry_policy
            if self._adaptive_params is not None:
                from .adaptive import AdaptiveTimeout

                comm.adaptive_timeout = AdaptiveTimeout(
                    **self._adaptive_params
                )
            self.comms.append(comm)
        self.size = new_size
        for comm in self.comms:
            if comm.members is None:
                comm.size = new_size  # world endpoints see the wider range
        return self.size

    def endpoint(self, global_rank: int, context: int = 0) -> Communicator:
        """Build an endpoint for ``global_rank`` into an existing context.

        The joiner side of :meth:`Communicator.grow`: survivors receive the
        grown communicator from the collective, while a joiner — which was
        not a member of the old communicator — constructs its endpoint from
        the registered context (the accept/connect side of ``MPI_Comm_spawn``
        in a real ULFM runtime).
        """
        if not (0 <= global_rank < self.size):
            raise RankError(
                f"rank {global_rank} out of range [0, {self.size})"
            )
        if context == 0:
            return self.comms[global_rank]
        members = self._context_members.get(context)
        if members is None:
            raise MpiError(f"unknown communicator context {context}")
        if global_rank not in members:
            raise RankError(
                f"rank {global_rank} is not a member of context {context}"
            )
        return self.comms[global_rank]._derive(list(members), context)

    # -- failure detection --------------------------------------------------
    def attach_detector(self, detector) -> None:
        """Bind a :class:`~repro.mpi.detector.FailureDetector` to this world.

        Starts the detector and subscribes to its declarations: when
        observer *o* declares rank *t* dead, every receive *o* has pending
        from *t* (and every ``ANY_SOURCE`` receive whose possible senders
        are now all dead in *o*'s view) fails with
        :class:`~repro.mpi.errors.ProcessFailedError`.  Views are
        per-observer: a rank only reacts to its *own* detector's opinion.
        """
        self.detector = detector
        detector.start()
        detector.subscribe(self._on_detector_event)

    def _on_detector_event(self, time: float, kind: str, observer: int,
                           target: int, detail: str) -> None:
        if kind == "declare_dead":
            self._fail_dead_waiters(observer)

    def _dead_view(self, rank: int) -> frozenset:
        """Ranks that ``rank``'s own detector view has declared dead."""
        if self.detector is None:
            return frozenset()
        return frozenset(self.detector.view(rank).dead)

    def _possible_senders(self, rank: int, context: int) -> List[int]:
        members = self._context_members.get(context)
        pool = members if members is not None else range(self.size)
        return [g for g in pool if g != rank]

    def _fail_dead_waiters(self, rank: int, context: Optional[int] = None) -> None:
        """Fail rank ``rank``'s pending receives whose senders are dead.

        A receive from a specific dead source fails at once; an
        ``ANY_SOURCE`` receive fails only when *every* possible sender in
        its context is dead (a live sender might still satisfy it).
        """
        dead = self._dead_view(rank)
        if not dead:
            return
        for (r, ctx), box in list(self._mailboxes.items()):
            if r != rank or (context is not None and ctx != context):
                continue
            if not box.waiting:
                continue
            senders = self._possible_senders(rank, ctx)
            all_dead = bool(senders) and all(g in dead for g in senders)
            keep = []
            for source, tag, event in box.waiting:
                if source != ANY_SOURCE and source in dead:
                    event.fail(ProcessFailedError(
                        f"rank {rank}: recv(source={source}, tag={tag}) "
                        f"failed: rank {source} declared dead "
                        f"(t={self.env.now:.6f})",
                        ranks=(source,),
                    ))
                elif source == ANY_SOURCE and all_dead:
                    event.fail(ProcessFailedError(
                        f"rank {rank}: recv(ANY_SOURCE, tag={tag}) failed: "
                        f"all possible senders {sorted(senders)} declared "
                        f"dead (t={self.env.now:.6f})",
                        ranks=senders,
                    ))
                else:
                    keep.append((source, tag, event))
            box.waiting = keep

    # -- revocation ---------------------------------------------------------
    def _register_context(self, context: int, members: List[int]) -> None:
        self._context_members.setdefault(context, tuple(members))

    def _revoke_context(self, context: int) -> None:
        if context in self._revoked:
            return
        self._revoked.add(context)
        for (rank, ctx), box in list(self._mailboxes.items()):
            if ctx != context:
                continue
            keep = []
            for source, tag, event in box.waiting:
                if tag != ANY_TAG and tag >= _AGREE_TAG_BASE:
                    keep.append((source, tag, event))  # agree() survives revoke
                    continue
                event.fail(RevokedError(
                    f"rank {rank}: recv(tag={tag}) aborted: communicator "
                    f"(context {context}) revoked (t={self.env.now:.6f})"
                ))
            box.waiting = keep

    # -- rank management ----------------------------------------------------
    def spawn(self, program: Callable[[Communicator], Generator], *args, **kwargs) -> None:
        """Launch ``program(comm, *args, **kwargs)`` on every rank."""
        for rank in range(self.size):
            self.spawn_rank(rank, program, *args, **kwargs)

    def spawn_rank(
        self, rank: int, program: Callable[[Communicator], Generator], *args, **kwargs
    ) -> Process:
        """Launch a program on one rank only."""
        if not (0 <= rank < self.size):
            raise RankError(f"rank {rank} out of range [0, {self.size})")
        gen = program(self.comms[rank], *args, **kwargs)
        proc = self.env.process(gen, name=f"rank{rank}:{getattr(program, '__name__', 'prog')}")
        self._procs.append(proc)
        return proc

    def run(self, until: Any = None) -> List[Any]:
        """Run the simulation until all spawned rank programs finish.

        Returns the per-rank return values in spawn order.
        """
        if not self._procs:
            raise MpiError("no rank programs spawned")
        done = self.env.all_of(self._procs)
        if until is None:
            values = self.env.run(until=done)
        else:
            self.env.run(until=until)
            if not done.processed:
                raise MpiError("rank programs did not finish before 'until'")
            values = done.value
        return values

    # -- internals ------------------------------------------------------------
    def _mailbox(self, rank: int, context: int = 0) -> _Mailbox:
        key = (rank, context)
        box = self._mailboxes.get(key)
        if box is None:
            box = _Mailbox()
            self._mailboxes[key] = box
        return box

    def _intern_context(self, key: Any) -> int:
        """A deterministic context id shared by all members of a split."""
        ctx = self._contexts.get(key)
        if ctx is None:
            ctx = len(self._contexts) + 1
            self._contexts[key] = ctx
        return ctx

    def _recv(self, rank: int, source: int, tag: int, context: int = 0,
              timeout: Optional[float] = None,
              max_bytes: Optional[int] = None):
        if source != ANY_SOURCE and not (0 <= source < self.size):
            raise RankError(f"source rank {source} out of range [0, {self.size})")
        box = self._mailbox(rank, context)
        done = self.env.event()
        box.match(source, tag, done)
        if not done.triggered and self.detector is not None:
            # A buffered message may still satisfy the receive; otherwise a
            # dead (set of) sender(s) fails it now instead of at the timeout.
            self._fail_dead_waiters(rank, context)
        if timeout is None:
            msg = yield done
        else:
            if timeout <= 0:
                raise MpiError("timeout must be positive")
            which, value = yield self.env.any_of([done, self.env.timeout(timeout)])
            if which == 0:
                msg = value
            elif done.triggered:  # matched at the same instant the clock expired
                msg = done.value
            else:
                box.cancel(done)
                src_label = "ANY_SOURCE" if source == ANY_SOURCE else source
                raise MpiTimeoutError(
                    f"rank {rank}: recv(source={src_label}, tag={tag}) timed "
                    f"out after {timeout:g}s at t={self.env.now:.6f}"
                )
        _check_integrity(msg, rank, max_bytes)
        return msg
