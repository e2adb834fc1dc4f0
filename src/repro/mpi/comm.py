"""Point-to-point message passing and the vendor all-to-all over the
simulated cluster: what the paper's hand-coded baselines (§3.1) run.

The programming model mirrors mpi4py, adapted to the discrete-event engine:
rank programs are *generators* and every communication call is either

* a sub-generator used with ``yield from`` (blocking calls returning values),
  e.g. ``data = yield from comm.recv(source=0)``, or
* an immediate call returning a :class:`Request` whose ``wait()`` is itself a
  sub-generator (nonblocking calls), e.g.::

      req = comm.isend(x, dest=1)
      ...
      yield from req.wait()

Every rank program gets its rank's endpoint into the one world
communicator; ranks are node indices.

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
arrived.  ``alltoall`` runs one of the vendor algorithms of
:mod:`repro.mpi.vendor` over these calls.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Generator, List, Optional, Sequence, Tuple

from ..machine.cluster import SimCluster
from ..machine.interconnect import Crossing
from ..machine.simulator import Environment, Event, Process
from .datatypes import ANY_SOURCE, ANY_TAG, copy_and_size
from .errors import (
    CorruptionError,
    DeliveryError,
    MpiError,
    MpiTimeoutError,
    RankError,
    TruncationError,
)
from .vendor import get_algorithm

__all__ = [
    "Message",
    "Request",
    "RetryPolicy",
    "Communicator",
    "MpiWorld",
    "ANY_SOURCE",
    "ANY_TAG",
]


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

    __slots__ = ("source", "dest", "tag", "data", "nbytes", "corrupted")

    def __init__(self, source: int, dest: int, tag: int, data: Any, nbytes: int):
        self.source = source
        self.dest = dest
        self.tag = tag
        self.data = data
        self.nbytes = nbytes
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


class Communicator:
    """One rank's endpoint into the world communicator."""

    def __init__(self, world: "MpiWorld", rank: int):
        self.world = world
        self.rank = rank
        self.size = world.size
        self.bytes_sent = 0
        self.messages_sent = 0
        #: Deadline applied to every recv (and hence every all-to-all) when
        #: the call itself passes no explicit timeout.  None = block forever.
        self.default_timeout: Optional[float] = None
        #: Default :class:`RetryPolicy` for p2p sends (None = fire and forget).
        self.retry_policy: Optional[RetryPolicy] = None

    @property
    def env(self) -> Environment:
        return self.world.env

    @property
    def now(self) -> float:
        return self.env.now

    def _check_rank(self, r: int) -> None:
        if not (0 <= r < self.size):
            raise RankError(f"peer rank {r} out of range [0, {self.size})")

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
        instead of wedging the event loop; the withdrawn receive leaves a
        late message queued for the next one.  ``max_bytes`` models a sized
        receive buffer: a matched message larger than it raises
        :class:`~repro.mpi.errors.TruncationError`.
        """
        msg = yield from self._recv(source, tag, timeout, max_bytes)
        return msg.data

    def recv_msg(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
                 timeout: Optional[float] = None) -> Generator:
        """Like :meth:`recv` but returns the full :class:`Message` envelope."""
        msg = yield from self._recv(source, tag, timeout, None)
        return msg

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

    def _recv(self, source: int, tag: int, timeout: Optional[float],
              max_bytes: Optional[int]) -> Generator:
        if source != ANY_SOURCE:
            self._check_rank(source)
        if timeout is None:
            timeout = self.default_timeout
        box = self.world._mailboxes[self.rank]
        done = self.env.event()
        box.match(source, tag, done)
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
                    f"rank {self.rank}: recv(source={src_label}, tag={tag}) timed "
                    f"out after {timeout:g}s at t={self.env.now:.6f}"
                )
        _check_integrity(msg, self.rank, max_bytes)
        return msg

    # -- the vendor all-to-all -------------------------------------------------
    def alltoall(self, blocks: Sequence[Any], algorithm: str = "pairwise") -> Generator:
        """Each rank sends ``blocks[d]`` to rank ``d``; returns the received list.

        ``algorithm`` selects the vendor implementation (§3.1): ``direct``,
        ``pairwise``, ``ring``, or ``recursive_doubling`` (Bruck).
        """
        if len(blocks) != self.size:
            raise MpiError(f"alltoall needs {self.size} blocks, got {len(blocks)}")
        result = yield from get_algorithm(algorithm)(self, list(blocks))
        return result

    # -- node access -----------------------------------------------------------
    def compute(self, flops: float) -> Generator:
        """Charge floating-point work to this rank's processor."""
        yield from self.world.cluster.node(self.rank).compute(flops)

    def copy(self, nbytes: float) -> Generator:
        """Charge a local memory copy to this rank's processor."""
        yield from self.world.cluster.node(self.rank).copy(nbytes)


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

    __slots__ = ("comm", "data", "tag", "policy", "msg")

    corrupt_ok = True

    def __init__(self, comm: "Communicator", data: Any, dest: int, tag: int,
                 policy: Optional[RetryPolicy]):
        self.comm, self.data, self.tag, self.policy = comm, data, tag, policy
        rule = policy or _SEND_ONCE
        super().__init__(comm.env, comm.world.cluster.fabric, comm.rank,
                         dest, 0, rule.max_attempts, rule.backoff, rule.factor)

    def _begin(self) -> None:
        self.comm._check_rank(self.dst)
        self._cross()

    def _cross(self) -> None:
        comm, world = self.comm, self.comm.world
        payload, nbytes = copy_and_size(self.data)
        self.msg = Message(self.src, self.dst, self.tag, payload, nbytes)
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
        self.comm.world._mailboxes[self.dst].deliver(msg)
        self._finish()

    def _undelivered(self, failure: Any) -> None:
        policy = self.policy
        if policy is None:
            if isinstance(failure, BaseException):
                raise failure
            self._finish()  # lost in transit: the wire time was spent
            return
        raise DeliveryError(
            f"rank {self.comm.rank}: send to rank {self.dst} tag {self.tag} failed after "
            f"{policy.max_attempts} attempt(s) at t={self.env.now:.6f}: {failure}")


class MpiWorld:
    """The set of ranks over a simulated cluster.

    ``default_timeout`` / ``retry_policy`` seed every rank communicator's
    fault-tolerance defaults (see :class:`Communicator`).
    """

    def __init__(self, cluster: SimCluster,
                 default_timeout: Optional[float] = None,
                 retry_policy: Optional[RetryPolicy] = None):
        self.cluster = cluster
        self.env: Environment = cluster.env
        self.size = len(cluster)
        # Seeded stream for RetryPolicy backoff jitter: derived from the
        # fault plan's seed (0 when no fault layer), drawn in simulation
        # event order — deterministic, and untouched when jitter is 0.
        faults = getattr(cluster, "faults", None)
        plan_seed = faults.plan.seed if faults is not None else 0
        self._backoff_rng = random.Random(plan_seed ^ 0x5B0FF)
        self._mailboxes = [_Mailbox() for _ in range(self.size)]
        self._procs: List[Process] = []
        self.comms: List[Communicator] = [Communicator(self, r) for r in range(self.size)]
        for comm in self.comms:
            comm.default_timeout = default_timeout
            comm.retry_policy = retry_policy
        self.total_bytes = 0
        self.total_messages = 0

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

    def run(self) -> List[Any]:
        """Run the simulation until all spawned rank programs finish.

        Returns the per-rank return values in spawn order.
        """
        if not self._procs:
            raise MpiError("no rank programs spawned")
        return self.env.run(until=self.env.all_of(self._procs))
