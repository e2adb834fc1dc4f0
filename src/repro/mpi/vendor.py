"""Vendor-tuned all-to-all algorithms.

§3.1: *"the traditional MPI implementation have a built in function for
performing the corner turn operation, namely the MPI_All_to_All function;
each vendor implemented their own version tailored to their respective
hardware for the most optimal performance."*

Four algorithms are provided, each favouring a different fabric:

``direct``
    Post every send at once, then drain receives.  Maximum concurrency;
    wins on a full crossbar with many simultaneous channels (Mercury
    RACEway).
``pairwise``
    p-1 synchronised exchange steps with partner ``rank XOR step`` (falls
    back to rotation offsets when p is not a power of two).  Disjoint pairs
    per step — the classic choice for switched fabrics like Myrinet (CSPI).
``ring``
    p-1 steps of shifted sendrecv: step s exchanges with ranks ±s.  Gentle,
    ordered load for shared-medium backplanes (SKYchannel).
``recursive_doubling``
    The Bruck algorithm: ceil(log2 p) rounds of bundled messages.  Fewer,
    larger messages — wins when per-message overhead/latency dominates
    (SIGI-class buses), loses bandwidth (each payload moves ~log p / 2
    times).

All return, on every rank, the list where entry ``s`` is the block rank ``s``
sent to this rank.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Generator, List

from ..perf.cache import named_cache
from .datatypes import payload_nbytes
from .errors import MpiError

if TYPE_CHECKING:
    from .comm import Communicator

__all__ = ["get_algorithm", "ALGORITHMS", "alltoall_direct", "alltoall_pairwise",
           "alltoall_ring", "alltoall_bruck", "partner_schedule"]

_TAG = (1 << 20) + 7  # reserved range, clear of user point-to-point tags

#: (algorithm, size, rank) -> per-step partner tuples; pure arithmetic on
#: immutable inputs, recomputed on every all-to-all call otherwise.
_SCHEDULE_CACHE = named_cache("mpi.alltoall_schedule", maxsize=4096)


def _tag(comm: Communicator) -> int:
    seq = getattr(comm, "_a2a_seq", 0)
    comm._a2a_seq = seq + 1
    # 256-wide slices so per-step tag offsets (ring: up to p-1) never collide
    # with the next call's slice.
    return _TAG + (seq % (1 << 10)) * 256


def partner_schedule(algorithm: str, size: int, rank: int):
    """Cached per-step partner schedule for one rank of an all-to-all.

    * ``pairwise``/``ring``: tuple of ``(send_to, recv_from)`` per step.
    * ``bruck``/``recursive_doubling``: tuple of
      ``(k, send_slots, dest, src)`` per round.
    """
    key = (algorithm, size, rank)
    cached = _SCHEDULE_CACHE.lookup(key)
    if cached is not None:
        return cached
    if algorithm == "pairwise":
        if size & (size - 1) == 0:
            sched = tuple((rank ^ s, rank ^ s) for s in range(1, size))
        else:
            sched = tuple(
                ((rank + s) % size, (rank - s) % size) for s in range(1, size)
            )
    elif algorithm == "ring":
        sched = tuple(
            ((rank + s) % size, (rank - s) % size) for s in range(1, size)
        )
    elif algorithm in ("bruck", "recursive_doubling"):
        rounds = []
        k = 1
        while k < size:
            rounds.append((
                k,
                tuple(i for i in range(size) if i & k),
                (rank + k) % size,
                (rank - k) % size,
            ))
            k <<= 1
        sched = tuple(rounds)
    else:
        raise MpiError(f"no partner schedule for algorithm {algorithm!r}")
    _SCHEDULE_CACHE.put(key, sched)
    return sched


def alltoall_direct(comm: Communicator, blocks: List[Any]) -> Generator:
    """Post all sends, then receive p-1 messages in arrival order."""
    tag = _tag(comm)
    size, rank = comm.size, comm.rank
    out: List[Any] = [None] * size
    reqs = []
    for dest in range(size):
        if dest == rank:
            continue
        reqs.append(comm.isend(blocks[dest], dest, tag=tag))
    # Tuned vendor code keeps the local block in place: no copy.
    out[rank] = blocks[rank]
    for _ in range(size - 1):
        msg = yield from comm.recv_msg(tag=tag)
        out[msg.source] = msg.data
    for req in reqs:
        yield from req.wait()
    return out


def alltoall_pairwise(comm: Communicator, blocks: List[Any]) -> Generator:
    """p-1 exchange steps; XOR partners when p is a power of two."""
    tag = _tag(comm)
    size, rank = comm.size, comm.rank
    out: List[Any] = [None] * size
    out[rank] = blocks[rank]  # local block stays in place (tuned vendor code)
    for send_to, recv_from in partner_schedule("pairwise", size, rank):
        out[recv_from] = yield from comm.sendrecv(
            blocks[send_to], dest=send_to, source=recv_from,
            sendtag=tag, recvtag=tag,
        )
    return out


def alltoall_ring(comm: Communicator, blocks: List[Any]) -> Generator:
    """p-1 rotation steps: step s sends to rank+s and receives from rank-s."""
    tag = _tag(comm)
    size, rank = comm.size, comm.rank
    out: List[Any] = [None] * size
    out[rank] = blocks[rank]  # local block stays in place (tuned vendor code)
    for step, (dest, src) in enumerate(partner_schedule("ring", size, rank), 1):
        # Serialise the steps (barrier-like pacing) by matching tags per step:
        out[src] = yield from comm.sendrecv(
            blocks[dest], dest=dest, source=src, sendtag=tag + step, recvtag=tag + step
        )
    return out


def alltoall_bruck(comm: Communicator, blocks: List[Any]) -> Generator:
    """Bruck's algorithm: ceil(log2 p) rounds of bundled blocks."""
    tag = _tag(comm)
    size, rank = comm.size, comm.rank
    # Phase 1: local rotation so that block for rank (rank+i)%p sits at slot i.
    work = [blocks[(rank + i) % size] for i in range(size)]
    yield from comm.copy(sum(payload_nbytes(b) for b in work))
    # Phase 2: log rounds; in round k send slots whose index has bit k set.
    rounds = partner_schedule("bruck", size, rank)
    for round_no, (_k, send_idx, dest, src) in enumerate(rounds):
        bundle = {i: work[i] for i in send_idx}
        received = yield from comm.sendrecv(
            bundle, dest=dest, source=src,
            sendtag=tag + round_no, recvtag=tag + round_no,
        )
        for i, blk in received.items():
            work[i] = blk
    # Phase 3: inverse rotation: slot i currently holds the block *from*
    # rank (rank - i) % p.
    out: List[Any] = [None] * size
    for i in range(size):
        out[(rank - i) % size] = work[i]
    yield from comm.copy(sum(payload_nbytes(b) for b in out if b is not None))
    return out


ALGORITHMS: Dict[str, Callable[[Communicator, List[Any]], Generator]] = {
    "direct": alltoall_direct,
    "pairwise": alltoall_pairwise,
    "ring": alltoall_ring,
    "recursive_doubling": alltoall_bruck,
    "bruck": alltoall_bruck,
}


def get_algorithm(name: str) -> Callable[[Communicator, List[Any]], Generator]:
    try:
        return ALGORITHMS[name]
    except KeyError:
        raise MpiError(
            f"unknown alltoall algorithm {name!r}; available: {sorted(ALGORITHMS)}"
        ) from None
