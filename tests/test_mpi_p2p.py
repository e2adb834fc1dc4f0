"""Point-to-point message passing tests."""

import numpy as np
import pytest

from repro.machine import Environment, SimCluster, cspi
from repro.mpi import ANY_SOURCE, ANY_TAG, MpiError, MpiWorld, RankError


def make_world(nodes=4):
    env = Environment()
    return MpiWorld(SimCluster.from_platform(env, cspi(), nodes))


def test_send_recv_roundtrip():
    world = make_world(2)

    def prog(comm):
        if comm.rank == 0:
            yield from comm.send({"a": 7, "b": 3.14}, dest=1, tag=11)
            return None
        data = yield from comm.recv(source=0, tag=11)
        return data

    results = world.run() if world._procs else None
    world = make_world(2)
    world.spawn(prog)
    results = world.run()
    assert results[1] == {"a": 7, "b": 3.14}


def test_numpy_payload_is_copied_not_aliased():
    world = make_world(2)
    src = np.arange(10, dtype=np.float64)

    def sender(comm):
        yield from comm.send(src, dest=1)
        src[:] = -1  # mutate after send; receiver must not see it

    def receiver(comm):
        data = yield from comm.recv(source=0)
        return data

    world.spawn_rank(0, sender)
    p = world.spawn_rank(1, receiver)
    world.env.run(until=p)
    assert np.array_equal(p.value, np.arange(10, dtype=np.float64))


def test_tag_matching_out_of_order():
    world = make_world(2)

    def sender(comm):
        yield from comm.send("first", dest=1, tag=1)
        yield from comm.send("second", dest=1, tag=2)

    def receiver(comm):
        b = yield from comm.recv(source=0, tag=2)
        a = yield from comm.recv(source=0, tag=1)
        return (a, b)

    world.spawn_rank(0, sender)
    p = world.spawn_rank(1, receiver)
    world.env.run(until=p)
    assert p.value == ("first", "second")


def test_any_source_any_tag():
    world = make_world(3)

    def sender(comm):
        yield from comm.send(comm.rank, dest=2, tag=comm.rank * 10)

    def receiver(comm):
        got = set()
        for _ in range(2):
            v = yield from comm.recv(source=ANY_SOURCE, tag=ANY_TAG)
            got.add(v)
        return got

    world.spawn_rank(0, sender)
    world.spawn_rank(1, sender)
    p = world.spawn_rank(2, receiver)
    world.env.run(until=p)
    assert p.value == {0, 1}


def test_recv_msg_reports_envelope():
    world = make_world(2)

    def sender(comm):
        yield from comm.send(b"xyz", dest=1, tag=5)

    def receiver(comm):
        msg = yield from comm.recv_msg()
        return (msg.source, msg.tag, msg.nbytes, msg.data)

    world.spawn_rank(0, sender)
    p = world.spawn_rank(1, receiver)
    world.env.run(until=p)
    assert p.value == (0, 5, 3, b"xyz")


def test_isend_request_completes_once_buffered():
    world = make_world(2)

    def prog(comm):
        if comm.rank == 0:
            req = comm.isend(np.ones(4), dest=1)
            assert not req.complete
            yield from req.wait()
            return req.complete
        data = yield from comm.recv(source=0)
        return data.sum()

    world.spawn(prog)
    results = world.run()
    assert results == [True, 4.0]


def test_sendrecv_pair_exchange_no_deadlock():
    world = make_world(2)

    def prog(comm):
        other = 1 - comm.rank
        got = yield from comm.sendrecv(f"from{comm.rank}", dest=other, source=other)
        return got

    world.spawn(prog)
    assert world.run() == ["from1", "from0"]


def test_transfer_time_scales_with_message_size():
    def latency_of(nbytes):
        world = make_world(2)

        def sender(comm):
            yield from comm.send(np.zeros(nbytes, dtype=np.uint8), dest=1)

        def receiver(comm):
            yield from comm.recv(source=0)
            return comm.now

        world.spawn_rank(0, sender)
        p = world.spawn_rank(1, receiver)
        world.env.run(until=p)
        return p.value

    t_small, t_big = latency_of(1 << 10), latency_of(1 << 20)
    assert t_big > t_small
    # Large-message time dominated by bandwidth: ~1MB at 220MB/s intra-board.
    assert t_big == pytest.approx((1 << 20) / 220e6, rel=0.05)


def test_inter_board_message_slower_than_intra():
    def latency(src, dst):
        world = make_world(8)

        def sender(comm):
            yield from comm.send(np.zeros(1 << 20, dtype=np.uint8), dest=dst)

        def receiver(comm):
            yield from comm.recv(source=src)
            return comm.now

        world.spawn_rank(src, sender)
        p = world.spawn_rank(dst, receiver)
        world.env.run(until=p)
        return p.value

    assert latency(0, 4) > latency(0, 1)


def test_loopback_send_is_local_copy():
    world = make_world(2)

    def prog(comm):
        yield from comm.send("self", dest=0)
        v = yield from comm.recv(source=0)
        return (v, comm.now)

    p = world.spawn_rank(0, prog)
    world.env.run(until=p)
    v, t = p.value
    assert v == "self"
    # Much cheaper than a fabric message would be.
    assert t < cspi().fabric.intra_board.transfer_time(4)


def test_bad_dest_rank_raises():
    world = make_world(2)

    def prog(comm):
        yield from comm.send(1, dest=5)

    world.spawn_rank(0, prog)
    with pytest.raises(RankError):
        world.env.run()


def test_bad_source_rank_raises():
    world = make_world(2)

    def prog(comm):
        yield from comm.recv(source=17)

    world.spawn_rank(0, prog)
    with pytest.raises(RankError):
        world.env.run()


def test_run_without_programs_raises():
    with pytest.raises(MpiError):
        make_world(2).run()


def test_traffic_accounting():
    world = make_world(2)

    def prog(comm):
        if comm.rank == 0:
            yield from comm.send(np.zeros(100, dtype=np.uint8), dest=1)
        else:
            yield from comm.recv(source=0)

    world.spawn(prog)
    world.run()
    assert world.total_messages == 1
    assert world.total_bytes == 100
    assert world.comms[0].bytes_sent == 100
    assert world.comms[1].bytes_sent == 0


def test_many_ranks_ring_pass():
    world = make_world(8)

    def prog(comm):
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        token = yield from comm.sendrecv(comm.rank, dest=right, source=left)
        return token

    world.spawn(prog)
    results = world.run()
    assert results == [(r - 1) % 8 for r in range(8)]
