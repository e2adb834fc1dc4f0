"""All-to-all semantics through ``Communicator.alltoall``."""

import numpy as np
import pytest

from repro.machine import Environment, SimCluster, cspi
from repro.mpi import MpiError, MpiWorld


def run_collective(nodes, prog):
    env = Environment()
    world = MpiWorld(SimCluster.from_platform(env, cspi(), nodes))
    world.spawn(prog)
    return world.run()


@pytest.mark.parametrize("nodes", [2, 4, 8])
def test_alltoall_semantics(nodes):
    def prog(comm):
        blocks = [f"{comm.rank}->{d}" for d in range(comm.size)]
        out = yield from comm.alltoall(blocks)
        return out

    results = run_collective(nodes, prog)
    for d, received in enumerate(results):
        assert received == [f"{s}->{d}" for s in range(nodes)]


def test_alltoall_wrong_block_count():
    def prog(comm):
        yield from comm.alltoall(["too-few"])

    with pytest.raises(MpiError):
        run_collective(4, prog)


def test_alltoall_variable_blocks():
    def prog(comm):
        # block for destination d has d+1 elements tagged with the source
        blocks = [np.full(d + 1, float(comm.rank)) for d in range(comm.size)]
        out = yield from comm.alltoall(blocks)
        return [(x.size, x[0]) for x in out]

    results = run_collective(4, prog)
    for d, received in enumerate(results):
        assert received == [(d + 1, float(s)) for s in range(4)]


def test_consecutive_collectives_do_not_cross_match():
    # "direct" receives from ANY_SOURCE, so only the per-call tag slice keeps
    # a fast rank's second all-to-all out of a slow rank's first.
    def prog(comm):
        yield comm.env.timeout(comm.rank * 1e-4)
        a = yield from comm.alltoall([("a", comm.rank)] * comm.size, algorithm="direct")
        b = yield from comm.alltoall([("b", comm.rank)] * comm.size, algorithm="direct")
        return (a, b)

    results = run_collective(4, prog)
    for a, b in results:
        assert a == [("a", s) for s in range(4)]
        assert b == [("b", s) for s in range(4)]


def test_collective_mixed_with_user_p2p_tags():
    def prog(comm):
        if comm.rank == 0:
            yield from comm.send("user", dest=1, tag=0)
        out = yield from comm.alltoall([comm.rank] * comm.size, algorithm="direct")
        if comm.rank == 1:
            extra = yield from comm.recv(source=0, tag=0)
            return (out, extra)
        return (out, None)

    results = run_collective(2, prog)
    assert results[0] == ([0, 1], None)
    assert results[1] == ([0, 1], "user")
