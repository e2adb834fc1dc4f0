"""MPI fault paths: receive timeouts, truncation, corruption, send retry."""

import numpy as np
import pytest

from repro.faults import FaultPlan
from repro.machine import Environment, SimCluster, cspi
from repro.mpi import (
    CorruptionError,
    DeliveryError,
    MpiTimeoutError,
    MpiWorld,
    RetryPolicy,
    TruncationError,
)


def make_world(nodes=2, plan=None, **kwargs):
    env = Environment()
    cluster = SimCluster.from_platform(env, cspi(), nodes, fault_plan=plan)
    return MpiWorld(cluster, **kwargs)


class TestRecvTimeout:
    def test_recv_timeout_raises_instead_of_wedging(self):
        world = make_world(2)

        def silent(comm):
            if False:
                yield

        def receiver(comm):
            yield from comm.recv(source=0, timeout=0.01)

        world.spawn_rank(0, silent)
        world.spawn_rank(1, receiver)
        with pytest.raises(MpiTimeoutError,
                           match=r"rank 1: recv\(source=0.*timed out"):
            world.run()

    def test_timeout_is_mpi_and_builtin_timeout_error(self):
        assert issubclass(MpiTimeoutError, TimeoutError)

    def test_deadlocked_pair_raises_with_default_timeout(self):
        """Both ranks receive before sending — the classic deadlock.  A world
        default_timeout converts the wedge into a legible error."""
        world = make_world(2, default_timeout=0.01)

        def prog(comm):
            peer = 1 - comm.rank
            data = yield from comm.recv(source=peer)
            yield from comm.send(comm.rank, dest=peer)
            return data

        world.spawn(prog)
        with pytest.raises(MpiTimeoutError, match="timed out after 0.01s"):
            world.run()

    def test_late_message_survives_a_timed_out_recv(self):
        """After a timeout the pending receive is withdrawn; the message that
        arrives later stays queued for the next receive."""
        world = make_world(2)

        def sender(comm):
            yield from comm.compute(1e9)  # arrive well past the deadline
            yield from comm.send("late", dest=1, tag=5)

        def receiver(comm):
            with pytest.raises(MpiTimeoutError):
                yield from comm.recv(source=0, tag=5, timeout=1e-4)
            data = yield from comm.recv(source=0, tag=5)  # no deadline
            return data

        world.spawn_rank(0, sender)
        world.spawn_rank(1, receiver)
        assert world.run()[1] == "late"

    def test_request_wait_timeout(self):
        world = make_world(2)

        def sender(comm):
            # 8 MB takes far longer than 5 ms on the wire
            req = comm.isend(np.zeros(1 << 20), dest=1, tag=1)
            with pytest.raises(MpiTimeoutError, match="did not complete"):
                yield from req.wait(timeout=0.005)
            yield from req.wait()
            return "survived"

        def receiver(comm):
            yield from comm.recv(source=0, tag=1)

        world.spawn_rank(0, sender)
        world.spawn_rank(1, receiver)
        assert world.run()[0] == "survived"

    def test_collectives_inherit_default_timeout(self):
        """alltoall is built on recv, so a rank that never joins makes the
        others time out rather than hang forever."""
        world = make_world(4, default_timeout=0.01)

        def prog(comm):
            if comm.rank == 3:
                return "deserter"  # never joins the all-to-all
            yield from comm.alltoall([comm.rank] * comm.size)

        world.spawn(prog)
        with pytest.raises(MpiTimeoutError):
            world.run()


class TestIntegrity:
    def test_truncation_error_on_sized_recv(self):
        world = make_world(2)

        def sender(comm):
            yield from comm.send(np.zeros(1024, dtype=np.float64), dest=1)

        def receiver(comm):
            yield from comm.recv(source=0, max_bytes=512)

        world.spawn_rank(0, sender)
        world.spawn_rank(1, receiver)
        with pytest.raises(TruncationError, match="8192 bytes exceeds"):
            world.run()

    def test_corruption_detected_at_receive(self):
        world = make_world(2, plan=FaultPlan(seed=1).message_corruption(0.999))

        def sender(comm):
            yield from comm.send(np.arange(64), dest=1)

        def receiver(comm):
            yield from comm.recv(source=0)

        world.spawn_rank(0, sender)
        world.spawn_rank(1, receiver)
        with pytest.raises(CorruptionError, match="failed integrity check"):
            world.run()


class TestSendRetry:
    def test_retry_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(factor=0.5)

    def test_retry_delivers_over_lossy_link(self):
        # ~50% loss: 8 attempts make delivery overwhelmingly likely, and the
        # seeded RNG makes this exact run reproducible.
        world = make_world(
            2,
            plan=FaultPlan(seed=3).message_loss(0.5),
            retry_policy=RetryPolicy(max_attempts=8),
        )

        def prog(comm):
            if comm.rank == 0:
                yield from comm.send("payload", dest=1)
                return None
            data = yield from comm.recv(source=0)
            return data

        world.spawn(prog)
        assert world.run()[1] == "payload"

    def test_delivery_error_when_retries_exhausted(self):
        world = make_world(2, plan=FaultPlan(seed=1).message_loss(0.999))

        def sender(comm):
            yield from comm.send("doomed", dest=1, tag=9,
                                 retry=RetryPolicy(max_attempts=3))

        def receiver(comm):
            with pytest.raises(MpiTimeoutError):
                yield from comm.recv(source=0, tag=9, timeout=1.0)

        world.spawn_rank(0, sender)
        world.spawn_rank(1, receiver)
        with pytest.raises(DeliveryError,
                           match="failed after 3 attempt"):
            world.run()

    def test_plain_send_over_lossy_link_is_silent(self):
        """Without a retry policy a lost message is only observable at the
        receiver (via a timeout) — fire-and-forget semantics."""
        world = make_world(2, plan=FaultPlan(seed=1).message_loss(0.999))

        def sender(comm):
            yield from comm.send("void", dest=1)
            return "sent"

        def receiver(comm):
            with pytest.raises(MpiTimeoutError):
                yield from comm.recv(source=0, timeout=0.01)
            return "timed-out"

        world.spawn_rank(0, sender)
        world.spawn_rank(1, receiver)
        assert world.run() == ["sent", "timed-out"]
