"""Tests for AnyOf (first-of-N) events and receive-with-timeout."""

import pytest

from repro.machine import Environment, SimCluster, SimulationError, cspi
from repro.mpi import MpiError, MpiTimeoutError, MpiWorld


class TestAnyOf:
    def test_first_event_wins(self):
        env = Environment()

        def proc():
            which, value = yield env.any_of(
                [env.timeout(5, "slow"), env.timeout(2, "fast")]
            )
            return (which, value, env.now)

        assert env.run(until=env.process(proc())) == (1, "fast", 2.0)

    def test_straggler_ignored(self):
        env = Environment()
        log = []

        def proc():
            which, value = yield env.any_of([env.timeout(1, "a"), env.timeout(3, "b")])
            log.append((which, value))
            yield env.timeout(10)  # let the straggler fire harmlessly

        env.process(proc())
        env.run()
        assert log == [(0, "a")]

    def test_failure_propagates(self):
        env = Environment()
        bad = env.event()

        def proc():
            try:
                yield env.any_of([bad, env.timeout(10)])
            except ValueError as e:
                return str(e)

        def failer():
            yield env.timeout(1)
            bad.fail(ValueError("boom"))

        p = env.process(proc())
        env.process(failer())
        assert env.run(until=p) == "boom"

    def test_empty_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.any_of([])

    def test_simultaneous_events_first_listed_wins(self):
        env = Environment()

        def proc():
            which, _ = yield env.any_of([env.timeout(1, "x"), env.timeout(1, "y")])
            return which

        assert env.run(until=env.process(proc())) == 0


class TestRecvTimeout:
    """``recv(timeout=...)`` waits on an AnyOf of the match and a timeout."""

    def make_world(self, nodes=2):
        env = Environment()
        return MpiWorld(SimCluster.from_platform(env, cspi(), nodes))

    def test_message_before_deadline(self):
        world = self.make_world()

        def sender(comm):
            yield from comm.send("hello", dest=1)

        def receiver(comm):
            data = yield from comm.recv(source=0, timeout=1.0)
            return data

        world.spawn_rank(0, sender)
        p = world.spawn_rank(1, receiver)
        world.env.run(until=p)
        assert p.value == "hello"

    def test_timeout_fires_when_no_message(self):
        world = self.make_world()

        def receiver(comm):
            with pytest.raises(MpiTimeoutError):
                yield from comm.recv(source=0, timeout=0.5)
            return comm.now

        p = world.spawn_rank(1, receiver)
        world.env.run(until=p)
        assert p.value == 0.5

    def test_late_message_not_lost(self):
        """A message arriving after the timeout must remain receivable."""
        world = self.make_world()

        def sender(comm):
            yield comm.env.timeout(1.0)
            yield from comm.send("late", dest=1)

        def receiver(comm):
            with pytest.raises(MpiTimeoutError):
                yield from comm.recv(source=0, timeout=0.1)
            late = yield from comm.recv(source=0)
            return late

        world.spawn_rank(0, sender)
        p = world.spawn_rank(1, receiver)
        world.env.run(until=p)
        assert p.value == "late"

    def test_tag_filtering_respected(self):
        world = self.make_world()

        def sender(comm):
            yield from comm.send("wrong-tag", dest=1, tag=7)

        def receiver(comm):
            with pytest.raises(MpiTimeoutError):
                yield from comm.recv(source=0, tag=3, timeout=0.2)
            # the tag-7 message is still there
            data = yield from comm.recv(source=0, tag=7)
            return data

        world.spawn_rank(0, sender)
        p = world.spawn_rank(1, receiver)
        world.env.run(until=p)
        assert p.value == "wrong-tag"

    def test_invalid_timeout(self):
        world = self.make_world()

        def receiver(comm):
            yield from comm.recv(timeout=0)

        world.spawn_rank(0, receiver)
        with pytest.raises(MpiError, match="timeout must be positive"):
            world.env.run()
