"""The fabric crossing (machine/interconnect.py) at its own layer.

A bare :class:`Crossing` over a simulated cluster's fabric, with no sender
stages around it: cancellation at each point it can be suspended, delivery,
the retry loop, and the failure exits — failing ``done`` when awaited,
leaving the engine step otherwise — including through ``repro.mpi``'s
``Request``.  The run-time's stages on top are in ``test_transfer.py``.
"""

import pytest

from repro.chaos.invariants import check_quiescent
from repro.machine import (
    Crossing,
    Environment,
    FaultPlan,
    LinkFailure,
    SimCluster,
    get_platform,
)
from repro.mpi import DeliveryError, MpiWorld, RetryPolicy

NODES = 8
NBYTES = 1 << 16


class Rig:
    """A cluster plus the ports of one inter-board hop (so a shared-medium
    fabric puts its medium in the path)."""

    def __init__(self, platform="cspi", plan=None):
        self.env = Environment()
        self.cluster = SimCluster.from_platform(
            self.env, get_platform(platform), NODES, fault_plan=plan)
        fabric = self.fabric = self.cluster.fabric
        self.src = 0
        self.dst = next(n for n in range(1, NODES) if not fabric.same_board(0, n))
        self.inject = fabric._port(fabric._inject, self.src)
        self.eject = fabric._port(fabric._eject, self.dst)
        self.shared = fabric._shared

    def start(self, cls=Crossing, **kwargs) -> Crossing:
        return cls(self.env, self.fabric, self.src, self.dst, NBYTES, **kwargs)

    def step_until(self, condition) -> None:
        for _ in range(200):
            if condition():
                return
            self.env.step()
        raise AssertionError("crossing never reached the wanted state")

    def assert_clean(self) -> None:
        """No port or medium held, nobody queued, engine quiet."""
        for resource in (self.inject, self.eject, self.shared):
            assert resource.count == 0
            assert resource.queue_length == 0
        assert check_quiescent(self.env, self.cluster) == []


#: state -> (port the test holds to block the crossing there,
#:           what then holds of the crossing)
SUSPENDED = {
    "queued_on_inject": (
        "inject", lambda r: r.inject.queue_length == 1),
    "holding_inject_queued_on_eject": (
        "eject", lambda r: r.inject.count == 1 and r.eject.queue_length == 1),
    "on_the_wire": (
        None, lambda r: r.inject.count == 1 and r.eject.count == 1),
}


@pytest.mark.parametrize("state", sorted(SUSPENDED))
def test_cancel_releases_everything(state):
    rig = Rig()
    blocker_name, reached = SUSPENDED[state]
    blocker = getattr(rig, blocker_name) if blocker_name else None
    if blocker is not None:
        blocker.request()
    crossing = rig.start()
    rig.step_until(lambda: reached(rig))

    finished = []
    crossing.done.add_callback(
        lambda e: finished.append((rig.env.now, e.value)))
    cancelled_at = rig.env.now
    crossing.cancel()
    rig.env.run()

    assert finished == [(cancelled_at, None)]  # no outcome: nothing arrived
    if blocker is not None:
        assert blocker.count == 1  # the test's own hold, nobody else's
        blocker.release()
    rig.assert_clean()


def test_cancel_on_a_shared_medium_releases_the_medium():
    rig = Rig(platform="sky")
    assert not rig.fabric.spec.crossbar
    crossing = rig.start()
    rig.step_until(lambda: rig.shared.count == 1 and rig.eject.count == 1)
    crossing.cancel()
    rig.env.run()
    assert crossing.done.processed and crossing.done.value is None
    rig.assert_clean()


def test_cancel_before_the_start_event_still_dies_clean():
    rig = Rig()
    crossing = rig.start()
    crossing.cancel()
    rig.env.run()
    assert crossing.done.processed and crossing.done.value is None
    assert rig.inject.count == 0 and rig.env.now == 0.0  # never routed
    rig.assert_clean()


@pytest.mark.parametrize("platform", ["cspi", "sky"])
def test_delivery_takes_the_wire_time_and_returns_the_verdict(platform):
    rig = Rig(platform=platform)
    crossing = rig.start()
    rig.env.run()
    assert crossing.done.value.ok
    assert rig.env.now == pytest.approx(
        rig.fabric.wire_time(rig.src, rig.dst, NBYTES))
    rig.assert_clean()


def test_an_outage_fails_done_when_awaited():
    rig = Rig(plan=FaultPlan().drop_link(0, 1, at=0.0))
    rig.dst = 1
    caught = []

    def waiter():
        try:
            yield rig.start().done
        except LinkFailure as exc:
            caught.append(exc)

    rig.env.process(waiter())
    rig.env.run()
    assert len(caught) == 1
    rig.assert_clean()


def test_an_outage_leaves_the_engine_step_when_nothing_awaits():
    rig = Rig(plan=FaultPlan().drop_link(0, 1, at=0.0))
    rig.dst = 1
    rig.start()
    with pytest.raises(LinkFailure):
        rig.env.run()


class Recording(Crossing):
    """The retry rule as a sender supplies it: record, then sleep."""

    __slots__ = ("retries",)

    def __init__(self, *args, **kwargs):
        self.retries = []
        super().__init__(*args, **kwargs)

    def _backoff(self, failure, delay):
        self.retries.append((self._attempt, str(failure), delay))
        return delay


def test_retries_back_off_then_finish_with_the_last_verdict():
    rig = Rig(plan=FaultPlan(seed=3).message_loss(0.999))
    crossing = rig.start(Recording, attempts=3, backoff=1e-5, factor=2.0)
    rig.env.run()
    assert crossing.retries == [(1, "message lost", 1e-5),
                                (2, "message lost", 2e-5)]
    outcome = crossing.done.value
    assert not outcome.delivered and outcome.reason == "message lost"
    wire = rig.fabric.wire_time(rig.src, rig.dst, NBYTES)
    assert rig.env.now == pytest.approx(3 * wire + 3e-5)
    rig.assert_clean()


# -- repro.mpi: an isend is a crossing whose completion is the Request ------
def _isend_outcome(plan, retry=None):
    world = MpiWorld(SimCluster.from_platform(
        Environment(), get_platform("cspi"), 2, fault_plan=plan))

    def program(comm):
        if comm.rank == 1:
            return None
        req = comm.isend(b"payload", dest=1, retry=retry)
        try:
            yield from req.wait()
        except Exception as exc:
            return exc
        return "completed"

    world.spawn(program)
    return world.run()[0]


def test_isend_failure_propagates_through_request_wait():
    exc = _isend_outcome(FaultPlan().drop_link(0, 1, at=0.0))
    assert isinstance(exc, LinkFailure)


def test_isend_gives_up_through_request_wait():
    exc = _isend_outcome(FaultPlan(seed=3).message_loss(0.999),
                         retry=RetryPolicy(max_attempts=2, backoff=1e-6))
    assert isinstance(exc, DeliveryError)
    assert "failed after 2 attempt(s)" in str(exc)


def test_isend_without_a_policy_loses_silently():
    assert _isend_outcome(FaultPlan(seed=3).message_loss(0.999)) == "completed"
