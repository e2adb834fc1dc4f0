"""The run-time's message transfer state machine (core/runtime/transfer.py).

Event-for-event equivalence with the generator process it replaced is
pinned by ``test_event_parity.py`` and the golden traces; these tests drive
single transfers through the states only recovery reaches: cancellation at
each point a transfer can be suspended, and the failure exits.
"""

import pytest

from repro.apps import benchmark_mapping, fft2d_model
from repro.chaos.invariants import check_quiescent
from repro.core.codegen import generate_glue
from repro.core.runtime import DEFAULT_CONFIG, SageRuntime
from repro.core.runtime.transfer import Transfer
from repro.faults import FaultPlan, FaultPolicy, LinkFailure, TransportError
from repro.machine import Environment, SimCluster, get_platform

NODES = 8


class Rig:
    """A loaded run-time plus one message of its plans that crosses boards
    (so a shared-medium fabric puts its medium in the path)."""

    def __init__(self, platform="cspi", plan=None, policy=None):
        model = fft2d_model(32, NODES)
        glue = generate_glue(model, benchmark_mapping(model, NODES),
                             num_processors=NODES)
        self.env = Environment()
        self.cluster = SimCluster.from_platform(
            self.env, get_platform(platform), NODES, fault_plan=plan)
        self.rt = SageRuntime(glue, self.cluster,
                              config=DEFAULT_CONFIG.timing_only(),
                              fault_policy=policy)
        fabric = self.cluster.fabric
        rt = self.rt
        self.buf, self.msg = buf, _ = next(
            (b, m) for b in rt.buffers for t in range(b.src_threads)
            for m in b.send_order(t)
            if not fabric.same_board(
                rt.processor_of(b.src_function, m.src_thread),
                rt.processor_of(b.dst_function, m.dst_thread))
        )
        self.src = rt.processor_of(buf.src_function, self.msg.src_thread)
        self.dst = rt.processor_of(buf.dst_function, self.msg.dst_thread)
        self.node = self.cluster.node(self.src)
        self.cpu = self.node.cpu
        self.inject = fabric._port(fabric._inject, self.src)
        self.eject = fabric._port(fabric._eject, self.dst)
        self.shared = fabric._shared
        self.arrival = rt._arrival_events(buf, 0, self.msg.dst_thread)[
            buf.message_slot(self.msg)]

    def start(self) -> Transfer:
        rt, buf = self.rt, self.buf
        return Transfer(rt, buf, self.msg, 0, rt.functions[buf.src_function],
                        self.node, self.dst, rt.functions[buf.dst_function],
                        buf.message_slot(self.msg))

    def step_until(self, condition) -> None:
        for _ in range(200):
            if condition():
                return
            self.env.step()
        raise AssertionError("transfer never reached the wanted state")

    def assert_clean(self) -> None:
        """Nothing held, nobody queued, nothing in flight, engine quiet."""
        for resource in (self.cpu, self.inject, self.eject, self.shared):
            assert resource.count == 0
            assert resource.queue_length == 0
        assert not self.rt._in_flight
        assert check_quiescent(self.env, self.cluster) == []


#: state -> (resource the test holds to block the transfer there,
#:           what then holds of the transfer)
SUSPENDED = {
    "queued_on_cpu": (
        "cpu", lambda r: r.cpu.queue_length == 1),
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
    transfer = rig.start()
    rig.step_until(lambda: reached(rig))

    finished_at = []
    transfer.done.add_callback(lambda _e: finished_at.append(rig.env.now))
    cancelled_at = rig.env.now
    transfer.cancel()
    assert rig.rt._in_flight  # dies at the kick event, not inside cancel()
    rig.env.run()

    assert finished_at == [cancelled_at]
    assert not rig.arrival.triggered
    assert rig.rt.trace.by_kind("arrive") == []
    if blocker is not None:
        assert blocker.count == 1  # the test's own hold, nobody else's
        blocker.release()
    rig.assert_clean()


def test_cancel_on_a_shared_medium_releases_the_medium():
    rig = Rig(platform="sky")
    transfer = rig.start()
    rig.step_until(lambda: rig.shared.count == 1 and rig.eject.count == 1)
    transfer.cancel()
    rig.env.run()
    assert transfer.done.processed and not rig.arrival.triggered
    rig.assert_clean()


def test_cancel_before_the_start_event_still_dies_clean():
    rig = Rig()
    transfer = rig.start()
    transfer.cancel()
    rig.env.run()
    assert transfer.done.processed and not rig.arrival.triggered
    assert rig.rt.trace.by_kind("send") == []
    rig.assert_clean()


def test_cancel_after_delivery_is_a_no_op():
    rig = Rig()
    transfer = rig.start()
    rig.env.run()
    assert rig.arrival.processed and transfer.done.processed
    transfer.cancel()
    rig.env.run()  # the kick finds it finished: done is not fired twice
    rig.assert_clean()


@pytest.mark.parametrize("platform", ["cspi", "sky"])
def test_delivery_probes_and_fires_the_arrival(platform):
    rig = Rig(platform=platform)
    transfer = rig.start()
    assert list(rig.rt._in_flight) == [transfer]
    rig.env.run()
    kinds = [e.kind for e in rig.rt.trace]
    assert kinds == ["send", "arrive"]
    send, arrive = rig.rt.trace.events
    assert (send.processor, arrive.processor) == (rig.src, rig.dst)
    assert arrive.time - send.time == pytest.approx(
        rig.cluster.fabric.transfer_time(rig.src, rig.dst, rig.msg.nbytes))
    assert rig.arrival.processed and transfer.done.processed
    rig.assert_clean()


def test_unretried_outage_raises_and_deregisters():
    route = Rig()  # placement is deterministic: find the link to cut
    rig = Rig(plan=FaultPlan().drop_link(route.src, route.dst, at=0.0))
    rig.start()
    with pytest.raises(LinkFailure):
        rig.env.run()
    assert not rig.arrival.triggered
    rig.assert_clean()


def test_retries_back_off_then_give_up():
    plan = FaultPlan(seed=3).message_loss(0.999)
    policy = FaultPolicy.retry(max_retries=2)
    rig = Rig(plan=plan, policy=policy)
    rig.start()
    with pytest.raises(TransportError,
                       match=r"undelivered: message lost; gave up after 3 "
                             r"attempt\(s\)"):
        rig.env.run()
    retries = rig.rt.trace.by_kind("retry")
    assert [e.detail.split(":")[0].split()[-1] for e in retries] == ["1", "2"]
    # Each retry waits out the (doubling) backoff, then pays the wire again.
    sends = rig.rt.trace.by_kind("send")
    assert len(sends) == 1
    assert retries[1].time - retries[0].time > policy.backoff
    assert not rig.arrival.triggered
    rig.assert_clean()


def test_retry_delivers_after_a_loss():
    """The lost-then-retried path end to end: same seeded draws, in the same
    order, as the golden lossy scenario relies on."""
    plan = FaultPlan(seed=1).message_loss(0.5)
    policy = FaultPolicy.retry(max_retries=8)
    rig = Rig(plan=plan, policy=policy)
    lost = []
    rig.cluster.faults.subscribe(
        lambda time, kind, detail, node: lost.append(kind))
    transfer = rig.start()
    rig.env.run()
    assert lost and set(lost) == {"message_loss"}
    assert len(rig.rt.trace.by_kind("retry")) == len(lost)
    assert rig.arrival.processed and transfer.done.processed
    rig.assert_clean()
