"""Kill-safety regressions for the simulation kernel.

Fault recovery kills in-flight work with ``CallbackProcess.cancel()``: a kick
event at the current instant, at which the process withdraws its pending
request, releases what it holds, and fires ``done`` with nothing.  The races
that matter:

* a cancel while the process's next step is already queued (the event it
  waited on is being processed, and its callback list cannot be edited):
  the step runs, the process moves on to a new event, and the kick must
  detach from that one too, or the stale callback steps a dead process;
* a cancel while queued on a ``Resource``, or while holding several, must
  withdraw the request or give every slot back, or the resource leaks and
  every later requester deadlocks;
* a held chain is handed back innermost first, whether the hold elapsed or
  was cancelled, so the waiter on the last resource is granted first.

``TestResourceCancel`` kills generators that hold a ``Resource`` through
``Resource.use`` (the test oracles' processes, see ``killable_process.py``).
"""

from repro.machine import SimCluster, cspi
from repro.machine.simulator import (
    AnyOf,
    CallbackProcess,
    Environment,
    Resource,
    SimulationError,
)

from .killable_process import KillableProcess


class Holder(CallbackProcess):
    """Holds ``chain`` for ``duration``, then finishes with the time."""

    __slots__ = ("chain", "duration")

    def __init__(self, env, chain, duration):
        super().__init__(env)
        self.chain, self.duration = chain, duration

    def _begin(self):
        self._hold(self.chain, self.duration, lambda: self._finish(self.env.now))


class Sleeper(CallbackProcess):
    """Waits on ``gate``, then sleeps 10 s; logs each stage."""

    __slots__ = ("gate", "log")

    def __init__(self, env, gate, log):
        super().__init__(env)
        self.gate, self.log = gate, log

    def _begin(self):
        self.log.append("start")
        self._wait(self.gate, self._resumed)

    def _resumed(self):
        self.log.append(("resumed", self.env.now))
        self._hold((), 10, self._slept)

    def _slept(self):
        self.log.append("slept")
        self._finish("slept")


def _at(env, when, fn):
    env.timeout(when).callbacks.append(lambda _ev: fn())


class TestCallbackCancel:
    def test_cancel_races_queued_step(self):
        """The canceller runs in the same callback list as the victim's
        step, ahead of it: ``cancel()`` cannot detach the step, the victim
        moves on to a 10 s sleep, and the kick must detach from that."""
        env = Environment()
        gate = env.event()
        gate.callbacks.append(lambda _ev: victim.cancel())
        log = []
        victim = Sleeper(env, gate, log)
        _at(env, 1, gate.succeed)
        env.run()
        assert log == ["start", ("resumed", 1.0)]
        assert victim.done.processed and victim.done.value is None
        assert env.now == 11.0  # the abandoned sleep still fires, unheard

    def test_cancel_while_queued_withdraws_request(self):
        env = Environment()
        res = Resource(env, capacity=1)
        holder = Holder(env, (res,), 10)
        waiter = Holder(env, (res,), 1)
        _at(env, 1, waiter.cancel)
        env.run(until=2)
        assert res.queue_length == 0 and res.count == 1
        assert waiter.done.processed and waiter.done.value is None
        env.run()
        assert holder.done.value == 10.0
        assert res.count == 0

    def test_cancel_while_holding_a_chain_releases_both(self):
        env = Environment()
        a, b = Resource(env), Resource(env)
        holder = Holder(env, (a, b), 100)
        env.run(until=0.5)
        later_a, later_b = Holder(env, (a,), 1), Holder(env, (b,), 1)
        _at(env, 0.5, holder.cancel)
        env.run()
        assert holder.done.value is None
        assert (later_a.done.value, later_b.done.value) == (2.0, 2.0)
        assert a.count == b.count == 0

    def test_cancel_before_begin_still_starts_then_dies(self):
        """Cancelled before its start event ran: it starts (its request is
        made) and dies at the kick, which withdraws the request."""
        env = Environment()
        res = Resource(env, capacity=1)
        proc = Holder(env, (res,), 5)
        proc.cancel()
        env.run()
        assert proc.done.value is None and env.now == 0.0
        assert res.count == 0 and res.queue_length == 0

    def test_request_failed_by_reset_fails_with_the_reset_error(self):
        """A reset fails the queued request: the waiter dies with the
        reset's own error and gives back no slot it was never granted —
        not the one a new holder took after the reset."""
        env = Environment()
        res = Resource(env, capacity=1)
        Holder(env, (res,), 5)
        waiter = Holder(env, (res,), 5)
        failures = []
        waiter.done.callbacks.append(lambda ev: failures.append(ev.value))
        _at(env, 1, lambda: (res.reset(), res.request()))
        env.run(until=2)
        (exc,) = failures
        assert isinstance(exc, SimulationError)
        assert "resource reset" in str(exc)
        assert not waiter.done.ok
        assert res.count == 1 and res.queue_length == 0

    def test_cancel_after_finish_is_a_noop(self):
        env = Environment()
        res = Resource(env, capacity=1)
        proc = Holder(env, (res,), 5)
        env.run()
        events = env.events_processed
        proc.cancel()
        env.run()
        assert proc.done.value == 5.0
        assert env.events_processed == events + 1  # the kick, nothing else
        assert res.count == 0


class TestNodeReplacedUnderAHolder:
    """``SimCluster.add_node`` on an existing index resets the node while a
    process may hold its CPU.  The holder's release must land on the CPU it
    was granted, not on the replacement's."""

    @staticmethod
    def _replaced_at(when):
        env = Environment()
        cluster = SimCluster.from_platform(env, cspi(), 2)
        old = Holder(env, (cluster.node(1).cpu,), 5)
        _at(env, when, lambda: cluster.add_node(index=1))
        return env, cluster, old

    def test_holder_outliving_the_reset_of_an_idle_node(self):
        env, cluster, old = self._replaced_at(1)
        env.run()
        assert old.done.value == 5.0
        assert cluster.node(1).cpu.count == 0

    def test_holder_release_does_not_free_a_later_grant(self):
        env, cluster, old = self._replaced_at(1)
        _at(env, 1, lambda: Holder(env, (cluster.node(1).cpu,), 10))
        env.run(until=6)  # the old hold elapsed at t=5
        assert old.done.value == 5.0
        assert cluster.node(1).cpu.count == 1  # the new holder's slot
        late = Holder(env, (cluster.node(1).cpu,), 1)
        env.run()
        assert late.done.value == 12.0  # queued behind the new holder to t=11


class TestReleaseOrder:
    """A chain is released innermost first: the waiter on ``chain[-1]`` is
    granted before the waiter on ``chain[0]``."""

    def _grants(self, end_hold):
        env = Environment()
        a, b = Resource(env), Resource(env)
        holder = Holder(env, (a, b), 1)
        env.run(until=0.5)
        granted = []
        for name, res in (("a", a), ("b", b)):
            res.request().callbacks.append(lambda _ev, n=name: granted.append(n))
        end_hold(env, holder)
        env.run()
        return granted

    def test_elapsed_hold_releases_innermost_first(self):
        assert self._grants(lambda env, holder: None) == ["b", "a"]

    def test_cancelled_hold_releases_innermost_first(self):
        assert self._grants(
            lambda env, holder: _at(env, 0.25, holder.cancel)) == ["b", "a"]


class TestResourceCancel:
    def test_queued_request_withdrawn_on_interrupt(self):
        env = Environment()
        res = Resource(env, capacity=1)

        def holder():
            yield from res.use(10)

        def waiter():
            yield from res.use(1)

        env.process(holder())
        w = KillableProcess(env, waiter())
        _at(env, 1, w.cancel)
        env.run()
        assert res.count == 0
        assert res.queue_length == 0

    def test_holder_interrupted_mid_use_releases_slot(self):
        env = Environment()
        res = Resource(env, capacity=1)
        acquired = []

        def holder():
            yield from res.use(100)

        def successor():
            yield env.timeout(2)
            yield from res.use(1)
            acquired.append(env.now)

        h = KillableProcess(env, holder())
        env.process(successor())
        _at(env, 1, h.cancel)
        env.run()
        # The successor got the slot right away at t=2 and held it 1s.
        assert acquired == [3]
        assert res.count == 0

    def test_cancel_granted_but_unconsumed_request(self):
        """A request granted at the same instant the requester is killed
        must be released, not leaked."""
        env = Environment()
        res = Resource(env, capacity=1)

        def victim():
            req = res.request()  # capacity free: granted immediately
            try:
                yield req
            except GeneratorExit:
                res.cancel(req)
                raise

        KillableProcess(env, victim()).cancel()
        env.run()
        assert res.count == 0

    def test_cancel_untracked_request_is_noop(self):
        env = Environment()
        res = Resource(env, capacity=1)
        stray = env.event()  # never a real request
        res.cancel(stray)
        assert res.count == 0 and res.queue_length == 0

    def test_anyof_is_exported(self):
        # Regression guard: AnyOf is public API for the timeout patterns.
        env = Environment()
        assert isinstance(env.any_of([env.timeout(1)]), AnyOf)
