"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.machine.simulator import (
    Environment,
    Resource,
    SimulationError,
    Store,
)


def test_timeout_advances_clock():
    env = Environment()

    def proc():
        yield env.timeout(1.5)
        yield env.timeout(2.5)
        return env.now

    p = env.process(proc())
    assert env.run(until=p) == pytest.approx(4.0)
    assert env.now == pytest.approx(4.0)


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_timeout_carries_value():
    env = Environment()

    def proc():
        v = yield env.timeout(1, value="hello")
        return v

    assert env.run(until=env.process(proc())) == "hello"


def test_same_instant_events_fire_in_schedule_order():
    env = Environment()
    order = []

    def proc(tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in "abc":
        env.process(proc(tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_event_succeed_wakes_waiter_with_value():
    env = Environment()
    ev = env.event()
    results = []

    def waiter():
        v = yield ev
        results.append((env.now, v))

    def trigger():
        yield env.timeout(3)
        ev.succeed(42)

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert results == [(3.0, 42)]


def test_event_fail_raises_in_waiter():
    env = Environment()
    ev = env.event()

    def waiter():
        with pytest.raises(ValueError, match="boom"):
            yield ev
        return "caught"

    def trigger():
        yield env.timeout(1)
        ev.fail(ValueError("boom"))

    p = env.process(waiter())
    env.process(trigger())
    assert env.run(until=p) == "caught"


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()


def test_waiting_on_process_returns_its_value():
    env = Environment()

    def child():
        yield env.timeout(2)
        return "done"

    def parent():
        v = yield env.process(child())
        return (env.now, v)

    assert env.run(until=env.process(parent())) == (2.0, "done")


def test_process_exception_propagates_to_parent():
    env = Environment()

    def child():
        yield env.timeout(1)
        raise RuntimeError("child failed")

    def parent():
        try:
            yield env.process(child())
        except RuntimeError as e:
            return str(e)

    assert env.run(until=env.process(parent())) == "child failed"


def test_unhandled_process_exception_escapes_run():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise KeyError("unhandled")

    env.process(bad())
    with pytest.raises(KeyError):
        env.run()


def test_yielding_non_event_is_an_error():
    env = Environment()

    def bad():
        yield 5

    env.process(bad())
    with pytest.raises(SimulationError, match="expected an Event"):
        env.run()


def test_all_of_collects_values():
    env = Environment()

    def proc():
        vals = yield env.all_of([env.timeout(1, "a"), env.timeout(3, "b"), env.timeout(2, "c")])
        return (env.now, vals)

    assert env.run(until=env.process(proc())) == (3.0, ["a", "b", "c"])


def test_all_of_empty_fires_immediately():
    env = Environment()

    def proc():
        vals = yield env.all_of([])
        return vals

    assert env.run(until=env.process(proc())) == []


def test_run_until_time_stops_clock_exactly():
    env = Environment()
    seen = []

    def proc():
        while True:
            yield env.timeout(1)
            seen.append(env.now)

    env.process(proc())
    env.run(until=3.5)
    assert seen == [1.0, 2.0, 3.0]
    assert env.now == pytest.approx(3.5)


def test_run_until_event_deadlock_detected():
    env = Environment()
    ev = env.event()

    def waiter():
        yield ev

    p = env.process(waiter())
    with pytest.raises(SimulationError, match="deadlock"):
        env.run(until=p)


def test_store_fifo_order():
    env = Environment()
    store = Store(env)
    got = []

    def producer():
        for i in range(3):
            yield env.timeout(1)
            yield store.put(i)

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append((env.now, item))

    env.process(producer())
    env.process(consumer())
    env.run()
    assert got == [(1.0, 0), (2.0, 1), (3.0, 2)]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)

    def consumer():
        item = yield store.get()
        return (env.now, item)

    def producer():
        yield env.timeout(7)
        yield store.put("x")

    p = env.process(consumer())
    env.process(producer())
    assert env.run(until=p) == (7.0, "x")


def test_store_capacity_blocks_put():
    env = Environment()
    store = Store(env, capacity=1)
    log = []

    def producer():
        yield store.put("a")
        log.append(("put-a", env.now))
        yield store.put("b")  # blocks until 'a' consumed
        log.append(("put-b", env.now))

    def consumer():
        yield env.timeout(4)
        item = yield store.get()
        log.append(("got", item, env.now))

    env.process(producer())
    env.process(consumer())
    env.run()
    assert ("put-a", 0.0) in log
    assert ("put-b", 4.0) in log


def test_store_multiple_getters_fifo():
    env = Environment()
    store = Store(env)
    got = []

    def getter(tag):
        item = yield store.get()
        got.append((tag, item))

    def putter():
        yield env.timeout(1)
        yield store.put(1)
        yield store.put(2)

    env.process(getter("first"))
    env.process(getter("second"))
    env.process(putter())
    env.run()
    assert got == [("first", 1), ("second", 2)]


def test_resource_serialises():
    env = Environment()
    res = Resource(env, capacity=1)
    spans = []

    def worker(tag):
        start_req = env.now
        yield res.request()
        start = env.now
        yield env.timeout(10)
        res.release()
        spans.append((tag, start_req, start, env.now))

    for tag in ("a", "b"):
        env.process(worker(tag))
    env.run()
    assert spans[0] == ("a", 0.0, 0.0, 10.0)
    assert spans[1] == ("b", 0.0, 10.0, 20.0)


def test_resource_capacity_two_runs_in_parallel():
    env = Environment()
    res = Resource(env, capacity=2)
    done = []

    def worker(tag):
        yield res.request()
        yield env.timeout(10)
        res.release()
        done.append((tag, env.now))

    for tag in ("a", "b", "c"):
        env.process(worker(tag))
    env.run()
    assert done == [("a", 10.0), ("b", 10.0), ("c", 20.0)]


def test_resource_release_without_request_raises():
    env = Environment()
    res = Resource(env)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_use_helper():
    env = Environment()
    res = Resource(env)

    def worker():
        yield from res.use(5.0)
        return env.now

    assert env.run(until=env.process(worker())) == 5.0
    assert res.count == 0


def test_step_with_empty_queue_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_run_until_past_time_raises():
    env = Environment(initial_time=10.0)
    with pytest.raises(SimulationError):
        env.run(until=5.0)
