"""Discrete-event simulation engine.

A small, self-contained, SimPy-flavoured kernel used by every timed layer of
the reproduction: the simulated cluster, the message-passing library, and the
SAGE run-time.  The :class:`Environment` advances a virtual clock and fires
events; processes wait on them.  A process is written one of two ways:

* :class:`CallbackProcess` -- a state machine whose one verb is *hold these
  resources for this long* (or *wait for this event*), *then continue
  there*.  Every actor of the system itself is one: the run-time's thread
  bodies and message crossings, the failure detector's periodic duties and
  RTT probes, and the fault injector's schedule and hangs (the last two on
  :class:`Timer`).  Fault recovery kills one with ``cancel()``, which
  withdraws its pending request and releases what it holds.
* :class:`Process` -- a generator that yields events; only user rank
  programs (``repro.mpi``) are written this way, and nothing kills them.

Design notes
------------
* Events are totally ordered by ``(time, priority, sequence)`` so runs are
  deterministic: two events scheduled for the same instant fire in schedule
  order.
* Fast path: the vast majority of schedule operations are zero-delay (an
  event firing at the current instant — every ``succeed``/``fail``, process
  start, and post-processing callback).  Those never enter the heap; they go
  to two deques holding only current-instant entries (priority 0 for
  callback hand-offs, priority 1 for events), and one loop merges deques and
  heap in exact ``(time, priority, sequence)`` order: ``run`` drains through
  it, ``step`` runs it for one entry.  Only real timeouts pay ``heappush``.
* A generator process may yield:
    - :class:`Timeout`     -- resume after a virtual delay,
    - :class:`Event`       -- resume when someone triggers it,
    - :class:`Process`     -- resume when the child process terminates
      (its value is the child's return value),
    - :class:`AllOf`       -- resume when every sub-event has fired.
* :class:`Store` is an unbounded FIFO channel with blocking ``get``;
  :class:`Resource` is a counted lock used to model link/bus contention.

The engine never consults the wall clock; all time is virtual seconds.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "CallbackProcess",
    "Store",
    "Resource",
    "SimulationError",
    "Timer",
]


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel."""


class Event:
    """A one-shot occurrence that processes can wait on.

    An event is *triggered* at most once, with an optional value.  Callbacks
    registered before the trigger run when it fires; callbacks registered
    after it fired are scheduled immediately.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "triggered", "processed")

    #: sentinel meaning "no value yet"
    _PENDING = object()

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = Event._PENDING
        self._ok = True
        self.triggered = False
        self.processed = False

    # -- inspection ------------------------------------------------------
    @property
    def value(self) -> Any:
        if self._value is Event._PENDING:
            raise SimulationError("event has not been triggered")
        return self._value

    @property
    def ok(self) -> bool:
        return self._ok

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self._ok = True
        self._value = value
        env = self.env  # inlined zero-delay _schedule (hottest call site)
        env._imm1.append((next(env._seq), self))
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception that will be raised in waiters."""
        if self.triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self.triggered = True
        self._ok = False
        self._value = exc
        env = self.env
        env._imm1.append((next(env._seq), self))
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            # Already processed: run at the current instant.
            self.env._schedule_callback(fn, self)
        else:
            self.callbacks.append(fn)


class Timeout(Event):
    """An event that fires automatically after a virtual delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        # Event.__init__, inlined: timeouts are among the hottest allocations.
        self.env, self.callbacks, self._value, self._ok = env, [], value, True
        self.triggered, self.processed, self.delay = True, False, float(delay)
        if self.delay == 0.0:
            env._imm1.append((next(env._seq), self))
        else:
            heapq.heappush(
                env._queue, (env._now + self.delay, 1, next(env._seq), self)
            )


class Process(Event):
    """A running generator; also an event that fires when the generator ends."""

    __slots__ = ("generator", "name", "_target")

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"Process requires a generator, got {type(generator).__name__}"
            )
        super().__init__(env)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None  # the event it waits on
        # Kick off at the current instant.  Equivalent to creating an Event,
        # succeeding it and registering _resume, but without the method-call
        # overhead — process starts are one of the hottest schedule sites.
        init = Event(env)
        init.triggered = True
        init._value = None
        init.callbacks.append(self._resume)
        env._imm1.append((next(env._seq), init))

    def _resume(self, event: Event) -> None:
        env = self.env
        try:
            if event._ok:
                target = self.generator.send(event._value)
            else:
                target = self.generator.throw(event._value)
        except StopIteration as stop:
            self.triggered = True
            self._ok = True
            self._value = stop.value
            env._schedule(self)
            return
        except BaseException as exc:
            self.triggered = True
            self._ok = False
            self._value = exc
            if not self.callbacks:
                raise
            env._schedule(self)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {type(target).__name__}, "
                "expected an Event"
            )
        if target.env is not env:
            raise SimulationError("cannot wait on an event from another Environment")
        self._target = target
        target.add_callback(self._resume)


class AllOf(Event):
    """Fires when every sub-event has fired; value is the list of values."""

    __slots__ = ("events", "_remaining")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        self._remaining = len(self.events)
        if self._remaining == 0:
            self.succeed([])
            return
        for ev in self.events:
            ev.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([ev.value for ev in self.events])


class AnyOf(Event):
    """Fires when the first sub-event fires; value is ``(index, value)``.

    Late stragglers are ignored (their values are simply dropped), so the
    classic receive-with-timeout pattern is::

        which, value = yield env.any_of([data_event, env.timeout(1.0)])
        if which == 1: ...  # timed out
    """

    __slots__ = ("events",)

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        if not self.events:
            raise SimulationError("any_of needs at least one event")
        for index, ev in enumerate(self.events):
            ev.add_callback(self._make_callback(index))

    def _make_callback(self, index: int):
        def on_child(event: Event) -> None:
            if self.triggered:
                return
            if not event.ok:
                self.fail(event.value)
                return
            self.succeed((index, event.value))

        return on_child


class CallbackProcess:
    """A process written as callbacks, with one verb — *hold these resources
    for this long* (or *wait for this event*), *then continue there* — that
    schedules exactly the events a generator process would, in the same
    order.  Subclasses start in ``_begin``.  ``done`` fires with
    :meth:`_finish`'s value (nothing if cancelled); a stage that raises fails
    ``done`` if it is awaited, else leaves the engine step."""

    __slots__ = ("env", "done", "_chain", "_held", "_duration", "_then",
                 "_target")

    def __init__(self, env: "Environment"):
        self.env, self.done = env, Event(env)
        #: Resources to hold together, in acquisition order.  The first
        #: ``_held`` are held; ``_target`` is the next one's request or, with
        #: all held, the timeout (or awaited event) before ``_then`` runs.
        self._chain: Tuple[Resource, ...] = ()
        self._held, self._then = 0, self._begin
        # As with a Process's start event, _target stays unset: a process
        # cancelled before it starts still starts, and dies at the kick.
        self._target: Optional[Event] = None
        Event(env).succeed().callbacks.append(self._elapsed)

    # -- process mechanics ---------------------------------------------------
    def _hold(self, chain: Tuple["Resource", ...], duration: float,
              then: Callable[[], None]) -> None:
        self._chain, self._duration, self._then = chain, duration, then
        if chain:
            self._target = request = chain[0].request()
            request.callbacks.append(self._granted)
        else:
            self._target = timeout = Timeout(self.env, duration)
            timeout.callbacks.append(self._elapsed)

    def _wait(self, event: Event, then: Callable[[], None]) -> None:
        """A generator's ``yield event``: continue at ``then`` once it fired."""
        self._then, self._target = then, event
        event.add_callback(self._elapsed)

    def _granted(self, request: Event) -> None:
        if not request._ok:  # the resource was reset under the request
            self._fail(request._value)
            return
        held = self._held = self._held + 1
        chain = self._chain
        if held < len(chain):
            self._target = request = chain[held].request()
            request.callbacks.append(self._granted)
        else:
            self._target = timeout = Timeout(self.env, self._duration)
            timeout.callbacks.append(self._elapsed)

    def _elapsed(self, event: Event) -> None:
        try:
            chain = self._chain
            if chain:  # _release, inlined: every resource is held by now
                self._chain = ()
                while self._held:
                    self._held -= 1
                    chain[self._held].release()
            if not event._ok:  # an awaited event failed: raise it here
                raise event._value
            self._then()
        except BaseException as exc:
            self._fail(exc)

    def _release(self) -> None:
        """Withdraw the pending request and release what is held, innermost
        first — a generator's ``try``/``finally`` blocks."""
        chain = self._chain
        self._chain = ()
        if self._held < len(chain):
            chain[self._held].cancel(self._target)
        while self._held:
            self._held -= 1
            chain[self._held].release()

    def _end(self) -> None:
        self._then = None  # also breaks the cycle through the bound method

    def _fail(self, exc: BaseException) -> None:
        self._end()
        self._release()
        if not self.done.callbacks:
            raise exc
        self.done.fail(exc)

    def _finish(self, value: Any = None) -> None:
        self._end()
        self.done.succeed(value)

    def _detach(self) -> None:
        target = self._target
        if target is not None and target.callbacks is not None:
            step = self._granted if self._held < len(self._chain) else self._elapsed
            if step in target.callbacks:
                target.callbacks.remove(step)

    def cancel(self) -> None:
        """Kill the process now (fault recovery): a kick event at the current
        instant withdraws its pending request and releases what it holds."""
        self._detach()
        Event(self.env).succeed().callbacks.append(self._cancelled)

    def _cancelled(self, _kick: Event) -> None:
        if self._then is None:
            return  # finished or failed in the meantime
        self._detach()  # it may have moved on to another event since cancel()
        self._end()
        self._release()
        self.done.succeed()


class Timer(CallbackProcess):
    """Calls ``body()`` after ``delay`` (at the start if ``None``), then again
    after each delay it returns, until it returns ``None``: a generator's
    ``yield env.timeout(delay)`` loop, with the same events."""

    __slots__ = ("_body", "_delay")

    def __init__(self, env: "Environment", body: Callable[[], Optional[float]],
                 delay: Optional[float] = None):
        super().__init__(env)
        self._body, self._delay = body, delay

    def _begin(self) -> None:
        if self._delay is None:
            self._fire()
        else:
            self._hold((), self._delay, self._fire)

    def _fire(self) -> None:
        delay = self._body()
        if delay is None:
            self._finish()
        else:
            self._hold((), delay, self._fire)


class Environment:
    """The simulation driver: virtual clock plus the event queues.

    Scheduling state is split three ways (see the module docstring):

    * ``_queue``  -- heap of future entries ``(time, 1, seq, event)``,
    * ``_imm0``   -- deque of ``(seq, event, fn)`` callback hand-offs at the
      current instant (priority 0),
    * ``_imm1``   -- deque of ``(seq, event)`` triggered events at the
      current instant (priority 1).

    The split preserves the exact ``(time, priority, sequence)`` total order
    of the single-heap implementation: deque entries are always stamped with
    the current time, the clock only advances when both deques are empty, and
    ``_loop`` compares sequence numbers against the heap top to interleave
    same-instant heap entries correctly.
    """

    __slots__ = ("_now", "_queue", "_imm0", "_imm1", "_seq", "events_processed")

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: List[Any] = []
        self._imm0: deque = deque()
        self._imm1: deque = deque()
        self._seq = itertools.count()
        #: number of queue entries processed so far (wall-clock perf metric)
        self.events_processed = 0

    # -- clock -----------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    # -- event factories ---------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> "AnyOf":
        return AnyOf(self, events)

    def pending(self) -> int:
        """How many scheduled entries have not been processed yet."""
        return len(self._imm0) + len(self._imm1) + len(self._queue)

    # -- scheduling internals ---------------------------------------------
    def _schedule(self, event: Event) -> None:
        # Triggered events fire at the current instant: never the heap.
        self._imm1.append((next(self._seq), event))

    def _schedule_callback(self, fn: Callable, event: Event) -> None:
        # Callback hand-offs always run at the current instant, priority 0.
        self._imm0.append((next(self._seq), event, fn))

    # -- running ----------------------------------------------------------
    def _loop(self, stop: Any, horizon: float, limit: int) -> int:
        """The one event loop: process entries in ``(time, priority, seq)``
        order until ``stop`` is processed, the next lies past ``horizon``,
        ``limit`` have run (-1: no limit) or the queues are empty.  Returns
        how many it processed (all counted, a callback that raises too)."""
        imm0, imm1, queue = self._imm0, self._imm1, self._queue
        heappop = heapq.heappop
        n = 0
        try:
            while n != limit and not stop.processed:
                if imm0:
                    # Priority-0 hand-offs at the current instant always sort
                    # ahead of priority-1 entries; the heap never holds one.
                    _seq, event, fn = imm0.popleft()
                    n += 1
                    fn(event)
                    continue
                if imm1:
                    # A same-instant heap entry (priority 1, like every heap
                    # entry) scheduled before the deque head must fire first.
                    if queue and queue[0][0] <= self._now and queue[0][2] < imm1[0][0]:
                        event = heappop(queue)[3]
                    else:
                        event = imm1.popleft()[1]
                elif queue and queue[0][0] <= horizon:
                    when, _prio, _seq, event = heappop(queue)
                    self._now = when
                else:
                    break
                n += 1
                callbacks, event.callbacks = event.callbacks, None
                event.processed = True
                for cb in callbacks or ():
                    cb(event)
        finally:
            self.events_processed += n
        return n

    def step(self) -> None:
        """Process the next scheduled entry in ``(time, priority, seq)`` order."""
        if not self._loop(_NEVER, _FOREVER, 1):
            raise SimulationError("no more events")

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (drain all events), a number (run up to that
        virtual time), or an :class:`Event` (run until it fires, returning its
        value / raising its exception).
        """
        if isinstance(until, Event):
            self._loop(until, _FOREVER, -1)
            if not until.processed:
                raise SimulationError(
                    "simulation ran out of events before 'until' fired "
                    "(deadlock: a process is waiting on an event nobody "
                    "will trigger)"
                )
            if until.ok:
                return until.value
            raise until.value
        horizon = _FOREVER if until is None else float(until)
        if horizon < self._now:
            raise SimulationError("'until' is in the past")
        self._loop(_NEVER, horizon, -1)
        if until is not None:
            self._now = horizon
        return None


#: The ``stop`` of a loop that ends on time or on empty queues only.
_NEVER = Event.__new__(Event)
_NEVER.processed = False
_FOREVER = float("inf")


class Store:
    """Unbounded FIFO channel with blocking ``get`` (and optional capacity)."""

    def __init__(self, env: Environment, capacity: Optional[int] = None):
        if capacity is not None and capacity <= 0:
            raise SimulationError("capacity must be positive or None")
        self.env = env
        self.capacity = capacity
        self.items: deque = deque()
        self._getters: deque = deque()
        self._putters: deque = deque()  # (event, item)

    def put(self, item: Any) -> Event:
        """Return an event that fires once the item is accepted."""
        ev = Event(self.env)
        if self.capacity is not None and len(self.items) >= self.capacity:
            self._putters.append((ev, item))
            return ev
        self._accept(item)
        ev.succeed()
        return ev

    def get(self) -> Event:
        """Return an event carrying the next item once one is available."""
        ev = Event(self.env)
        if self.items:
            ev.succeed(self.items.popleft())
            self._drain_putters()
        else:
            self._getters.append(ev)
        return ev

    # -- internals --------------------------------------------------------
    def _accept(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self.items.append(item)

    def _drain_putters(self) -> None:
        while self._putters and (
            self.capacity is None or len(self.items) < self.capacity
        ):
            ev, item = self._putters.popleft()
            self._accept(item)
            ev.succeed()

    def __len__(self) -> int:
        return len(self.items)


class Resource:
    """A counted lock: at most ``capacity`` holders at a time (FIFO queue)."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise SimulationError("Resource capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiters: deque = deque()

    @property
    def count(self) -> int:
        """Number of current holders."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def request(self) -> Event:
        """Return an event that fires when the caller holds the resource."""
        env = self.env
        ev = Event(env)
        if self._in_use < self.capacity:
            self._in_use += 1
            ev.triggered, ev._value = True, None  # succeed(), inlined
            env._imm1.append((next(env._seq), ev))
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        if self._in_use == 0:
            raise SimulationError("release() without a matching request()")
        if self._waiters:
            # Hand the slot straight to the next waiter.
            self._waiters.popleft().succeed()
        else:
            self._in_use -= 1

    def cancel(self, request: Event) -> None:
        """Abandon a pending or granted (but unconsumed) request.

        Needed when the requesting process is killed while suspended on
        the request event: a granted slot must be released and a queued
        request withdrawn, or the resource leaks and every later requester
        deadlocks.
        """
        if request.triggered:
            # The slot was granted (possibly not yet observed): give it back.
            self.release()
            return
        try:
            self._waiters.remove(request)
        except ValueError:
            pass

    def reset(self) -> int:
        """Forcibly return the resource to its idle state.

        Used when the hardware behind the resource is removed (a node pulled
        mid-transfer): holders never release, and queued requests belong to
        processes that are being torn down.  Pending waiter events fail with
        :class:`SimulationError` so any still-live requester surfaces the
        removal instead of deadlocking.  Returns the number of slots and
        queued requests that were dropped, for diagnostics.
        """
        dropped = self._in_use + len(self._waiters)
        self._in_use = 0
        waiters, self._waiters = self._waiters, deque()
        for ev in waiters:
            if not ev.triggered:
                ev.fail(SimulationError("resource reset: node removed"))
        return dropped

    def use(self, duration: float):
        """Generator helper: hold the resource for ``duration``.

        Kill-safe: an exception thrown while suspended on the request (or
        the generator being closed) withdraws the request, so the slot is
        never leaked.
        """
        req = self.request()
        try:
            yield req
        except BaseException:
            self.cancel(req)
            raise
        try:
            yield self.env.timeout(duration)
        finally:
            self.release()
