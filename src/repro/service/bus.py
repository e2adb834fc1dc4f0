"""The service event bus: publish/subscribe over dot-path topics.

Modeled on the runtime-bus pattern (topics / bus / messages as separate
concerns): :mod:`repro.service.messages` defines the records and the topic
grammar, this module owns delivery.  The bus is strictly in-process and
synchronous — ``publish`` appends to every matching subscription before it
returns — because the service's event loop is itself deterministic virtual
time; there is no benefit (and real determinism risk) in a thread hop.

The bus keeps the full published history (bounded by ``history_limit``)
so late consumers — the experiments runner, the soak checker, the
visualizer — can read the whole stream after a run instead of poking
runtimes directly, and so :meth:`EventBus.digest` can pin the entire
service execution to one hash for the determinism invariant.
"""

from __future__ import annotations

import hashlib
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

from .messages import BusMessage, freeze_payload, topic_matches

__all__ = ["EventBus", "Subscription"]


class Subscription:
    """One subscriber's view: a pattern plus its undelivered queue."""

    def __init__(self, bus: "EventBus", pattern: str,
                 handler: Optional[Callable[[BusMessage], None]] = None):
        self.bus = bus
        self.pattern = pattern
        self.handler = handler
        self.active = True
        self._queue: Deque[BusMessage] = deque()

    def deliver(self, message: BusMessage) -> None:
        if not self.active:
            return
        if self.handler is not None:
            self.handler(message)
        else:
            self._queue.append(message)

    def pop(self) -> Optional[BusMessage]:
        """Next undelivered message, or None when drained."""
        return self._queue.popleft() if self._queue else None

    def drain(self) -> List[BusMessage]:
        """All undelivered messages, emptying the queue."""
        out = list(self._queue)
        self._queue.clear()
        return out

    def __len__(self) -> int:
        return len(self._queue)

    def close(self) -> None:
        self.active = False
        self.bus.unsubscribe(self)


class EventBus:
    """Topics, subscriptions, and the deterministic message history."""

    def __init__(self, history_limit: Optional[int] = None):
        self._seq = 0
        self._subs: List[Subscription] = []
        self.history_limit = history_limit
        self._history: Deque[BusMessage] = deque(maxlen=history_limit)
        self.published = 0
        #: Topics, key tuples and flat str/int value tuples seen so far,
        #: each mapped to itself: every message reuses the first copy.  A
        #: bounded bus shares nothing, so the table cannot outgrow it.
        self._shared: Optional[Dict[Any, Any]] = (
            {} if history_limit is None else None)

    # -- subscriptions ---------------------------------------------------
    def subscribe(self, pattern: str,
                  handler: Optional[Callable[[BusMessage], None]] = None,
                  ) -> Subscription:
        """Register interest in ``pattern`` (see :func:`topic_matches`).

        With a ``handler`` the message is pushed synchronously at publish
        time; without one it queues on the subscription for ``pop``/
        ``drain``.
        """
        sub = Subscription(self, pattern, handler)
        self._subs.append(sub)
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        try:
            self._subs.remove(sub)
        except ValueError:
            pass

    # -- publishing ------------------------------------------------------
    def publish(self, topic: str, kind: str, time: float = 0.0,
                **payload: Any) -> BusMessage:
        """Stamp, record, and deliver one message; returns it."""
        shared = self._shared
        if shared is not None:
            topic = shared.setdefault(topic, topic)
        message = BusMessage(self._seq, time, topic, kind,
                             *freeze_payload(payload, shared))
        self._seq += 1
        self.published += 1
        self._history.append(message)
        for sub in self._subs:
            if topic_matches(sub.pattern, topic):
                sub.deliver(message)
        return message

    # -- history & determinism -------------------------------------------
    @property
    def history(self) -> List[BusMessage]:
        return list(self._history)

    def history_for(self, pattern: str) -> List[BusMessage]:
        return [m for m in self._history if topic_matches(pattern, m.topic)]

    def topics(self) -> List[str]:
        return sorted({m.topic for m in self._history})

    def counts_by_kind(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for m in self._history:
            out[m.kind] = out.get(m.kind, 0) + 1
        return out

    def digest(self) -> str:
        """SHA-256 over the canonical stream — the determinism fingerprint.

        Only meaningful when the bus was created with an unbounded history
        (the default); a bounded bus hashes its retained window.
        """
        sha = hashlib.sha256()
        sep = b""
        for m in self._history:
            sha.update(sep + m.canonical().encode())
            sep = b"\n"
        return sha.hexdigest()

    def __len__(self) -> int:
        return len(self._history)
