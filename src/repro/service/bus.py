"""The service event bus: publish/subscribe over dot-path topics.

Modeled on the runtime-bus pattern (topics / bus / messages as separate
concerns): :mod:`repro.service.messages` defines the records and the topic
grammar, this module owns delivery.  The bus is strictly in-process and
synchronous — ``publish`` calls every matching subscription's handler
before it returns — because the service's event loop is itself
deterministic virtual time; there is no benefit (and real determinism risk)
in a thread hop.

The bus keeps the full published history so late consumers — the
experiments runner, the soak checker, the visualizer — can read the whole
stream after a run instead of poking runtimes directly, and so
:meth:`EventBus.digest` can pin the entire service execution to one hash
for the determinism invariant.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Dict, List

from .messages import BusMessage, freeze_payload, topic_matches

__all__ = ["EventBus", "Subscription"]


class Subscription:
    """One subscriber: a topic pattern and the handler its messages go to."""

    __slots__ = ("bus", "pattern", "handler")

    def __init__(self, bus: "EventBus", pattern: str,
                 handler: Callable[[BusMessage], None]):
        self.bus = bus
        self.pattern = pattern
        self.handler = handler

    def close(self) -> None:
        """Stop delivery from the next publish on."""
        self.bus.unsubscribe(self)


class EventBus:
    """Topics, subscriptions, and the deterministic message history."""

    def __init__(self):
        self._subs: List[Subscription] = []
        self._history: List[BusMessage] = []
        #: Topics, key tuples and flat str/int value tuples seen so far,
        #: each mapped to itself: every message reuses the first copy.
        self._shared: Dict[Any, Any] = {}

    # -- subscriptions ---------------------------------------------------
    def subscribe(self, pattern: str,
                  handler: Callable[[BusMessage], None]) -> Subscription:
        """Push every later message whose topic matches ``pattern`` (see
        :func:`topic_matches`) to ``handler``, synchronously at publish."""
        sub = Subscription(self, pattern, handler)
        # Copy on write: a handler may (un)subscribe while a publish is
        # iterating the list; the change takes effect from the next one.
        self._subs = self._subs + [sub]
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        self._subs = [s for s in self._subs if s is not sub]

    # -- publishing ------------------------------------------------------
    def publish(self, topic: str, kind: str, time: float = 0.0,
                **payload: Any) -> BusMessage:
        """Stamp, record, and deliver one message; returns it."""
        shared = self._shared
        topic = shared.setdefault(topic, topic)
        message = BusMessage(len(self._history), time, topic, kind,
                             *freeze_payload(payload, shared))
        self._history.append(message)
        for sub in self._subs:
            if topic_matches(sub.pattern, topic):
                sub.handler(message)
        return message

    # -- history & determinism -------------------------------------------
    @property
    def published(self) -> int:
        """Messages published so far (the next message's ``seq``)."""
        return len(self._history)

    @property
    def history(self) -> List[BusMessage]:
        return list(self._history)

    def history_for(self, pattern: str) -> List[BusMessage]:
        return [m for m in self._history if topic_matches(pattern, m.topic)]

    def counts_by_kind(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for m in self._history:
            out[m.kind] = out.get(m.kind, 0) + 1
        return out

    def digest(self) -> str:
        """SHA-256 over the canonical stream — the determinism fingerprint."""
        sha = hashlib.sha256()
        sep = b""
        for m in self._history:
            sha.update(sep + m.canonical().encode())
            sep = b"\n"
        return sha.hexdigest()

    def __len__(self) -> int:
        return len(self._history)
