"""Bus message model: topics, kinds, and the canonical wire rendering.

The service's :class:`~repro.service.bus.EventBus` follows the classic
topics / subscriptions / messages split: a *topic* is a dot-separated path
(``job.j0003.lifecycle``, ``scheduler.lease``), a *message* is an immutable
record stamped with a bus-global sequence number and the service's virtual
time, and subscribers match topics with single-segment (``*``) or
tail (``#``) wildcards.

Determinism is a first-class requirement here: the scheduler-determinism
invariant is checked by hashing the *canonical rendering* of the whole
message stream (:meth:`BusMessage.canonical`), so two service instances fed
the same submissions with the same seed must produce byte-identical
streams.  Payload values are therefore restricted to primitives (str, int,
float, bool, None, and flat tuples thereof) whose ``repr`` round-trips
exactly.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from typing import Any, Dict, Iterable, Optional, Tuple

__all__ = [
    "BusMessage",
    "job_topic",
    "topic_matches",
    "TOPIC_QUEUE",
    "TOPIC_LEASES",
    "LIFECYCLE_KINDS",
]

#: Queue-level events: a submission entering (or bouncing off) the queue.
TOPIC_QUEUE = "queue"
#: Scheduler lease events: grants (FIFO or backfill) and releases.
TOPIC_LEASES = "scheduler.lease"

#: The job lifecycle in its legal order.  ``rejected`` replaces the whole
#: tail for submissions that never reach the cluster; ``failed`` replaces
#: ``completed`` for jobs that died on the machine (or overran their
#: time budget).
LIFECYCLE_KINDS = (
    "submitted", "rejected", "admitted", "started", "completed", "failed",
    "released",
)

_PRIMITIVES = (str, int, float, bool, type(None))


def job_topic(job_id: str, channel: str = "lifecycle") -> str:
    """Topic for one job's event stream: ``job.<id>.lifecycle|probes``."""
    return f"job.{job_id}.{channel}"


def topic_matches(pattern: str, topic: str) -> bool:
    """Dot-segment matching: ``*`` is one segment, a trailing ``#`` is any
    tail (including none).  Patterns with no wildcard are exact matches."""
    if pattern == topic:
        return True
    pparts = pattern.split(".")
    tparts = topic.split(".")
    for i, p in enumerate(pparts):
        if p == "#":
            return True
        if i >= len(tparts):
            return False
        if p != "*" and p != tparts[i]:
            return False
    return len(pparts) == len(tparts)


def _check_value(key: str, value: Any) -> Any:
    if isinstance(value, _PRIMITIVES):
        return value
    if isinstance(value, tuple):
        for item in value:
            if not isinstance(item, _PRIMITIVES):
                raise TypeError(
                    f"payload field {key!r}: tuple items must be primitives, "
                    f"got {type(item).__name__}"
                )
        return value
    if isinstance(value, list):
        return _check_value(key, tuple(value))
    raise TypeError(
        f"payload field {key!r}: bus payloads are primitives or flat tuples "
        f"(canonical rendering must be exact), got {type(value).__name__}"
    )


def freeze_payload(payload: Dict[str, Any],
                   shared: Optional[Dict[Any, Any]] = None,
                   ) -> Tuple[Tuple[str, ...], Tuple[Any, ...]]:
    """A payload dict as ``(keys, values)``: keys sorted, values checked,
    lists made tuples.

    With a ``shared`` table the key tuple and every flat value tuple whose
    items are all ``str`` or ``int`` come back as the first equal tuple the
    table saw.  Equality of such tuples implies an identical rendering;
    floats and bools stay out, since ``1 == 1.0 == True`` and
    ``0.0 == -0.0`` render differently.
    """
    keys = tuple(sorted(payload))
    values = [_check_value(k, payload[k]) for k in keys]
    if shared is not None:
        keys = shared.setdefault(keys, keys)
        for i, v in enumerate(values):
            if type(v) is tuple and all(type(x) in (str, int) for x in v):
                values[i] = shared.setdefault(v, v)
    return keys, tuple(values)


class BusMessage:
    """One published record: ``(seq, time, topic, kind, payload)``.

    ``seq`` is assigned by the bus and is globally monotonic, so the full
    stream has one deterministic total order.  ``time`` is the service's
    *virtual* clock — wall-clock never appears in a message, which is what
    makes replay digests byte-stable.

    A bus keeps every message it publishes, so the record is compact: no
    per-instance dict, and the payload held as a sorted key tuple (shared
    by every message with the same key set) beside one values tuple.
    :attr:`payload` rebuilds the ``(key, value)`` pairs on demand.  Build
    messages with :meth:`make`; instances are immutable values.
    """

    __slots__ = ("seq", "time", "topic", "kind", "keys", "values")

    seq: int
    time: float
    topic: str
    kind: str
    keys: Tuple[str, ...]
    values: Tuple[Any, ...]

    def __init__(self, seq: int, time: float, topic: str, kind: str,
                 keys: Tuple[str, ...], values: Tuple[Any, ...]):
        init = object.__setattr__
        init(self, "seq", seq)
        init(self, "time", time)
        init(self, "topic", topic)
        init(self, "kind", kind)
        init(self, "keys", keys)
        init(self, "values", values)

    @classmethod
    def make(cls, seq: int, time: float, topic: str, kind: str,
             payload: Dict[str, Any]) -> "BusMessage":
        return cls(seq, time, topic, kind, *freeze_payload(payload))

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _fields(self) -> tuple:
        return (self.seq, self.time, self.topic, self.kind, self.keys,
                self.values)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):
        return self.__class__, self._fields()

    def __repr__(self) -> str:
        return (f"BusMessage(seq={self.seq!r}, time={self.time!r}, "
                f"topic={self.topic!r}, kind={self.kind!r}, "
                f"payload={self.payload!r})")

    @property
    def payload(self) -> Tuple[Tuple[str, Any], ...]:
        """The ``(key, value)`` pairs in key order."""
        return tuple(zip(self.keys, self.values))

    def get(self, key: str, default: Any = None) -> Any:
        try:
            return self.values[self.keys.index(key)]
        except ValueError:
            return default

    @property
    def payload_dict(self) -> Dict[str, Any]:
        return dict(zip(self.keys, self.values))

    def canonical(self) -> str:
        """Byte-exact one-line rendering (``repr`` pins floats to the bit)."""
        fields = ",".join(
            f"{k}={v!r}" for k, v in zip(self.keys, self.values))
        return f"{self.seq}|{self.time!r}|{self.topic}|{self.kind}|{fields}"


def canonical_stream(messages: Iterable[BusMessage]) -> str:
    """The canonical rendering of a whole stream, one message per line."""
    return "\n".join(m.canonical() for m in messages)
