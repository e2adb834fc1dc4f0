"""Error types for the message-passing layer."""

__all__ = [
    "MpiError",
    "RankError",
    "TruncationError",
    "MpiTimeoutError",
    "CorruptionError",
    "DeliveryError",
]


class MpiError(RuntimeError):
    """Base class for message-passing failures."""


class RankError(MpiError):
    """A rank index was out of range for the communicator."""


class TruncationError(MpiError):
    """A receive buffer was too small for the matched message."""


class MpiTimeoutError(MpiError, TimeoutError):
    """A communication call exceeded its configured deadline.

    Raised by ``recv``/``wait`` (and therefore by ``alltoall``, which is
    built on them) when a timeout is set, instead of wedging the event loop
    until the simulator's deadlock detector fires.
    """


class CorruptionError(MpiError):
    """A received message failed its integrity check (injected corruption)."""


class DeliveryError(MpiError):
    """A send could not be delivered (lossy/downed link), retries exhausted."""
