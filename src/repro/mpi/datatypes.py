"""Payload handling for the message-passing layer.

Payloads are numpy arrays (the fast path, sized by ``nbytes``) or arbitrary
picklable Python objects (sized by a pessimistic pickle estimate).  Messages
always deliver *copies*, matching MPI semantics: mutating the send buffer
after the call never aliases the receiver's data.
"""

from __future__ import annotations

import pickle
from typing import Any

import numpy as np

__all__ = ["payload_nbytes", "copy_payload", "copy_and_size", "ANY_SOURCE", "ANY_TAG"]

#: Wildcards for receive matching (mirror MPI_ANY_SOURCE / MPI_ANY_TAG).
ANY_SOURCE = -1
ANY_TAG = -1

_SCALARS = (int, float, complex, str, bytes, bool, type(None))


def _deeply_immutable(data: Any) -> bool:
    """True when a payload is immutable all the way down (safe to share)."""
    if isinstance(data, _SCALARS):
        return True
    if isinstance(data, (tuple, frozenset)):
        return all(_deeply_immutable(item) for item in data)
    return False


def payload_nbytes(data: Any) -> int:
    """Wire size of a payload in bytes."""
    if isinstance(data, np.ndarray):
        return int(data.nbytes)
    if type(data).__name__ == "PhantomArray":  # timing-mode payloads
        return int(data.nbytes)
    if isinstance(data, (bytes, bytearray, memoryview)):
        return len(data)
    if data is None:
        return 0
    try:
        return len(pickle.dumps(data, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        # Unpicklable control object: charge a token-sized header.
        return 64


def copy_payload(data: Any) -> Any:
    """Deep-enough copy for message delivery (value semantics)."""
    if isinstance(data, np.ndarray):
        return np.array(data, copy=True)
    if type(data).__name__ == "PhantomArray":  # immutable metadata-only payload
        return data
    if isinstance(data, _SCALARS):
        return data
    if isinstance(data, (tuple, frozenset)) and _deeply_immutable(data):
        # Control messages (rank tuples, small keys) need no copy at all.
        return data
    return pickle.loads(pickle.dumps(data, protocol=pickle.HIGHEST_PROTOCOL))


def copy_and_size(data: Any):
    """``(copy_payload(data), payload_nbytes(copy))`` with one serialisation.

    The send path needs both the delivered copy and the wire size; computing
    them separately pickles general payloads up to three times (dumps for the
    copy, loads, dumps again for the size).  This helper shares one blob for
    both, preserving the exact byte counts of :func:`payload_nbytes`.
    """
    if isinstance(data, np.ndarray):
        return np.array(data, copy=True), int(data.nbytes)
    if type(data).__name__ == "PhantomArray":
        return data, int(data.nbytes)
    if data is None:
        return None, 0
    if isinstance(data, bytes):
        return data, len(data)
    if isinstance(data, (bytearray, memoryview)):
        return (
            pickle.loads(pickle.dumps(data, protocol=pickle.HIGHEST_PROTOCOL)),
            len(data),
        )
    # Unpicklable payloads raise here, exactly as copy_payload() always has.
    blob = pickle.dumps(data, protocol=pickle.HIGHEST_PROTOCOL)
    if isinstance(data, _SCALARS) or (
        isinstance(data, (tuple, frozenset)) and _deeply_immutable(data)
    ):
        return data, len(blob)
    return pickle.loads(blob), len(blob)
