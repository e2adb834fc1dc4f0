"""In-process message-passing library over the simulated cluster.

Mirrors what the paper's hand-coded baselines (§3.1) use of the vendor MPI
implementations of its target platforms: point-to-point (blocking and
nonblocking) and the vendor-tuned all-to-all algorithms that dominate the
corner-turn benchmark.  The heartbeat failure detector the SAGE run-time
starts lives here too (:mod:`repro.mpi.detector`).
"""

from .comm import (
    ANY_SOURCE,
    ANY_TAG,
    Communicator,
    Message,
    MpiWorld,
    Request,
    RetryPolicy,
)
from .detector import FailureDetector, HeartbeatConfig
from .errors import (
    CorruptionError,
    DeliveryError,
    MpiError,
    MpiTimeoutError,
    RankError,
    TruncationError,
)
from .datatypes import copy_payload, payload_nbytes
from .vendor import ALGORITHMS, get_algorithm

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Communicator",
    "Message",
    "MpiWorld",
    "Request",
    "RetryPolicy",
    "FailureDetector",
    "HeartbeatConfig",
    "MpiError",
    "RankError",
    "TruncationError",
    "MpiTimeoutError",
    "CorruptionError",
    "DeliveryError",
    "copy_payload",
    "payload_nbytes",
    "ALGORITHMS",
    "get_algorithm",
]
