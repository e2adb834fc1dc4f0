"""Wall-clock timer/counter registry.

All times are host wall-clock (``time.perf_counter``), never simulated virtual
time — this layer measures how fast the simulator itself runs, not what it
simulates.  One deliberate exception: ``runtime.migration_pause_s`` and
``runtime.straggler_pause_s`` record the *simulated* stall of a live
migration / straggler drain (see docs/ELASTICITY.md); they ride in the same
registry so ``bench/run.py`` and the tests can read them as deltas.  A
single process-wide :data:`REGISTRY` collects what the run-time kernel
records; tests construct private :class:`PerfRegistry` instances.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

__all__ = ["PerfRegistry", "TimerStats", "REGISTRY"]


class TimerStats:
    """Aggregate statistics for one named timer."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    def add(self, elapsed: float) -> None:
        self.count += 1
        self.total += elapsed
        if elapsed < self.min:
            self.min = elapsed
        if elapsed > self.max:
            self.max = elapsed

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total_s": self.total,
            "mean_s": self.mean,
            "min_s": self.min if self.count else 0.0,
            "max_s": self.max,
        }


class _Timing:
    """Context manager recording one interval into a registry timer."""

    __slots__ = ("_registry", "_name", "_start", "elapsed")

    def __init__(self, registry: "PerfRegistry", name: str):
        self._registry = registry
        self._name = name
        self._start = 0.0
        self.elapsed: Optional[float] = None

    def __enter__(self) -> "_Timing":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self._start
        self._registry.record(self._name, self.elapsed)


class PerfRegistry:
    """Named wall-clock timers and monotonic counters."""

    def __init__(self) -> None:
        self.timers: Dict[str, TimerStats] = {}
        self.counters: Dict[str, int] = {}

    # -- timers ---------------------------------------------------------
    def timer(self, name: str) -> _Timing:
        """``with registry.timer("stage"):`` times the block."""
        return _Timing(self, name)

    def record(self, name: str, elapsed: float) -> None:
        stats = self.timers.get(name)
        if stats is None:
            stats = self.timers[name] = TimerStats()
        stats.add(elapsed)

    # -- counters -------------------------------------------------------
    def count(self, name: str, delta: int = 1) -> int:
        value = self.counters.get(name, 0) + delta
        self.counters[name] = value
        return value

    # -- reporting ------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """JSON-friendly dump of every timer and counter."""
        return {
            "timers": {name: t.as_dict() for name, t in sorted(self.timers.items())},
            "counters": dict(sorted(self.counters.items())),
        }

    def reset(self) -> None:
        self.timers.clear()
        self.counters.clear()


#: Process-wide registry the run-time kernel and striping layer record into.
REGISTRY = PerfRegistry()
