"""Named timer/counter registry.

The run-time kernel records two *simulated* (virtual-time) stalls here,
``runtime.migration_pause_s`` (live migration) and
``runtime.straggler_pause_s`` (straggler drain, docs/ELASTICITY.md), and
the striping layer counts its re-plans (``striping.replan_full*``), so
``bench/run.py`` and the tests can read them as deltas.  The run-time
records into the process-wide :data:`REGISTRY`; tests construct private
:class:`PerfRegistry` instances.
"""

from __future__ import annotations

from typing import Dict

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


class PerfRegistry:
    """Named timers (recorded durations) and monotonic counters."""

    def __init__(self) -> None:
        self.timers: Dict[str, TimerStats] = {}
        self.counters: Dict[str, int] = {}

    def record(self, name: str, elapsed: float) -> None:
        stats = self.timers.get(name)
        if stats is None:
            stats = self.timers[name] = TimerStats()
        stats.add(elapsed)

    def count(self, name: str, delta: int = 1) -> int:
        value = self.counters.get(name, 0) + delta
        self.counters[name] = value
        return value

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
