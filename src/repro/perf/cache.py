"""Named, content-keyed caches for derived simulation artifacts.

The hot path recomputes a handful of pure derivations on every run: striping
message plans, thread regions, parsed Alter ASTs, generated glue source (and
the analysis verdict that gates it), collective partner schedules and FFT
plans.  All of them are functions of immutable inputs, so each gets a
:class:`KeyedCache` registered here under a stable name.

Invalidation
------------
Keys are *content fingerprints* (shapes, striping parameters, source text,
model/mapping digests), never object identities — mutating a model and
regenerating produces a different key, so stale hits are impossible by
construction.  Explicit invalidation still exists for long-lived processes and
for tests that must measure cold-path behaviour:

* ``clear_all_caches()`` — drop every registered cache.
* ``named_cache(name).clear()`` — drop one layer.
* ``cache_stats()`` — per-cache ``{hits, misses, size}`` for diagnostics.

Caches are bounded (FIFO eviction) so pathological key churn cannot grow
memory without limit.

Job scoping
-----------
The registry is process-wide, which is exactly right for throughput — two
jobs submitting the same design share one generated glue.  Because keys are
content fingerprints, no job ever needs to evict anything on its own
behalf (the run-time kernel re-stripes through shrink, grow and migration
without touching a cache; ``tests/test_perf_properties.py`` checks that
pre-warmed and cold runs are identical), so entries have no owner.  A
:func:`cache_scope` (the service enters one per job, keyed by job id) only
*bills* traffic: ``cache_stats(scope)`` reports the per-scope hit/miss
split the service records on each job.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Dict, Hashable, List, Optional

__all__ = [
    "KeyedCache",
    "named_cache",
    "clear_all_caches",
    "cache_stats",
    "cache_scope",
    "current_scope",
    "forget_scope",
]

#: Active scope stack (innermost last).  Plain module state, not a
#: contextvar: the simulator is single-threaded by design and the service
#: enters exactly one scope per job execution.
_SCOPE_STACK: List[str] = []


def current_scope() -> Optional[str]:
    """The innermost active cache scope (job id), or None outside any."""
    return _SCOPE_STACK[-1] if _SCOPE_STACK else None


@contextmanager
def cache_scope(name: Optional[str]):
    """Bill every cache access inside the block to ``name``.

    ``None`` is a pass-through (standalone runs stay unscoped), so call
    sites can thread an optional job id without branching.
    """
    if name is None:
        yield
        return
    _SCOPE_STACK.append(name)
    try:
        yield
    finally:
        _SCOPE_STACK.pop()


class KeyedCache:
    """A small keyed memo table with hit/miss stats and FIFO eviction."""

    __slots__ = ("name", "maxsize", "hits", "misses", "_data", "_scope_stats")

    def __init__(self, name: str, maxsize: int = 1024):
        self.name = name
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._data: Dict[Hashable, Any] = {}
        # scope -> [hits, misses] while that scope was active.
        self._scope_stats: Dict[str, List[int]] = {}

    def _count(self, hit: bool) -> None:
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        if not _SCOPE_STACK:
            return
        stats = self._scope_stats.setdefault(_SCOPE_STACK[-1], [0, 0])
        stats[0 if hit else 1] += 1

    # -- access ----------------------------------------------------------
    def get(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, computing and storing on miss."""
        data = self._data
        if key in data:
            self._count(hit=True)
            return data[key]
        self._count(hit=False)
        value = compute()
        self.put(key, value)
        return value

    def lookup(self, key: Hashable, default: Any = None) -> Any:
        """Plain probe (counts as hit/miss) for call sites where the compute
        step doesn't fit in a closure."""
        if key in self._data:
            self._count(hit=True)
            return self._data[key]
        self._count(hit=False)
        return default

    def put(self, key: Hashable, value: Any) -> None:
        """Store a value computed outside :meth:`get`."""
        data = self._data
        if key not in data and len(data) >= self.maxsize:
            del data[next(iter(data))]
        data[key] = value

    def clear(self) -> int:
        """Drop every entry; returns the number evicted."""
        evicted = len(self._data)
        self._data.clear()
        return evicted

    def forget_scope(self, scope: str) -> None:
        """Drop a finished job's stats row (nothing is evicted), so a
        long-running service's bookkeeping stays bounded by *live* jobs."""
        self._scope_stats.pop(scope, None)

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def stats(self, scope: Optional[str] = None) -> Dict[str, int]:
        if scope is None:
            return {"hits": self.hits, "misses": self.misses,
                    "size": len(self._data)}
        row = self._scope_stats.get(scope, (0, 0))
        return {"hits": row[0], "misses": row[1]}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KeyedCache({self.name!r}, size={len(self._data)}, "
            f"hits={self.hits}, misses={self.misses})"
        )


_REGISTRY: Dict[str, KeyedCache] = {}


def named_cache(name: str, maxsize: int = 1024) -> KeyedCache:
    """Return the process-wide cache registered under ``name`` (creating it)."""
    cache = _REGISTRY.get(name)
    if cache is None:
        cache = _REGISTRY[name] = KeyedCache(name, maxsize=maxsize)
    return cache


def clear_all_caches() -> int:
    """Drop every registered cache; returns the number of entries evicted."""
    return sum(cache.clear() for cache in _REGISTRY.values())


def forget_scope(scope: str) -> None:
    """Drop a finished job's stats row from every cache (no eviction)."""
    for cache in _REGISTRY.values():
        cache.forget_scope(scope)


def cache_stats(scope: Optional[str] = None) -> Dict[str, Dict[str, int]]:
    """Per-cache ``{hits, misses, size}``, keyed by cache name.

    With ``scope`` given, the figures are that scope's own ``{hits,
    misses}`` — the per-job view the service reports.
    """
    return {name: cache.stats(scope) for name, cache in sorted(_REGISTRY.items())}
