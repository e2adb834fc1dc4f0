"""Named, content-keyed caches for derived simulation artifacts.

Four pure derivations pay for a cache: striping message plans, parsed Alter
ASTs, generated glue (source plus compiled code, with the analysis verdict
that gates it) and FFT plans.  Each is a function of immutable inputs and
gets a :class:`KeyedCache` registered here under a stable name.
Derivations a few microseconds long (a thread's region, an all-to-all
partner schedule) are recomputed on every call.

Keys are *content fingerprints* (shapes, striping parameters, source text,
model/mapping digests), never object identities, so stale hits are
impossible by construction and entries have no owner: two service jobs of
one design share one glue, and the run-time kernel re-stripes through
shrink, grow and migration without touching a cache
(``tests/test_perf_properties.py`` checks that pre-warmed and cold runs are
identical).  ``clear_all_caches()`` (or ``named_cache(name).clear()``)
exists for measuring the cold path; ``cache_stats()`` gives per-cache
``{hits, misses, size}``.  Caches are bounded (FIFO eviction) so key churn
cannot grow memory without limit.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable

__all__ = ["KeyedCache", "named_cache", "clear_all_caches", "cache_stats"]


class KeyedCache:
    """A small keyed memo table with hit/miss stats and FIFO eviction."""

    __slots__ = ("name", "maxsize", "hits", "misses", "_data")

    def __init__(self, name: str, maxsize: int = 1024):
        self.name = name
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._data: Dict[Hashable, Any] = {}

    def get(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, computing and storing on miss."""
        data = self._data
        if key in data:
            self.hits += 1
            return data[key]
        self.misses += 1
        value = compute()
        if len(data) >= self.maxsize:
            del data[next(iter(data))]
        data[key] = value
        return value

    def clear(self) -> int:
        """Drop every entry; returns the number evicted."""
        evicted = len(self._data)
        self._data.clear()
        return evicted

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "size": len(self._data)}


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


def cache_stats() -> Dict[str, Dict[str, int]]:
    """Per-cache ``{hits, misses, size}``, keyed by cache name."""
    return {name: cache.stats() for name, cache in sorted(_REGISTRY.items())}
