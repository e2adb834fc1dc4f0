"""Unit tests for the repro.perf layer: keyed caches and the timer/counter
registry."""

import importlib
import json
import pkgutil

import pytest

import repro
from repro.perf import (
    KeyedCache,
    PerfRegistry,
    cache_stats,
    clear_all_caches,
    named_cache,
)


# ---------------------------------------------------------------------------
# KeyedCache / named_cache


def test_keyed_cache_hit_miss_accounting():
    cache = KeyedCache("t", maxsize=8)
    calls = []
    assert cache.get("a", lambda: calls.append(1) or 41) == 41
    assert cache.get("a", lambda: calls.append(1) or 99) == 41  # hit, no compute
    assert calls == [1]
    assert cache.hits == 1 and cache.misses == 1
    assert "a" in cache and len(cache) == 1
    assert cache.stats() == {"hits": 1, "misses": 1, "size": 1}


def test_keyed_cache_fifo_eviction_is_bounded():
    cache = KeyedCache("t", maxsize=3)
    for i in range(10):
        cache.get(i, lambda i=i: i * 2)
    assert len(cache) == 3
    # oldest keys evicted, newest survive
    assert 9 in cache and 0 not in cache


def test_keyed_cache_clear():
    cache = KeyedCache("t")
    cache.get("k", lambda: 1)
    cache.clear()
    assert len(cache) == 0 and "k" not in cache


def test_named_cache_is_process_wide_singleton():
    a = named_cache("test.perf.singleton")
    b = named_cache("test.perf.singleton")
    assert a is b
    a.get("x", lambda: 1)
    try:
        assert "test.perf.singleton" in cache_stats()
        evicted = clear_all_caches()
        assert evicted >= 1
        assert len(a) == 0
    finally:
        a.clear()


def test_hot_path_caches_are_registered():
    # Importing the package registers exactly the caches docs/PERFORMANCE.md
    # lists: a cache that comes back must be measured and documented first.
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)
    names = {name for name in cache_stats() if not name.startswith("test.")}
    assert names == {
        "alter.parse",
        "codegen.glue_source",
        "striping.message_plan",
        "kernels.fft_plan",
    }


# ---------------------------------------------------------------------------
# PerfRegistry


def test_registry_timer_aggregates():
    reg = PerfRegistry()
    for elapsed in (0.5, 0.1, 0.4):
        reg.record("s", elapsed)
    stats = reg.timers["s"]
    assert stats.count == 3
    assert stats.total == pytest.approx(1.0)
    assert stats.mean == pytest.approx(1.0 / 3)
    assert stats.min == 0.1 and stats.max == 0.5
    d = stats.as_dict()
    assert d["count"] == 3 and d["min_s"] == 0.1


def test_registry_counters_and_snapshot_and_reset():
    reg = PerfRegistry()
    assert reg.count("events") == 1
    assert reg.count("events", 41) == 42
    reg.record("t", 0.25)
    snap = reg.snapshot()
    assert snap["counters"] == {"events": 42}
    assert snap["timers"]["t"]["count"] == 1
    json.dumps(snap)  # snapshot must be JSON-serialisable as-is
    reg.reset()
    assert reg.snapshot() == {"timers": {}, "counters": {}}
