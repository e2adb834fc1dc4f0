"""Performance micro-layer: caches and timers/counters.

Two small pieces keep the simulation hot path fast and honest:

``repro.perf.cache``
    Named, content-keyed caches for derived artifacts that used to be
    recomputed on every run (striping message plans, parsed Alter ASTs,
    generated glue + analysis verdicts, collective partner schedules).
    Every cache is registered centrally so ``clear_all_caches()`` is the
    one-line cold-path switch and ``cache_stats()`` shows hit rates.

``repro.perf.registry``
    A process-wide timer/counter registry (wall-clock, ``time.perf_counter``)
    that the run-time kernel records recovery pauses and re-plan counts
    into; ``bench/run.py`` reads it for per-layer attribution.

The benchmark itself lives outside the package, in ``bench/`` (see
``bench/README.md`` and ``docs/PERFORMANCE.md``).
"""

from .cache import (
    KeyedCache,
    cache_scope,
    cache_stats,
    clear_all_caches,
    current_scope,
    forget_scope,
    named_cache,
)
from .registry import PerfRegistry, REGISTRY

__all__ = [
    "KeyedCache",
    "named_cache",
    "clear_all_caches",
    "cache_stats",
    "cache_scope",
    "current_scope",
    "forget_scope",
    "PerfRegistry",
    "REGISTRY",
]
