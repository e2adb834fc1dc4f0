"""Performance micro-layer: caches and a timer/counter registry.

``repro.perf.cache``
    Named, content-keyed caches for the derived artifacts that pay for one
    (striping message plans, parsed Alter ASTs, generated and compiled glue,
    FFT plans).  Every cache is registered centrally, so
    ``clear_all_caches()`` is the one-line cold-path switch and
    ``cache_stats()`` shows hit rates.

``repro.perf.registry``
    A process-wide timer/counter registry that the run-time kernel records
    its simulated recovery pauses and re-plan counts into; ``bench/run.py``
    reads it for per-layer attribution.

The benchmark itself lives outside the package, in ``bench/`` (see
``bench/README.md`` and ``docs/PERFORMANCE.md``).
"""

from .cache import KeyedCache, cache_stats, clear_all_caches, named_cache
from .registry import PerfRegistry, REGISTRY

__all__ = [
    "KeyedCache",
    "named_cache",
    "clear_all_caches",
    "cache_stats",
    "PerfRegistry",
    "REGISTRY",
]
