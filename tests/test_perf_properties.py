"""Property tests guarding the fast-path caches and collective schedules.

Three families:

* The four all-to-all algorithms are interchangeable: for randomized node
  counts and payload shapes every algorithm must deliver exactly the same
  blocks to every rank (the cached partner schedules in
  :mod:`repro.mpi.vendor` only change *when* messages move, never *what*
  arrives where).
* The memoized striping helpers (:func:`thread_region` /
  :func:`message_plan`) must be observationally identical to their uncached
  originals for arbitrary shapes, stripings, and thread counts — a stale or
  mis-keyed cache entry would show up as a divergence here.
* Recovery never invalidates a cache, because every key is a content
  fingerprint: an elastic run (shrink, grow, straggler drain) behaves
  identically whether the caches are cold or full of artifacts from other
  mappings and earlier membership changes of the same model.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import benchmark_mapping, corner_turn_model, fft2d_model
from repro.core.codegen import generate_glue
from repro.core.atot import random_mapping
from repro.core.model import REPLICATED, cyclic, striped
from repro.core.runtime import DEFAULT_CONFIG, SageRuntime
from repro.core.runtime.striping import (
    compute_message_plan,
    compute_thread_region,
    message_plan,
    thread_region,
)
from repro.faults import FaultError, FaultPlan, FaultPolicy
from repro.machine import Environment, SimCluster, cspi
from repro.mpi import MpiWorld
from repro.mpi.vendor import ALGORITHMS, partner_schedule
from repro.perf import clear_all_caches, named_cache

# ---------------------------------------------------------------------------
# all-to-all payload equivalence

_ALGOS = sorted(ALGORITHMS)


def _run_alltoall(nodes, algorithm, elems, seed):
    rng = np.random.default_rng(seed)
    payloads = {
        (src, dst): rng.integers(0, 1000, size=elems).astype(np.int32)
        for src in range(nodes)
        for dst in range(nodes)
    }

    def prog(comm):
        blocks = [payloads[(comm.rank, dst)] for dst in range(comm.size)]
        out = yield from comm.alltoall(blocks, algorithm=algorithm)
        return out

    env = Environment()
    world = MpiWorld(SimCluster.from_platform(env, cspi(), nodes))
    world.spawn(prog)
    return world.run()


@settings(max_examples=20, deadline=None)
@given(
    nodes=st.sampled_from([1, 2, 3, 4, 5, 8]),
    elems=st.integers(1, 64),
    seed=st.integers(0, 2**31 - 1),
)
def test_all_alltoall_algorithms_deliver_identical_payloads(nodes, elems, seed):
    reference = None
    for algorithm in _ALGOS:
        results = _run_alltoall(nodes, algorithm, elems, seed)
        # rank r's slot s must hold exactly what rank s addressed to rank r
        as_arrays = [[np.asarray(blk) for blk in out] for out in results]
        if reference is None:
            reference = as_arrays
            # self-check against the ground truth payload matrix once
            rng = np.random.default_rng(seed)
            truth = {
                (src, dst): rng.integers(0, 1000, size=elems).astype(np.int32)
                for src in range(nodes)
                for dst in range(nodes)
            }
            for dst in range(nodes):
                for src in range(nodes):
                    assert np.array_equal(as_arrays[dst][src], truth[(src, dst)])
        else:
            for dst in range(nodes):
                for src in range(nodes):
                    assert np.array_equal(
                        as_arrays[dst][src], reference[dst][src]
                    ), f"{algorithm}: rank {dst} slot {src} diverged"


@settings(max_examples=50, deadline=None)
@given(
    algorithm=st.sampled_from(["pairwise", "ring", "bruck"]),
    size=st.integers(1, 16),
    seed=st.integers(0, 2**31 - 1),
)
def test_partner_schedule_cached_equals_recomputed(algorithm, size, seed):
    rank = seed % size
    first = partner_schedule(algorithm, size, rank)
    again = partner_schedule(algorithm, size, rank)
    assert first == again
    assert first is again  # same cached tuple, not a rebuilt equal one
    # pairwise/ring schedules visit every peer exactly once
    if algorithm in ("pairwise", "ring"):
        assert sorted(dst for dst, _src in first) == [
            r for r in range(size) if r != rank
        ]
        assert sorted(src for _dst, src in first) == [
            r for r in range(size) if r != rank
        ]


# ---------------------------------------------------------------------------
# striping caches vs. fresh computation

_shapes = st.tuples(st.integers(1, 64), st.integers(1, 64))
_stripings = st.one_of(
    st.just(REPLICATED),
    st.builds(striped, st.integers(0, 1)),
    st.builds(cyclic, st.integers(0, 1), block=st.integers(1, 8)),
)


@settings(max_examples=100, deadline=None)
@given(shape=_shapes, striping=_stripings, threads=st.integers(1, 9), data=st.data())
def test_thread_region_cache_matches_fresh_compute(shape, striping, threads, data):
    t = data.draw(st.integers(0, threads - 1))
    assert thread_region(shape, striping, threads, t) == compute_thread_region(
        shape, striping, threads, t
    )


@settings(max_examples=60, deadline=None)
@given(
    shape=_shapes,
    elem_bytes=st.sampled_from([1, 4, 8]),
    src_striping=_stripings,
    src_threads=st.integers(1, 6),
    dst_striping=_stripings,
    dst_threads=st.integers(1, 6),
)
def test_message_plan_cache_matches_fresh_compute(
    shape, elem_bytes, src_striping, src_threads, dst_striping, dst_threads
):
    cached = message_plan(
        shape, elem_bytes, src_striping, src_threads, dst_striping, dst_threads
    )
    fresh = compute_message_plan(
        shape, elem_bytes, src_striping, src_threads, dst_striping, dst_threads
    )
    assert cached == fresh
    # the cache hands out a fresh list each call: callers may reorder it
    # without corrupting the shared entry
    second = message_plan(
        shape, elem_bytes, src_striping, src_threads, dst_striping, dst_threads
    )
    assert second is not cached
    assert second == cached


# ---------------------------------------------------------------------------
# recovery needs no cache invalidation

_ELASTIC_APPS = {"fft2d": fft2d_model, "corner_turn": corner_turn_model}
_ELASTIC_POLICIES = ("shrink_restripe", "grow_restripe", "migrate_stragglers")
_ELASTIC_N = 32



def _scenarios(nodes):
    """(policy, victim nodes): one or two distinct victims."""
    return st.tuples(
        st.sampled_from(_ELASTIC_POLICIES),
        st.lists(st.integers(0, nodes - 1), min_size=1, max_size=2, unique=True),
    )


_elastic_cases = st.sampled_from([4, 8]).flatmap(
    lambda nodes: st.tuples(st.just(nodes), _scenarios(nodes), _scenarios(nodes))
)


def _elastic_run(app, nodes, policy, victims, base_makespan=None):
    """Compile and run one scenario; returns everything observable about it.

    ``victims`` crash for good (and rejoin under ``grow_restripe``) or limp
    at quarter speed (``migrate_stragglers``).  A second crash that lands
    while the first is still re-striping kills the run with a typed fault;
    that outcome must not depend on the caches either.
    """
    model = _ELASTIC_APPS[app](_ELASTIC_N, nodes)
    glue = generate_glue(model, benchmark_mapping(model, nodes),
                         num_processors=nodes)
    plan = None
    if base_makespan is not None:
        plan = FaultPlan(seed=5)
        for i, victim in enumerate(victims):
            if policy == "migrate_stragglers":
                plan.slow_node(victim, at=base_makespan * 0.05, factor=0.25)
                continue
            plan.crash_node(victim, at=base_makespan * (0.2 + 0.1 * i),
                            permanent=True)
            if policy == "grow_restripe":
                plan.join_node(victim, at=base_makespan * (0.55 + 0.05 * i))
    runtime = SageRuntime.build(glue, cspi(), fault_plan=plan,
                                fault_policy=FaultPolicy.named(policy),
                                config=DEFAULT_CONFIG.timing_only())
    try:
        result = runtime.run(iterations=6)
    except FaultError as exc:
        return (type(exc).__name__, str(exc), runtime.env.events_processed)
    return (result.trace.digest(), result.makespan, runtime.env.events_processed)


@settings(max_examples=12, deadline=None)
@given(app=st.sampled_from(sorted(_ELASTIC_APPS)), case=_elastic_cases)
def test_recovery_is_identical_with_prewarmed_and_cold_caches(app, case):
    nodes, scenario, earlier = case
    # Fill the caches with everything a stale hit could come from — first,
    # so a mis-keyed layer would serve it to every later lookup: glue for
    # another placement of the same model, then the post-shrink / post-grow
    # mappings of an earlier, different recovery, then this very scenario's.
    clear_all_caches()
    model = _ELASTIC_APPS[app](_ELASTIC_N, nodes)
    generate_glue(model, random_mapping(model, nodes, seed=11),
                  num_processors=nodes)
    base = _elastic_run(app, nodes, "shrink_restripe", ())[1]
    _elastic_run(app, nodes, *earlier, base_makespan=base)
    _elastic_run(app, nodes, *scenario, base_makespan=base)

    glue_cache = named_cache("codegen.glue_source")
    misses = glue_cache.misses
    warm = _elastic_run(app, nodes, *scenario, base_makespan=base)
    assert glue_cache.misses == misses      # the warm run really was warm

    clear_all_caches()
    cold = _elastic_run(app, nodes, *scenario, base_makespan=base)
    assert glue_cache.misses > misses       # ... and the cold one cold
    assert warm == cold
