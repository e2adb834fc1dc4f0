"""The step-list kernel against the process-per-thread kernel it replaced.

``tests/reference_kernel.py`` keeps the generator-process kernel.  For drawn
designs (fft2d and corner turn 32², 1–8 threads a function round-robin on
1–8 nodes, 1–3 iterations, admission
depth and source pacing set or unset) under drawn fault schedules (none; a
crash replayed by ``checkpoint_restart``; seeded loss on a degraded link
under ``retry``; a permanent crash and a same-slot join under
``grow_restripe``; optionally a kernel that fails transiently once per
thread and iteration), both kernels must record the same probe trace, the
same §3.3 times, the same injector log and the same exception, if any, in
exactly as many engine events.
"""

import dataclasses
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import benchmark_mapping, corner_turn_model, fft2d_model
from repro.core.codegen import generate_glue
from repro.core.runtime import DEFAULT_CONFIG, FaultPolicy, SageRuntime
from repro.core.runtime.kernels import default_bindings
from repro.core.runtime.threads import ThreadRun
from repro.machine import Environment, FaultPlan, SimCluster, get_platform
from repro.machine.faults import TransientError
from repro.machine.simulator import Process

from .golden_traces import canonical_times, digest_of
from .reference_kernel import ReferenceRuntime

BUILDERS = {"fft2d": fft2d_model, "corner_turn": corner_turn_model}


def _plan(faults, nodes, victim, at, seed):
    if faults == "clean":
        return None, None
    plan = FaultPlan(seed=seed)
    if faults == "crash_ckpt":
        plan.crash_node(victim, at=at)
        return plan, FaultPolicy.checkpoint_restart()
    if faults == "lossy_retry":
        plan.message_loss(0.05)
        plan.degrade_link(0, nodes - 1, at=at, factor=0.5)
        return plan, FaultPolicy.retry(max_retries=4)
    plan.crash_node(victim, at=at, permanent=True)
    plan.join_node(victim, at=at * 3)
    return plan, FaultPolicy.grow_restripe()


def _flaky_bindings():
    """Every compute kernel fails transiently on its first call per thread
    and iteration (the kernel-call retry step)."""
    seen = set()
    out = {}
    for name, binding in default_bindings().items():
        if binding.dma_endpoint:
            continue

        def run(ctx, inputs, _run=binding.run):
            key = (ctx.function_id, ctx.thread, ctx.iteration)
            if key not in seen:
                seen.add(key)
                raise TransientError(f"hiccup {key}")
            return _run(ctx, inputs)

        out[name] = dataclasses.replace(binding, run=run)
    return out


@st.composite
def cases(draw):
    nodes = draw(st.integers(1, 8))
    faults = "clean" if nodes == 1 else draw(st.sampled_from(
        ["clean", "crash_ckpt", "lossy_retry", "rejoin_grow"]))
    return SimpleNamespace(
        app=draw(st.sampled_from(sorted(BUILDERS))),
        nodes=nodes,
        threads=draw(st.sampled_from([1, 2, 4, 8])),  # round-robin onto nodes
        iterations=draw(st.integers(1, 3)),
        max_in_flight=draw(st.sampled_from([None, 1, 2])),
        source_interval=draw(st.sampled_from([0.0, 3e-4])),
        faults=faults,
        victim=draw(st.integers(0, nodes - 1)),
        at=draw(st.sampled_from([2e-4, 5e-4, 1.5e-3])),
        seed=draw(st.integers(0, 99)),
        flaky=draw(st.booleans()),
    )


def _run(cls, case):
    """Everything a run decides, and the engine events it took."""
    model = BUILDERS[case.app](32, case.threads)
    glue = generate_glue(model, benchmark_mapping(model, case.nodes),
                         num_processors=case.nodes)
    plan, policy = _plan(case.faults, case.nodes, case.victim, case.at, case.seed)
    if case.flaky and policy is None:
        policy = FaultPolicy.retry(max_retries=2)
    env = Environment()
    cluster = SimCluster.from_platform(env, get_platform("cspi"), case.nodes,
                                       fault_plan=plan)
    config = dataclasses.replace(DEFAULT_CONFIG.timing_only(),
                                 max_in_flight=case.max_in_flight)
    runtime = cls(glue, cluster, config=config, fault_policy=policy,
                  bindings=_flaky_bindings() if case.flaky else None)
    try:
        result = runtime.run(iterations=case.iterations,
                             source_interval=case.source_interval)
        outcome = canonical_times(result)
    except Exception as exc:  # a run that fails must fail the same way
        outcome = (type(exc).__name__, str(exc))
    return (
        digest_of(SimpleNamespace(trace=runtime.trace)),
        outcome,
        cluster.faults and cluster.faults.log,
        env.now,
        env.events_processed,
    )


@settings(max_examples=80, deadline=None)
@given(cases())
def test_step_lists_match_the_process_per_thread_reference(case):
    assert _run(SageRuntime, case) == _run(ReferenceRuntime, case)


def test_the_reference_is_the_other_kernel():
    """The oracle's threads are generator processes; the production
    kernel's are step-list runs, so the property compares two designs."""
    model = fft2d_model(32, 2)
    glue = generate_glue(model, benchmark_mapping(model, 2), num_processors=2)
    for cls, kind in ((ReferenceRuntime, Process), (SageRuntime, ThreadRun)):
        runtime = cls.build(glue, get_platform("cspi"),
                            config=DEFAULT_CONFIG.timing_only())
        assert all(isinstance(run, kind) for run in runtime._spawn_iteration(0))
