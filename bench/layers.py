"""Per-layer measurements taken from outside: micro rows and profile shares.

A micro row times one layer alone through its public functions, on a fixed
input, so that it reads the same whichever workload's traced run it is part
of.  ``profile_shares`` folds a ``cProfile`` run of a workload's ops by the
file that defines each function.
"""

from __future__ import annotations

import gc
import pstats
import statistics
import time

import numpy as np

from repro.analysis import lint_job_spec, predict_makespan
from repro.analysis.alter_lint import GLUE_GLOBALS
from repro.apps import benchmark_mapping, fft2d_model
from repro.core.alter import Interpreter, parse
from repro.core.codegen import generate_glue
from repro.core.codegen.generator import glue_fingerprint
from repro.core.codegen.scripts import ALL_SCRIPTS
from repro.core.runtime import SageRuntime, Trace
from repro.core.runtime.phantom import PhantomArray
from repro.core.runtime.policy import FaultPolicy
from repro.experiments import Protocol, measure_hand, measure_sage
from repro.kernels.fft import fft_rows
from repro.machine import Environment, FaultPlan, SimCluster, Store
from repro.mpi import MpiWorld
from repro.perf import REGISTRY, clear_all_caches
from repro.service import JobSpec

from workloads import CSPI, TIMING_ONLY, Design, null_span, run_design

#: (layer, path prefixes under ``repro/``), first match wins; the rest of
#: the profile (stdlib, numpy, builtins, apps/, perf/, the benchmark) is
#: ``other``.
LAYERS = (
    ("kernels", ("kernels/", "core/runtime/kernels.py",
                 "core/runtime/buffers.py", "core/runtime/striping.py")),
    ("runtime", ("core/runtime/",)),
    ("simulator", ("machine/simulator.py",)),
    ("interconnect", ("machine/interconnect.py", "machine/cluster.py")),
    ("machine", ("machine/",)),
    ("detector", ("mpi/detector.py", "mpi/adaptive.py")),
    ("mpi", ("mpi/",)),
    ("codegen", ("core/alter/", "core/codegen/", "analysis/", "core/model/")),
    ("service", ("service/",)),
)
PROFILE_ROWS = tuple(f"{layer}.prof_share_pct" for layer, _ in LAYERS) + (
    "other.prof_share_pct",)


def profile_shares(profile) -> dict:
    """Share of ``tottime`` by layer, in percent; the rows sum to 100.

    A generator's resumes are charged to the file that defines its body, so
    the run-time's thread bodies count as ``runtime``, not ``simulator``.
    """
    totals = dict.fromkeys([layer for layer, _ in LAYERS] + ["other"], 0.0)
    for (filename, _, _), row in pstats.Stats(profile).stats.items():
        tottime = row[2]
        layer = "other"
        _, sep, inside = filename.replace("\\", "/").rpartition("/repro/")
        if sep:
            layer = next((name for name, prefixes in LAYERS
                          if inside.startswith(prefixes)), "other")
        totals[layer] += tottime
    whole = sum(totals.values()) or 1.0
    return {f"{layer}.prof_share_pct": 100.0 * t / whole
            for layer, t in totals.items()}


def _seconds(fn) -> float:
    """Host seconds of one ``fn()``, GC collected before and off inside."""
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def _median_ms(fn, repeats: int) -> float:
    return statistics.median(_seconds(fn) for _ in range(repeats)) * 1e3


FFT8 = Design("fft2d", 256, 8, 5)


def _fft8_model():
    model = fft2d_model(FFT8.size, FFT8.nodes)
    return model, benchmark_mapping(model, FFT8.nodes)


def _alter_rows() -> dict:
    model, mapping = _fft8_model()

    def evaluate():
        interp = Interpreter()
        for name, value in zip(GLUE_GLOBALS, (model, mapping, FFT8.nodes,
                                              {"optimize_buffers": False})):
            interp.globals.define(name, value)
        for _, script in ALL_SCRIPTS:
            interp.run(script)

    return {
        "alter.parse_ms": _median_ms(
            lambda: [parse(script) for _, script in ALL_SCRIPTS], 7),
        "alter.eval_ms": _median_ms(evaluate, 7),
    }


def _codegen_rows() -> dict:
    model, mapping = _fft8_model()

    def cold(analyze):
        clear_all_caches()
        return _seconds(lambda: generate_glue(
            model, mapping, num_processors=FFT8.nodes, analyze=analyze))

    # Alternate the two, so that drift of the host cancels in the difference.
    pairs = [(cold(True), cold(False)) for _ in range(7)]
    with_gate = statistics.median(p[0] for p in pairs) * 1e3
    without = statistics.median(p[1] for p in pairs) * 1e3
    return {
        "codegen.cold_ms": with_gate,
        "analysis.gate_ms": with_gate - without,
        "codegen.fingerprint_ms": _median_ms(
            lambda: glue_fingerprint(model, mapping, FFT8.nodes, False), 9),
    }


def _analysis_rows() -> dict:
    model, mapping = _fft8_model()
    predicted = predict_makespan(model, mapping, FFT8.nodes, CSPI,
                                 iterations=FFT8.iterations).makespan
    simulated = run_design(null_span, FFT8)[0].makespan
    spec = JobSpec(tenant="bench", app="fft2d", size=64, nodes=4, iterations=3)
    return {
        "analysis.predict_ms": _median_ms(
            lambda: predict_makespan(model, mapping, FFT8.nodes, CSPI,
                                     iterations=FFT8.iterations), 7),
        "analysis.predict_err_pct": 100.0 * abs(predicted - simulated) / simulated,
        "analysis.lint_job_ms": _median_ms(
            lambda: lint_job_spec(spec, CSPI, cluster_nodes=8), 7),
    }


def _simulator_rows() -> dict:
    rounds = 25_000  # 4 events a round: a put and a get on either side

    def pingpong():
        env = Environment()
        there, back = Store(env), Store(env)

        def ping():
            for k in range(rounds):
                yield there.put(k)
                yield back.get()

        def pong():
            for _ in range(rounds):
                k = yield there.get()
                yield back.put(k)

        env.process(ping())
        env.process(pong())
        env.run()
        return env.events_processed

    def timeouts():
        env = Environment()

        def sleeper(k):
            for step in range(40):
                yield env.timeout(1.0 + ((k * 7919 + step * 104729) % 1000) / 1e3)

        for k in range(1000):
            env.process(sleeper(k))
        env.run()
        return env.events_processed

    rows = {}
    for name, fn in (("pingpong", pingpong), ("timeout", timeouts)):
        events = fn()
        rows[f"simulator.{name}_ns_per_event"] = _median_ms(fn, 3) * 1e6 / events
    return rows


def _interconnect_rows() -> dict:
    nbytes = 8 * 256 * 8  # one fft2d tile row block

    def uncontended(count=1000):
        env = Environment()
        cluster = SimCluster.from_platform(env, CSPI, 2)

        def sender():
            for _ in range(count):
                yield from cluster.transfer(0, 1, nbytes)

        env.process(sender())
        env.run()

    def fan_in(rounds=20):
        env = Environment()
        cluster = SimCluster.from_platform(env, CSPI, 32)

        def sender(src):
            for _ in range(rounds):
                yield from cluster.transfer(src, 0, nbytes)

        for src in range(1, 32):
            env.process(sender(src))
        env.run()

    return {
        "interconnect.transfer_us": _median_ms(uncontended, 5) * 1e3 / 1000,
        "interconnect.contended_transfer_us":
            _median_ms(fan_in, 5) * 1e3 / (31 * 20),
    }


def _mpi_rows() -> dict:
    def alltoall():
        env = Environment()
        world = MpiWorld(SimCluster.from_platform(env, CSPI, 16))

        def program(comm):
            tiles = [PhantomArray((16, 16), "complex64")] * comm.size
            yield from comm.alltoall(tiles, algorithm=CSPI.alltoall_algorithm)

        world.spawn(program)
        world.run()

    return {"mpi.alltoall_ms": _median_ms(alltoall, 7)}


def _apps_rows() -> dict:
    """Table 1.0: hand-coded latency as a share of the generated code's,
    both simulated, 8 nodes, 256^2 (the paper reports about 77.5 overall)."""
    protocol = Protocol(runs=1, iterations=5, jitter_sigma=0.0)
    rows = {}
    for app in ("fft2d", "corner_turn"):
        hand = measure_hand(app, CSPI, 8, 256, protocol).latency
        sage = measure_sage(app, CSPI, 8, 256, protocol).latency
        rows[f"apps.pct_of_hand_{app}"] = 100.0 * hand / sage
    return rows


def _kernel_rows() -> dict:
    block = (np.random.default_rng(7).standard_normal((64, 256))
             .astype("complex64"))
    return {"kernels.fft_rows_ms": _median_ms(lambda: fft_rows(block), 9)}


def _probe_rows() -> dict:
    """Host cost of the probes: the same run with the default trace and
    with a disabled one."""
    model, mapping = _fft8_model()
    glue = generate_glue(model, mapping, num_processors=FFT8.nodes)

    def run(trace):
        env = Environment()
        runtime = SageRuntime(glue, SimCluster.from_platform(env, CSPI, FFT8.nodes),
                              config=TIMING_ONLY, trace=trace)
        return _seconds(lambda: runtime.run(iterations=FFT8.iterations))

    pairs = [(run(Trace()), run(Trace(enabled=False))) for _ in range(7)]
    on = statistics.median(p[0] for p in pairs)
    off = statistics.median(p[1] for p in pairs)
    return {"runtime.probe_overhead_pct": 100.0 * (on / off - 1.0)}


def _fault_rows() -> dict:
    """faulted_8n's design with and without its fault plan."""
    design = Design("fft2d", 64, 8, 6)
    policy = FaultPolicy.grow_restripe()
    clean_makespan = run_design(null_span, design, fault_policy=policy)[0].makespan

    def pause_timer():
        timers = REGISTRY.snapshot()["timers"]
        return timers.get("runtime.migration_pause_s", {}).get("total_s", 0.0)

    def faulted():
        plan = (FaultPlan(seed=0)
                .crash_node(7, at=0.3 * clean_makespan, permanent=True)
                .join_node(7, at=0.6 * clean_makespan))
        run_design(null_span, design, fault_plan=plan, fault_policy=policy)

    before = pause_timer()
    faulted()
    pause_s = pause_timer() - before
    return {
        "faults.overhead_x": _median_ms(faulted, 5) / _median_ms(
            lambda: run_design(null_span, design, fault_policy=policy), 5),
        "faults.virt_pause_us": pause_s * 1e6,
    }


MICRO_GROUPS = (_alter_rows, _codegen_rows, _analysis_rows, _simulator_rows,
                _interconnect_rows, _mpi_rows, _apps_rows, _kernel_rows,
                _probe_rows, _fault_rows)


def micro_rows() -> dict:
    rows = {}
    for group in MICRO_GROUPS:
        rows.update(group())
    return rows
