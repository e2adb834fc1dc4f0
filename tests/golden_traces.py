"""Golden-trace scenarios: canonical runs whose virtual-time behaviour is pinned.

The simulator fast path (PR 4) promises *bit-identical* virtual results: any
refactor of the event core, the MPI layer, or the run-time kernel must leave
the probe traces and every simulated timestamp unchanged.  This module defines
a small set of canonical scenarios — the two Table 1.0 workloads, with the
fault layer armed and unarmed — and renders each run to a byte-exact canonical
form whose SHA-256 digest is committed in ``tests/golden/golden_traces.json``.

Regenerate (only when a change *intentionally* alters virtual-time behaviour,
and say so in the commit message)::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_traces.py

Determinism notes
-----------------
* ``repr(float)`` round-trips exactly, so digests pin timestamps to the bit.
* Fault sampling is seeded through :class:`~repro.machine.faults.FaultPlan`,
  so the armed scenarios are as deterministic as the clean ones.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Callable, Dict, Optional

from repro.apps import (
    benchmark_mapping,
    corner_turn_model,
    fft2d_model,
    fft2d_slack_model,
)
from repro.core.codegen import generate_glue
from repro.core.runtime import DEFAULT_CONFIG, SageRuntime
from repro.core.runtime.policy import FaultPolicy
from repro.machine import get_platform
from repro.machine.faults import FaultPlan

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "golden_traces.json")

_BUILDERS = {
    "fft2d": fft2d_model,
    "corner_turn": corner_turn_model,
    # Striping slack (28 threads > 8 nodes) so a straggler drain re-deals
    # threads onto under-loaded peers; `nodes` is fixed by the scenario.
    "fft2d_slack": lambda n, _nodes: fft2d_slack_model(n, 28),
}


def _clean_plan(_nodes: int) -> Optional[FaultPlan]:
    return None


def _crash_plan(_nodes: int) -> FaultPlan:
    """A transient crash mid-run; checkpoint_restart replays the iteration."""
    plan = FaultPlan(seed=7)
    plan.crash_node(1, at=0.002)
    return plan


def _lossy_plan(_nodes: int) -> FaultPlan:
    """Seeded message loss plus a degraded link; the retry policy re-sends."""
    plan = FaultPlan(seed=11)
    plan.message_loss(0.05)
    plan.degrade_link(0, 2, at=0.001, factor=0.5)
    return plan


def _rejoin_plan(_nodes: int) -> FaultPlan:
    """The full elastic cycle: a permanent crash, then a same-slot
    replacement powering on; grow_restripe detects, shrinks, runs degraded,
    admits the replacement, and migrates the moved threads back."""
    plan = FaultPlan(seed=13)
    plan.crash_node(5, at=0.0005, permanent=True)
    plan.join_node(5, at=0.0015)
    return plan


def _straggler_plan(_nodes: int) -> FaultPlan:
    """A gray failure that heals: node 3 limps at quarter speed for a few
    iterations, then recovers; migrate_stragglers drains its threads to the
    healthy peers and restores them once probes read normal again."""
    plan = FaultPlan(seed=17)
    plan.slow_node(3, at=0.0005, factor=0.25, duration=0.008)
    return plan


#: name -> (app, n, nodes, iterations, plan factory, policy factory)
SCENARIOS: Dict[str, tuple] = {
    "fft2d_4n_clean": ("fft2d", 64, 4, 3, _clean_plan, lambda: None),
    "cornerturn_4n_clean": ("corner_turn", 64, 4, 3, _clean_plan, lambda: None),
    "fft2d_4n_crash_ckpt": (
        "fft2d", 64, 4, 3, _crash_plan,
        lambda: FaultPolicy.checkpoint_restart(),
    ),
    "cornerturn_4n_lossy_retry": (
        "corner_turn", 32, 4, 2, _lossy_plan,
        lambda: FaultPolicy.retry(max_retries=4),
    ),
    "fft2d_8n_rejoin_grow": (
        "fft2d", 32, 8, 5, _rejoin_plan,
        lambda: FaultPolicy.grow_restripe(),
    ),
    "fft2d_8n_straggler_migrate": (
        "fft2d_slack", 56, 8, 10, _straggler_plan,
        lambda: FaultPolicy.migrate_stragglers(),
    ),
}


def run_scenario(name: str):
    """Execute one scenario from scratch; returns its RunResult."""
    return run_scenario_in_env(name)[0]


def run_scenario_in_env(name: str):
    """Execute one scenario from scratch; returns ``(RunResult, Environment)``
    (the environment carries the engine's event count)."""
    app_name, n, nodes, iterations, plan_fn, policy_fn = SCENARIOS[name]
    model = _BUILDERS[app_name](n, nodes)
    mapping = benchmark_mapping(model, nodes)
    glue = generate_glue(model, mapping, num_processors=nodes)
    runtime = SageRuntime.build(
        glue, get_platform("cspi"), fault_plan=plan_fn(nodes),
        fault_policy=policy_fn(), config=DEFAULT_CONFIG.timing_only(),
    )
    return runtime.run(iterations=iterations), runtime.env


def canonical_trace(result) -> str:
    """Byte-exact canonical rendering of a run's probe trace."""
    lines = [
        "|".join((
            repr(e.time), e.kind, e.function, str(e.function_id),
            str(e.thread), str(e.processor), str(e.iteration),
            e.detail, str(e.nbytes),
        ))
        for e in result.trace
    ]
    return "\n".join(lines)


def canonical_times(result) -> dict:
    """The §3.3 virtual-time quantities, rendered exactly."""
    return {
        "source_times": [repr(t) for t in result.source_times],
        "sink_times": [repr(t) for t in result.sink_times],
        "latencies": [repr(t) for t in result.latencies],
        "makespan": repr(result.makespan),
    }


def digest_of(result) -> str:
    return hashlib.sha256(canonical_trace(result).encode()).hexdigest()


def capture(name: str) -> dict:
    result = run_scenario(name)
    return {
        "trace_sha256": digest_of(result),
        "trace_events": len(result.trace),
        "times": canonical_times(result),
    }


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def regenerate(write: Callable[[str], None] = print) -> dict:
    golden = {name: capture(name) for name in SCENARIOS}
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    write(f"wrote {GOLDEN_PATH} ({len(golden)} scenarios)")
    return golden


if __name__ == "__main__":  # pragma: no cover - manual regeneration hook
    regenerate()
