"""The run-time's own re-placements pass the reconfiguration Verifier.

Shrink, grow, straggler drain and restore all go through
``SageRuntime._replace``.  These tests wrap it, record for every call the
placement before and after, the active set, the ring mirrors and the
shipments actually started, build a
:class:`~repro.analysis.MappingTransition` from each record, and assert
that :func:`~repro.analysis.check_transition` finds nothing: what the
run-time executes is what RECON approves.
"""

import pytest

from repro.analysis import MappingTransition, check_transition
from repro.apps import benchmark_mapping, fft2d_slack_model
from repro.core.codegen import generate_glue
from repro.core.runtime import DEFAULT_CONFIG, SageRuntime
from repro.core.runtime import kernel as kernel_module
from repro.core.runtime.policy import FaultPolicy
from repro.machine import get_platform
from repro.machine.faults import FaultPlan

from .golden_traces import _BUILDERS, SCENARIOS, run_scenario


@pytest.fixture
def records(monkeypatch):
    """Every re-placement of the runs made under this fixture, as
    ``(transition, drained set at the time)``."""
    out = []
    started = []
    replace = SageRuntime._replace
    shipment = kernel_module.Shipment

    def recording_shipment(rt, src, dst, nbytes, k, label):
        started.append((src, dst, nbytes, label))
        return shipment(rt, src, dst, nbytes, k, label)

    def recording_replace(rt, k, remap, announce=lambda moved: None,
                          mirrors=None, since=None):
        _, before, _ = rt._placement()
        started.clear()
        result = replace(rt, k, remap, announce, mirrors, since)
        _, after, _ = rt._placement()
        out.append((MappingTransition(
            kind=f"iteration {k}", before=before, after=after,
            active=set(rt._active_processors),
            moved={key for key, p in after.items()
                   if before.processor_of(*key) != p},
            transfers=list(started),
            mirrors=dict(mirrors or {}),
        ), set(rt._drained)))
        return result

    monkeypatch.setattr(kernel_module, "Shipment", recording_shipment)
    monkeypatch.setattr(SageRuntime, "_replace", recording_replace)
    return out


def assert_all_clean(app, nodes, records):
    assert records
    for transition, _drained in records:
        findings = check_transition(app, transition, nodes)
        assert not findings, (transition.describe(),
                              [f.render() for f in findings])


@pytest.mark.parametrize("name,transitions", [
    ("fft2d_8n_rejoin_grow", 2),          # shrink, grow
    ("fft2d_8n_straggler_migrate", 2),    # drain, restore
])
def test_golden_scenario_transitions_check_clean(records, name, transitions):
    app_name, n, nodes, *_ = SCENARIOS[name]
    run_scenario(name)
    assert len(records) == transitions
    assert any(t.transfers for t, _ in records)
    assert_all_clean(_BUILDERS[app_name](n, nodes), nodes, records)


def test_shrink_while_a_straggler_is_drained_checks_clean(records):
    """Node 3 limps and is drained; node 5 then dies for good while 3 is
    still drained, so the shrink deals 5's threads around the drained
    node and reads 5's checkpoints from its ring mirror."""
    nodes = 8
    app = fft2d_slack_model(56, 28)
    glue = generate_glue(app, benchmark_mapping(app, nodes),
                         num_processors=nodes)
    plan = FaultPlan(seed=17)
    plan.slow_node(3, at=0.0005, factor=0.25, duration=0.008)
    plan.crash_node(5, at=0.0115, permanent=True)
    runtime = SageRuntime.build(
        glue, get_platform("cspi"), fault_plan=plan,
        fault_policy=FaultPolicy.migrate_stragglers(),
        config=DEFAULT_CONFIG.timing_only())
    runtime.run(iterations=6)
    shrinks = [(t, drained) for t, drained in records if t.mirrors]
    assert len(shrinks) == 1
    shrink, drained = shrinks[0]
    assert drained == {3} and shrink.mirrors == {5: 6}
    assert 5 not in shrink.active and shrink.transfers
    assert_all_clean(app, nodes, records)
