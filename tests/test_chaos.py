"""The chaos subsystem: schedule generation, invariants, and the soak.

The property test at the bottom is the PR's centerpiece promise: *any*
seeded chaos schedule the strongest policy claims to survive completes
with results bitwise identical to the fault-free run.
"""

import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chaos import (
    CHAOS_KINDS,
    IDENTICAL,
    MAY_ABORT,
    check_probe_stream,
    expected_outcome,
    generate_schedule,
)
from repro.chaos.schedule import ChaosSchedule
from repro.chaos.soak import SOAK_POLICIES, run_baseline, run_schedule
from repro.core.runtime.policy import FaultPolicy
from repro.core.runtime.probes import ProbeEvent, Trace
from repro.machine.faults import FaultPlan

HORIZON = 0.01


# -- schedule generation ------------------------------------------------------

def test_generation_is_pure():
    a = generate_schedule(42, 4, HORIZON)
    b = generate_schedule(42, 4, HORIZON)
    assert a.kinds == b.kinds
    assert a.permanent_crash == b.permanent_crash
    assert a.hard_flap == b.hard_flap
    assert [repr(e) for e in a.plan.events] == [repr(e) for e in b.plan.events]
    assert a.plan.loss_rate == b.plan.loss_rate
    assert a.plan.corruption_rate == b.plan.corruption_rate


def test_different_seeds_differ():
    dumps = {
        (generate_schedule(s, 4, HORIZON).kinds,
         tuple(repr(e) for e in generate_schedule(s, 4, HORIZON).plan.events))
        for s in range(12)
    }
    assert len(dumps) > 1


def test_kind_restriction_and_bounds():
    for seed in range(8):
        s = generate_schedule(seed, 4, HORIZON, kinds=("slow", "jitter"),
                              min_events=2, max_events=4)
        assert set(s.kinds) <= {"slow", "jitter"}
        assert 2 <= len(s.kinds) <= 4


def test_rank0_is_spared_crash_class_faults():
    for seed in range(30):
        s = generate_schedule(seed, 3, HORIZON, kinds=("crash", "join"))
        for event in s.plan.events:
            assert getattr(event, "node", 1) != 0


def test_generation_validates():
    with pytest.raises(ValueError):
        generate_schedule(1, 1, HORIZON)
    with pytest.raises(ValueError):
        generate_schedule(1, 4, 0.0)
    with pytest.raises(ValueError):
        generate_schedule(1, 4, HORIZON, kinds=("meteor",))
    with pytest.raises(ValueError):
        generate_schedule(1, 4, HORIZON, min_events=3, max_events=2)


# -- the expected-outcome capability matrix -----------------------------------

def _sched(kinds, permanent_crash=False, hard_flap=False):
    return ChaosSchedule(seed=0, nodes=2, horizon=HORIZON,
                         kinds=tuple(kinds), plan=FaultPlan(seed=0),
                         permanent_crash=permanent_crash,
                         hard_flap=hard_flap)


def test_expected_outcome_matrix():
    fail_fast = FaultPolicy.fail_fast()
    retry = FaultPolicy.retry()
    ckpt = FaultPolicy.checkpoint_restart()
    shrink = FaultPolicy.shrink_restripe()
    migrate = FaultPolicy.migrate_stragglers()

    # Gray faults cost only time: every policy must survive them.
    for kinds in (("slow",), ("jitter",), ("degrade",), ("hang",)):
        for policy in (fail_fast, retry, ckpt, shrink, migrate):
            assert expected_outcome(_sched(kinds), policy) == IDENTICAL
    # Crashes need checkpoints; permanent ones need shrinking recovery.
    assert expected_outcome(_sched(("crash",)), fail_fast) == MAY_ABORT
    assert expected_outcome(_sched(("crash",)), ckpt) == IDENTICAL
    assert expected_outcome(
        _sched(("crash",), permanent_crash=True), ckpt) == MAY_ABORT
    assert expected_outcome(
        _sched(("crash",), permanent_crash=True), shrink) == IDENTICAL
    # Joins imply a permanent crash first.
    assert expected_outcome(_sched(("join",)), ckpt) == MAY_ABORT
    assert expected_outcome(_sched(("join",)), migrate) == IDENTICAL
    # Loss and corruption need transfer retries.
    assert expected_outcome(_sched(("loss",)), fail_fast) == MAY_ABORT
    assert expected_outcome(_sched(("loss",)), retry) == IDENTICAL
    assert expected_outcome(_sched(("corruption",)), fail_fast) == MAY_ABORT
    # A hard flap severs in-flight transfers; a soft one only slows them.
    assert expected_outcome(
        _sched(("flap",), hard_flap=True), fail_fast) == MAY_ABORT
    assert expected_outcome(
        _sched(("flap",), hard_flap=True), retry) == IDENTICAL
    assert expected_outcome(_sched(("flap",)), fail_fast) == IDENTICAL


# -- the probe-stream checker -------------------------------------------------

def _ev(time, kind, **kw):
    base = dict(function="f", function_id=0, thread=0, processor=0,
                iteration=0)
    base.update(kw)
    return ProbeEvent(time=time, kind=kind, **base)


def test_probe_stream_accepts_well_formed():
    t = Trace()
    for e in (_ev(0.0, "source"), _ev(0.1, "enter"), _ev(0.2, "exit"),
              _ev(0.3, "send"), _ev(0.4, "arrive"), _ev(0.5, "sink")):
        t.record(e)
    assert check_probe_stream(t, processors=1, completed_iterations=1) == []


def test_probe_stream_catches_violations():
    t = Trace()
    t.record(_ev(1.0, "enter"))
    t.record(_ev(0.5, "exit"))             # time goes backwards
    t.record(_ev(1.5, "exit"))             # second exit, one enter
    t.record(_ev(2.0, "arrive"))           # arrival without a send
    t.record(_ev(2.5, "source", processor=7))  # processor out of range
    bad = check_probe_stream(t, processors=1, completed_iterations=1)
    details = "\n".join(str(v) for v in bad)
    assert "backwards" in details
    assert "exit(s)" in details
    assert "arrivals" in details
    assert "processor 7" in details
    assert "no sink record" in details


# -- the soak -----------------------------------------------------------------

def test_taxonomy_tags_cover_all_policies():
    assert set(SOAK_POLICIES) == {
        "fail_fast", "retry", "checkpoint_restart", "shrink_restripe",
        "grow_restripe", "migrate_stragglers",
    }
    assert len(CHAOS_KINDS) == 9


def test_service_soak_import_leaves_the_soak_runner_unloaded():
    """The service soak needs only the invariants; importing it must not
    load the chaos soak runner (apps, codegen, run-time) through the
    package."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.service.soak\n"
         "print('repro.chaos.invariants' in sys.modules,"
         " 'repro.chaos.soak' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), check=True,
        capture_output=True, text=True).stdout
    assert out.split() == ["True", "False"]


# -- the centerpiece property -------------------------------------------------

_BASELINE = None


def _baseline():
    global _BASELINE
    if _BASELINE is None:
        _BASELINE = run_baseline()
    return _BASELINE


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
# A crash whose replacement joins 44 us later, inside the detection window:
# nobody ever declares the node dead, and recovery used to wait forever.
@example(seed=1429)
def test_migrate_stragglers_survives_any_schedule_bitwise(seed):
    """migrate_stragglers claims every capability, so expected_outcome is
    IDENTICAL for *every* generated schedule: the run must complete and its
    per-iteration results must equal the fault-free run's, bit for bit —
    and every structural invariant (quiescence, no leaked slots, probe
    stream) must hold along the way."""
    baseline = _baseline()
    schedule = generate_schedule(seed, 2, baseline.makespan)
    assert expected_outcome(
        schedule, SOAK_POLICIES["migrate_stragglers"]()) == IDENTICAL
    outcome = run_schedule(schedule, "migrate_stragglers", baseline)
    assert outcome.completed, outcome.aborted_with
    assert outcome.ok, outcome.violations
