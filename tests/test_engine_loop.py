"""``Environment.run``'s inlined loop against ``step()`` called one entry at a
time.

``run`` drains the queues in one loop and counts ``events_processed`` in a
local; ``step`` runs the same loop for a single entry.  ``SteppedEnvironment``
below drives the engine the slow way — ``while not done.processed:
env.step()`` — for every ``run`` the run-time makes, so any divergence in
the ``(time, priority, seq)`` order, the clock or the event count between
the two drivers shows up in the golden scenarios' digests.
"""

import pytest

from repro.apps import benchmark_mapping
from repro.core.codegen import generate_glue
from repro.core.runtime import DEFAULT_CONFIG, SageRuntime
from repro.machine import Environment, SimCluster, get_platform
from repro.machine.simulator import Event, SimulationError

from .golden_traces import _BUILDERS, SCENARIOS, digest_of


class SteppedEnvironment(Environment):
    """:class:`Environment` whose ``run`` is a test-side loop over ``step()``."""

    __slots__ = ()

    def run(self, until=None):
        if isinstance(until, Event):
            while not until.processed:
                if not self.pending():
                    raise SimulationError("simulation ran out of events before "
                                          "'until' fired")
                self.step()
            if until.ok:
                return until.value
            raise until.value
        if until is None:
            while self.pending():
                self.step()
            return None
        horizon = float(until)
        if horizon < self._now:
            raise SimulationError("'until' is in the past")
        while (self._imm0 or self._imm1
               or (self._queue and self._queue[0][0] <= horizon)):
            self.step()
        self._now = horizon
        return None


def _run_scenario(name, env):
    app_name, n, nodes, iterations, plan_fn, policy_fn = SCENARIOS[name]
    model = _BUILDERS[app_name](n, nodes)
    glue = generate_glue(model, benchmark_mapping(model, nodes),
                         num_processors=nodes)
    cluster = SimCluster.from_platform(env, get_platform("cspi"), nodes,
                                       fault_plan=plan_fn(nodes))
    runtime = SageRuntime(glue, cluster, config=DEFAULT_CONFIG.timing_only(),
                          fault_policy=policy_fn())
    result = runtime.run(iterations=iterations)
    return digest_of(result), repr(result.makespan), env.events_processed


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_scenario_same_under_both_drivers(name):
    stepped = _run_scenario(name, SteppedEnvironment())
    assert _run_scenario(name, Environment()) == stepped


def _timeline(env, log):
    """Timeouts at 1, 2 (twice), 3 and 4; each logs (now, tag) and the one
    at 2 schedules a zero-delay event that logs at the same instant."""
    def note(tag):
        return lambda _ev: log.append((env.now, tag))

    for delay, tag in ((3.0, "c"), (1.0, "a"), (2.0, "b1"), (4.0, "d"), (2.0, "b2")):
        env.timeout(delay).callbacks.append(note(tag))
    env.timeout(2.0).callbacks.append(
        lambda _ev: env.event().succeed().callbacks.append(note("b-now")))


@pytest.mark.parametrize("horizon", [0.0, 1.0, 2.0, 2.5, 4.0, 9.0])
def test_run_until_a_time_stops_at_the_horizon(horizon):
    runs = []
    for env in (SteppedEnvironment(), Environment()):
        log = []
        _timeline(env, log)
        env.run(until=horizon)
        assert env.now == horizon
        runs.append((log, env.events_processed))
    assert runs[0] == runs[1]
    assert all(t <= horizon for t, _ in runs[1][0])


def test_run_drains_and_a_past_horizon_is_refused():
    for env in (SteppedEnvironment(), Environment()):
        log = []
        _timeline(env, log)
        assert env.run() is None
        assert [tag for _, tag in log] == ["a", "b1", "b2", "b-now", "c", "d"]
        assert env.now == 4.0 and env.events_processed == 7
        with pytest.raises(SimulationError, match="in the past"):
            env.run(until=3.0)


def test_deadlock_raises_once_the_queues_run_dry():
    for env in (SteppedEnvironment(), Environment()):
        env.timeout(1.0)
        never = env.event()
        with pytest.raises(SimulationError, match="ran out of events"):
            env.run(until=never)
        assert env.now == 1.0 and env.events_processed == 1
    with pytest.raises(SimulationError, match="no more events"):
        Environment().step()


def test_a_raising_callback_is_counted_and_leaves_the_rest_queued():
    def boom(_ev):
        raise ValueError("boom")

    for env in (SteppedEnvironment(), Environment()):
        env.timeout(1.0).callbacks.append(boom)
        later = env.timeout(2.0, value="later")
        with pytest.raises(ValueError, match="boom"):
            env.run(until=later)
        assert env.events_processed == 1 and env.now == 1.0
        assert env.run(until=later) == "later"
        assert env.events_processed == 2


def test_step_processes_exactly_one_entry():
    env = Environment()
    _timeline(env, [])
    seen = []
    while env.pending():
        env.step()
        seen.append((env.now, env.events_processed))
    assert seen == [(1.0, 1), (2.0, 2), (2.0, 3), (2.0, 4), (2.0, 5),
                    (3.0, 6), (4.0, 7)]
