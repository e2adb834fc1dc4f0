"""Heartbeat failure detector: detection, determinism, false positives, and
the process-per-ping oracle."""

import itertools
from dataclasses import dataclass
from typing import Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FailureDetector, FaultPlan, HeartbeatConfig
from repro.machine import Environment, SimCluster, cspi

from .reference_detector import ReferenceDetector


def make_detector(nodes=4, plan=None, config=None):
    env = Environment()
    cluster = SimCluster.from_platform(env, cspi(), nodes, fault_plan=plan)
    detector = FailureDetector(cluster, config)
    return env, detector


class TestConfig:
    def test_defaults_valid(self):
        cfg = HeartbeatConfig()
        assert cfg.window == pytest.approx(
            (cfg.miss_grace + cfg.threshold) * cfg.period)

    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError):
            HeartbeatConfig(period=0)

    def test_needs_two_ranks(self):
        env = Environment()
        cluster = SimCluster.from_platform(env, cspi(), 1)
        with pytest.raises(ValueError, match="at least 2"):
            FailureDetector(cluster)


class TestDetection:
    def test_crashed_node_declared_within_window(self):
        crash_at = 0.002
        plan = FaultPlan().crash_node(2, at=crash_at, permanent=True)
        env, det = make_detector(4, plan=plan)
        det.start()
        declared_at, observer = env.run(until=det.death_event(2))
        assert observer != 2
        latency = declared_at - crash_at
        assert 0 < latency <= 2 * det.config.window

    def test_all_live_observers_converge(self):
        """Gossip spreads the verdict: every live view declares the victim."""
        plan = FaultPlan().crash_node(2, at=0.002, permanent=True)
        env, det = make_detector(4, plan=plan)
        det.start()
        env.run(until=det.death_event(2))
        env.run(until=env.now + 4 * det.config.window)
        for r in (0, 1, 3):
            assert det.dead_according_to(r) == {2}

    def test_death_event_for_already_declared_is_immediate(self):
        plan = FaultPlan().crash_node(1, at=0.001, permanent=True)
        env, det = make_detector(3, plan=plan)
        det.start()
        first = env.run(until=det.death_event(1))
        # A fresh event for an already-declared target fires without waiting.
        assert env.run(until=det.death_event(1)) == first
        assert det.first_detection(1) == tuple(first)

    def test_clear_forgets_a_declaration(self):
        plan = FaultPlan().crash_node(1, at=0.001)  # revivable
        env, det = make_detector(3, plan=plan)
        det.start()
        env.run(until=det.death_event(1))
        det.cluster.faults.revive(1)
        det.clear(1)
        assert det.declared_dead() == set()
        assert det.dead_according_to(0) == set()
        # The revived rank heartbeats again; nobody re-declares it.
        env.run(until=env.now + 4 * det.config.window)
        assert det.declared_dead() == set()

    def test_stop_kills_detector_processes(self):
        env, det = make_detector(3)
        det.start()
        env.run(until=5 * det.config.period)
        det.stop()
        env.run()  # queue drains: no emitter/monitor left ticking
        assert not det.declared_dead()


class TestFalsePositives:
    def test_fault_free_soak_has_zero_false_positives(self):
        """Acceptance: defaults produce no suspicion at all without faults."""
        env, det = make_detector(8)
        det.start()
        env.run(until=500 * det.config.period)
        assert det.log == []
        assert det.declared_dead() == set()

    def test_degraded_link_alone_causes_no_false_positives(self):
        plan = FaultPlan(seed=9).degrade_link(0, 1, at=0.0, factor=0.10)
        env, det = make_detector(4, plan=plan)
        det.start()
        env.run(until=200 * det.config.period)
        assert det.declared_dead() == set()

    def test_heavy_loss_can_cause_false_positives(self):
        """The detector is honest: a lossy-enough fabric silences live ranks."""
        plan = FaultPlan(seed=3).message_loss(0.5)
        env, det = make_detector(3, plan=plan)
        det.start()
        env.run(until=400 * det.config.period)
        assert det.declared_dead()  # wrongly, by construction: nobody crashed


class TestDeterminism:
    @staticmethod
    def _trace(seed):
        plan = (FaultPlan(seed=seed)
                .message_loss(0.10)
                .crash_node(3, at=0.0015, permanent=True))
        env, det = make_detector(4, plan=plan)
        det.start()
        env.run(until=det.death_event(3))
        env.run(until=env.now + 4 * det.config.window)
        return [(e.time, e.kind, e.observer, e.target) for e in det.log]

    def test_same_seed_reproduces_identical_detection_trace(self):
        assert self._trace(7) == self._trace(7)

    def test_different_seed_changes_the_trace(self):
        # Loss draws differ, so suspicion timings differ.
        assert self._trace(7) != self._trace(8)


# -- the process-per-ping oracle ----------------------------------------------

#: Rounds a scenario runs.  The dyadic period makes every tick time, and every
#: fault placed on a tick, an exact float, so faults tie with ticks.
ROUNDS = 40
PERIODS = (1e-4, 2.0 ** -13, 2.5e-4)


@dataclass(frozen=True)
class Scenario:
    nodes: int
    period: float
    adaptive: bool
    rtt_probe_every: int
    seed: int
    loss: float
    corruption: float
    #: (node, at, permanent)
    crash: Optional[Tuple[int, float, bool]]
    #: (join time, request_join time) of the crashed node's replacement
    rejoin: Optional[Tuple[float, float]]
    #: (join time, request_join time) of a brand-new rank ``nodes``
    grow: Optional[Tuple[float, float]]
    #: ("drop", a, b, at, duration, 0.0) or ("flap", a, b, at, period, factor)
    links: Tuple[tuple, ...]

    @property
    def horizon(self) -> float:
        return ROUNDS * self.period

    def plan(self) -> FaultPlan:
        plan = (FaultPlan(seed=self.seed).message_loss(self.loss)
                .message_corruption(self.corruption))
        if self.crash is not None:
            node, at, permanent = self.crash
            plan.crash_node(node, at=at, permanent=permanent)
            if self.rejoin is not None:
                plan.join_node(node, at=self.rejoin[0])
        if self.grow is not None:
            plan.join_node(self.nodes, at=self.grow[0])
        for kind, a, b, at, arg, factor in self.links:
            if kind == "drop":
                plan.drop_link(a, b, at=at, duration=arg)
            else:
                plan.flap_link(a, b, at=at, period=arg, factor=factor, cycles=2)
        return plan


@st.composite
def scenarios(draw):
    nodes = draw(st.integers(2, 8))
    period = draw(st.sampled_from(PERIODS))
    # The last round is left free, so a request_join always runs before
    # the detector stops.
    ticks = list(itertools.accumulate([period] * (ROUNDS - 1)))

    def when(after=0.0):
        """A fault time: on a tick (so it ties with one) or anywhere."""
        on_tick = [t for t in ticks if t >= after]
        if on_tick and draw(st.booleans()):
            return draw(st.sampled_from(on_tick))
        return draw(st.floats(min(after, ticks[-1]), ticks[-1]))

    crash = rejoin = grow = None
    if draw(st.booleans()):
        crash = (draw(st.integers(0, nodes - 1)), when(), draw(st.booleans()))
        if draw(st.booleans()):
            joined = when(crash[1])
            rejoin = (joined, when(joined))
    if draw(st.booleans()):
        joined = when()
        grow = (joined, when(joined + period / 2))
    links = []
    for _ in range(draw(st.integers(0, 2)) if nodes > 2 else 0):
        a, b = draw(st.lists(st.integers(0, nodes - 1), min_size=2,
                             max_size=2, unique=True))
        if draw(st.booleans()):
            duration = draw(st.sampled_from([None, 3 * period, 7.5 * period]))
            links.append(("drop", a, b, when(), duration, 0.0))
        else:
            links.append(("flap", a, b, when(),
                          draw(st.sampled_from([2 * period, 5 * period])),
                          draw(st.sampled_from([0.0, 0.25]))))
    adaptive = draw(st.booleans())
    return Scenario(
        nodes=nodes, period=period, adaptive=adaptive,
        rtt_probe_every=draw(st.sampled_from([0, 4])) if adaptive else 0,
        seed=draw(st.integers(0, 2 ** 16)),
        loss=draw(st.sampled_from([0.0, 0.05, 0.3])),
        corruption=draw(st.sampled_from([0.0, 0.05])),
        crash=crash, rejoin=rejoin, grow=grow, links=tuple(links),
    )


def _estimator(est):
    return est.mean, est.dev, est.peak, est.samples


def _run_detector(cls, sc: Scenario):
    """Everything a run decides, and the engine events it took."""
    env = Environment()
    cluster = SimCluster.from_platform(env, cspi(), sc.nodes,
                                       fault_plan=sc.plan())
    det = cls(cluster, HeartbeatConfig(
        period=sc.period, adaptive=sc.adaptive,
        rtt_probe_every=sc.rtt_probe_every))

    def request_join(at, rank):
        yield env.timeout(at)
        det.request_join(rank)

    if sc.rejoin is not None:
        env.process(request_join(sc.rejoin[1], sc.crash[0]))
    if sc.grow is not None:
        env.process(request_join(sc.grow[1], sc.nodes))
    det.start()
    env.run(until=sc.horizon)
    det.stop()
    env.run()
    views = {
        r: (v.last_heard, v.suspicion, sorted(v.suspected), sorted(v.dead),
            {p: _estimator(e) for p, e in v.intervals.items()},
            {p: _estimator(e) for p, e in v.rtt.items()})
        for r, v in det.views.items()
    }
    ranks = range(sc.nodes + 1)
    outcome = (
        det.log,
        [det.first_detection(r) for r in ranks],
        [det.admitted(r) for r in ranks],
        [det.first_slow(r) for r in ranks],
        det.ranks, views, cluster.faults and cluster.faults.log,
    )
    return outcome, env.events_processed


@settings(max_examples=40, deadline=None)
@given(scenarios())
def test_detector_matches_the_process_per_ping_reference(sc):
    """Same verdicts at the same virtual times, same seeded loss draws, same
    final views as one generator process per message, in no more events."""
    want, reference_events = _run_detector(ReferenceDetector, sc)
    got, events = _run_detector(FailureDetector, sc)
    assert got == want
    assert events <= reference_events
