"""Event-bus unit tests: topics, subscriptions, messages, determinism."""

import pytest

from repro.service.bus import EventBus
from repro.service.messages import (
    BusMessage,
    canonical_stream,
    job_topic,
    topic_matches,
)


class TestTopicMatching:
    def test_exact(self):
        assert topic_matches("queue", "queue")
        assert not topic_matches("queue", "queue.sub")
        assert not topic_matches("queue.sub", "queue")

    def test_single_segment_wildcard(self):
        assert topic_matches("job.*.lifecycle", "job.j00001.lifecycle")
        assert topic_matches("job.j00001.*", "job.j00001.probes")
        assert not topic_matches("job.*.lifecycle", "job.j00001.probes")
        # * is one segment, never two
        assert not topic_matches("job.*", "job.j00001.lifecycle")

    def test_tail_wildcard(self):
        assert topic_matches("job.#", "job.j00001.lifecycle")
        assert topic_matches("job.j00001.#", "job.j00001.probes")
        assert topic_matches("#", "anything.at.all")
        assert not topic_matches("scheduler.#", "job.j00001.lifecycle")

    def test_no_prefix_confusion(self):
        # j00001 must not match j000011 (dot segments, not string prefixes)
        assert not topic_matches("job.j00001.*", "job.j000011.lifecycle")

    def test_job_topic_helper(self):
        assert job_topic("j00007") == "job.j00007.lifecycle"
        assert job_topic("j00007", "probes") == "job.j00007.probes"


class TestBusMessage:
    def test_payload_sorted_and_typed(self):
        m = BusMessage.make(0, 0.5, "queue", "enqueued",
                            {"b": 2, "a": "x", "c": (1, 2)})
        assert [k for k, _ in m.payload] == ["a", "b", "c"]
        assert m.get("b") == 2
        assert m.get("missing", 42) == 42
        assert m.payload_dict == {"a": "x", "b": 2, "c": (1, 2)}

    def test_lists_become_tuples(self):
        m = BusMessage.make(0, 0.0, "t", "k", {"nodes": [1, 2, 3]})
        assert m.get("nodes") == (1, 2, 3)

    def test_non_primitive_payload_rejected(self):
        with pytest.raises(TypeError):
            BusMessage.make(0, 0.0, "t", "k", {"bad": object()})
        with pytest.raises(TypeError):
            BusMessage.make(0, 0.0, "t", "k", {"bad": {"nested": 1}})
        with pytest.raises(TypeError):
            BusMessage.make(0, 0.0, "t", "k", {"bad": (1, object())})

    def test_canonical_pins_floats(self):
        m = BusMessage.make(3, 0.1 + 0.2, "a.b", "k", {"x": 1.0 / 3.0})
        assert m.canonical() == f"3|{0.1 + 0.2!r}|a.b|k|x={1.0 / 3.0!r}"


class TestEventBus:
    def test_publish_stamps_monotonic_seq(self):
        bus = EventBus()
        msgs = [bus.publish("t", "k", time=float(i)) for i in range(5)]
        assert [m.seq for m in msgs] == [0, 1, 2, 3, 4]
        assert len(bus) == bus.published == 5

    def test_handler_subscription_is_synchronous(self):
        bus = EventBus()
        seen = []
        bus.subscribe("scheduler.#", handler=lambda m: seen.append(m.kind))
        bus.publish("scheduler.lease", "granted", job="j1")
        assert seen == ["granted"]

    def test_close_stops_delivery(self):
        bus = EventBus()
        seen = []
        sub = bus.subscribe("#", handler=lambda m: seen.append(m.topic))
        bus.publish("a", "k")
        sub.close()
        bus.publish("b", "k")
        assert seen == ["a"]

    def test_handler_may_close_during_delivery(self):
        # Closing inside a handler must not skip the next subscriber.
        bus = EventBus()
        seen = []
        first = bus.subscribe("#", handler=lambda m: first.close())
        bus.subscribe("#", handler=lambda m: seen.append(m.seq))
        bus.publish("a", "k")
        bus.publish("b", "k")
        assert seen == [0, 1]

    def test_history_for_and_counts_by_kind(self):
        bus = EventBus()
        bus.publish(job_topic("j1"), "submitted", job="j1")
        bus.publish(job_topic("j1", "probes"), "telemetry", job="j1")
        bus.publish("queue", "enqueued", job="j1")
        assert len(bus.history_for("job.j1.#")) == 2
        assert bus.counts_by_kind() == {
            "submitted": 1, "telemetry": 1, "enqueued": 1}

    def test_digest_is_replay_stable(self):
        def play(bus):
            bus.publish("queue", "enqueued", time=0.0, job="j1", nodes=2)
            bus.publish(job_topic("j1"), "started", time=0.25, job="j1")
            bus.publish(job_topic("j1"), "completed", time=1.0 / 3.0,
                        job="j1", makespan=0.0025)

        a, b = EventBus(), EventBus()
        play(a)
        play(b)
        assert a.digest() == b.digest()
        assert canonical_stream(a.history) == canonical_stream(b.history)

    def test_digest_sensitive_to_any_field(self):
        a, b = EventBus(), EventBus()
        a.publish("t", "k", time=0.0, x=1)
        b.publish("t", "k", time=0.0, x=2)
        assert a.digest() != b.digest()
