"""Bus records: the pinned stream of a seeded service run and the value
semantics of one message.

The service keeps every published message for its determinism digest, so
how a record is laid out in memory is free to change while the stream it
renders is not.  These tests pin the rendering (one digest over a run long
enough that key sets, topics and tuples repeat) and check every public
accessor of :class:`BusMessage` against a reference built from a plain dict.
"""

import gc
import pickle
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import EventBus, SageService, ServiceError
from repro.service.messages import BusMessage
from repro.service.soak import default_quotas, generate_workload

#: ``generate_workload(60, 7000)`` on an 8-node service seeded 20000316.
SEEDED_RUN_DIGEST = (
    "5b64d558b3c2d6e6df1917de970639d99c01e8b44cb861607c26727d1ea425f3"
)
SEEDED_RUN_MESSAGES = 378

#: Bytes the bus and message code still holds per message after the seeded
#: run.  A frozen dataclass with one ``(key, value)`` pair per field and a
#: fresh topic string per message held 499 B; slots, shared key tuples and
#: shared topics and flat tuples hold 213 B.
RETAINED_BYTES_PER_MESSAGE = 260


def play_seeded_run() -> SageService:
    svc = SageService(nodes=8, seed=20000316, quotas=default_quotas())
    for spec, at in generate_workload(60, 7000):
        try:
            svc.submit(spec, at=at)
        except ServiceError:  # typed and expected: over-quota tenants
            pass
    svc.run()
    return svc


def test_seeded_run_stream_is_pinned():
    svc = play_seeded_run()
    assert len(svc.bus) == SEEDED_RUN_MESSAGES
    assert svc.bus.digest() == SEEDED_RUN_DIGEST


def test_seeded_run_retains_few_bytes_per_message():
    gc.collect()
    tracemalloc.start()
    try:
        svc = play_seeded_run()
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    bus_code = snapshot.filter_traces([
        tracemalloc.Filter(True, "*/service/bus.py"),
        tracemalloc.Filter(True, "*/service/messages.py"),
    ])
    retained = sum(stat.size for stat in bus_code.statistics("filename"))
    per_message = retained / len(svc.bus)
    assert per_message <= RETAINED_BYTES_PER_MESSAGE, (
        f"{per_message:.0f} B retained per bus message")


# -- value semantics against a dict-built reference -------------------------

primitives = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2**40, max_value=2**40),
    st.floats(allow_nan=False),
    st.text(max_size=6),
)
values = st.one_of(
    primitives,
    st.tuples(primitives, primitives),
    st.lists(primitives, max_size=4).map(tuple),
    st.lists(st.integers(min_value=0, max_value=7), max_size=4),
)
keys = st.sampled_from(["job", "tenant", "nodes", "kinds", "x", "a_b", "z"])
payloads = st.dictionaries(keys, values, max_size=5)
topics = st.sampled_from(["queue", "scheduler.lease", "job.j00001.lifecycle",
                          "job.j00001.probes", "job.j00002.lifecycle"])


def frozen(value):
    return tuple(value) if isinstance(value, list) else value


def reference_canonical(seq, time, topic, kind, payload):
    fields = ",".join(f"{k}={frozen(v)!r}" for k, v in sorted(payload.items()))
    return f"{seq}|{time!r}|{topic}|{kind}|{fields}"


@given(
    records=st.lists(
        st.tuples(topics, st.sampled_from(["granted", "telemetry", "k"]),
                  st.floats(min_value=0.0, max_value=1e3), payloads),
        min_size=1, max_size=8,
    ),
)
@settings(max_examples=150, deadline=None)
def test_message_value_semantics(records):
    bus = EventBus()
    for seq, (topic, kind, time, payload) in enumerate(records):
        published = bus.publish(topic, kind, time=time, **payload)
        made = BusMessage.make(seq, time, topic, kind, payload)
        want = tuple(sorted((k, frozen(v)) for k, v in payload.items()))
        for m in (published, made):
            assert (m.seq, m.time, m.topic, m.kind) == (seq, time, topic, kind)
            assert m.payload == want
            assert m.payload_dict == dict(want)
            for k, v in want:
                assert m.get(k) == v
            assert m.get("absent") is None
            assert m.get("absent", 42) == 42
            assert m.canonical() == reference_canonical(
                seq, time, topic, kind, payload)
            clone = pickle.loads(pickle.dumps(m))
            assert clone == m and hash(clone) == hash(m)
            assert clone.canonical() == m.canonical()
            for name in ("seq", "topic", "payload", "other"):
                with pytest.raises(AttributeError):
                    setattr(m, name, 0)
        assert published == made and hash(published) == hash(made)
        later = BusMessage.make(seq + 1, time, topic, kind, payload)
        assert later != made
    # Every message keeps its own rendering once the bus has shared
    # strings and tuples between them.
    assert [m.canonical() for m in bus.history] == [
        reference_canonical(seq, time, topic, kind, payload)
        for seq, (topic, kind, time, payload) in enumerate(records)
    ]
