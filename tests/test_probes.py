"""ProbeEvent: a validated, immutable, tuple-backed record."""

import pytest

from repro.core.runtime import ProbeEvent, Trace
from repro.core.runtime.probes import PROBE_KINDS

FIELDS = dict(time=1.25e-05, kind="send", function="app/rowfft",
              function_id=3, thread=2, processor=5, iteration=1,
              detail="rowfft.out->colfft.in", nbytes=4096)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown probe kind 'teleport'"):
        ProbeEvent(0.0, "teleport", "f", 0, 0, 0, 0)
    for kind in PROBE_KINDS:
        assert ProbeEvent(0.0, kind, "f", 0, 0, 0, 0).kind == kind


def test_immutable():
    event = ProbeEvent(**FIELDS)
    with pytest.raises(AttributeError):
        event.time = 2.0
    with pytest.raises(AttributeError):
        event.colour = "red"  # no instance dict either


def test_positional_and_keyword_construction_agree():
    by_keyword = ProbeEvent(**FIELDS)
    by_position = ProbeEvent(*FIELDS.values())
    assert by_keyword == by_position
    assert hash(by_keyword) == hash(by_position)
    assert (by_position.detail, by_position.nbytes) == (FIELDS["detail"], 4096)
    defaults = ProbeEvent(0.0, "enter", "f", 0, 0, 0, 0)
    assert (defaults.detail, defaults.nbytes) == ("", 0)

    traces = [Trace(), Trace()]
    for trace, event in zip(traces, (by_keyword, by_position)):
        trace.record(event)
        trace.record(defaults)
    assert traces[0].canonical() == traces[1].canonical() == (
        "1.25e-05|send|app/rowfft|3|2|5|1|rowfft.out->colfft.in|4096\n"
        "0.0|enter|f|0|0|0|0||0"
    )
    assert traces[0].digest() == traces[1].digest()
