"""Instrumentation probes and the execution trace.

§1.1: *"The SAGE Visualizer is a configurable instrumentation package that
enables the designer to visualize the execution of the application through a
variety of graphical displays that are fed by probes placed within the
generated code."*

The run-time fires a :class:`ProbeEvent` at every probe point the glue code
declares (function enter/exit) plus message send/arrive events; the
:class:`Trace` is the feed the Visualizer consumes.
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Optional

__all__ = ["ProbeEvent", "Trace", "PROBE_KINDS"]

PROBE_KINDS = (
    "enter", "exit", "send", "arrive", "source", "sink",
    # Fault-tolerance events (visible in the visualizer/timeline): a fault
    # the machine layer injected, a retried transfer/kernel, an iteration
    # checkpoint, and a replay from the last good checkpoint.
    "fault_injected", "retry", "checkpoint", "restore",
    # Failure detection and shrinking recovery: the heartbeat detector
    # suspecting / declaring a node dead, the run-time dropping dead nodes
    # from the working set, and the re-striping that redistributes buffer
    # checkpoints onto the survivors.
    "suspect", "declare_dead", "shrink", "restripe",
    # Elastic membership (grow_restripe): a replacement/new node admitted by
    # the join handshake, the mapping restored onto the grown member set,
    # and the live migration that ships moved threads' checkpointed buffer
    # state to their restored owners.
    "join", "grow", "migrate",
    # Gray failures (migrate_stragglers): the detector suspecting a node of
    # limping (alive but slow), and the drain/restore migration that moves
    # a straggler's threads onto healthy nodes (and later back).
    "suspect_slow", "migrate_straggler",
)

#: O(1) membership for the per-event validation check (PROBE_KINDS stays a
#: tuple because its ordering is part of the public/display API).
_PROBE_KIND_SET = frozenset(PROBE_KINDS)


class _ProbeFields(NamedTuple):
    time: float
    kind: str          # one of PROBE_KINDS
    function: str      # function instance path
    function_id: int
    thread: int
    processor: int
    iteration: int
    detail: str = ""   # e.g. buffer name for send/arrive
    nbytes: int = 0


class ProbeEvent(_ProbeFields):
    """One instrumented occurrence on the virtual timeline.

    Tuple-backed: a run records one per probe point, so construction cost
    is part of every traced run's host time.
    """

    __slots__ = ()

    def __new__(cls, time, kind, function, function_id, thread, processor,
                iteration, detail="", nbytes=0):
        if kind not in _PROBE_KIND_SET:
            raise ValueError(f"unknown probe kind {kind!r}")
        return tuple.__new__(cls, (time, kind, function, function_id, thread,
                                   processor, iteration, detail, nbytes))


class Trace:
    """An append-only store of probe events with simple query helpers.

    ``job`` is the namespace tag a multi-job service stamps on each
    runtime's trace: probe telemetry re-published on the event bus carries
    it, so consumers can prove no event of one tenant's run ever appears
    under another's topic.  Standalone runs leave it empty.
    """

    def __init__(self, enabled: bool = True, job: str = ""):
        self.enabled = enabled
        self.job = job
        self.events: List[ProbeEvent] = []

    def record(self, event: ProbeEvent) -> None:
        if self.enabled:
            self.events.append(event)

    # -- queries -------------------------------------------------------------
    def by_kind(self, kind: str) -> List[ProbeEvent]:
        return [e for e in self.events if e.kind == kind]

    def by_function(self, function: str) -> List[ProbeEvent]:
        return [e for e in self.events if e.function == function]

    def by_processor(self, processor: int) -> List[ProbeEvent]:
        return [e for e in self.events if e.processor == processor]

    def by_iteration(self, iteration: int) -> List[ProbeEvent]:
        return [e for e in self.events if e.iteration == iteration]

    def spans(self, function: Optional[str] = None) -> List[tuple]:
        """(function, thread, iteration, t_enter, t_exit) busy spans."""
        starts = {}
        out = []
        for e in self.events:
            if function is not None and e.function != function:
                continue
            key = (e.function, e.thread, e.iteration)
            if e.kind == "enter":
                starts[key] = e.time
            elif e.kind == "exit" and key in starts:
                out.append((e.function, e.thread, e.iteration, starts.pop(key), e.time))
        return out

    @property
    def span(self) -> float:
        """Virtual-time extent of the whole trace."""
        if not self.events:
            return 0.0
        times = [e.time for e in self.events]
        return max(times) - min(times)

    def counts_by_kind(self) -> dict:
        """Event count per probe kind (only kinds that occurred)."""
        out: dict = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out

    # -- canonical form --------------------------------------------------
    def canonical(self) -> str:
        """Byte-exact rendering, one event per line.

        The field order and ``repr`` float rendering match the golden-trace
        harness (``tests/golden_traces.py``), so digests computed here are
        directly comparable across harnesses — the service's isolation
        invariant hinges on that: a job run through the scheduler must
        digest identically to the same spec run standalone.  The ``job``
        tag is deliberately excluded: it names where the trace was
        recorded, not what happened on the virtual timeline.
        """
        return "\n".join(
            "|".join((
                repr(e.time), e.kind, e.function, str(e.function_id),
                str(e.thread), str(e.processor), str(e.iteration),
                e.detail, str(e.nbytes),
            ))
            for e in self.events
        )

    def digest(self) -> str:
        """SHA-256 of :meth:`canonical` — the trace's identity."""
        import hashlib

        return hashlib.sha256(self.canonical().encode()).hexdigest()

    def __len__(self):
        return len(self.events)

    def __iter__(self) -> Iterable[ProbeEvent]:
        return iter(self.events)
