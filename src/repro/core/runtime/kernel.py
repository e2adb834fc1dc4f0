"""The SAGE run-time kernel: sequencing, striping, and buffer management.

§2: *"The SAGE run-time kernel is responsible for all sequencing of
functions, data striping, and buffer management."*

:class:`SageRuntime` loads a generated glue module onto a simulated cluster
and executes the application: each (function instance, thread, iteration)
walks its thread's step list (:mod:`~repro.core.runtime.threads`), sequenced
by dataflow dependencies expressed as message arrival events, with the
processor resources serialising co-mapped threads.
The run-time charges the overheads Table 1.0 measures — function-table
dispatch, logical-buffer staging copies, striping bookkeeping — per the
:class:`~repro.core.runtime.config.RuntimeConfig`.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ...machine.cluster import SimCluster
from ...machine.faults import FaultError, FaultPlan, NodeFailure
from ...machine.platforms import PlatformSpec
from ...machine.simulator import Environment, Event
from ...mpi.detector import FailureDetector, HeartbeatConfig
from ...perf.registry import REGISTRY
from ..codegen.generator import GlueModule
from ..model.hardware import HardwareModel
from ..model.mapping import Mapping, grow_mapping, shrink_mapping
from .buffers import (
    RuntimeBuffer,
    endpoint_footprint,
    moved_region_transfers,
    remote_traffic_tables,
    ring_mirrors,
)
from .config import DEFAULT_CONFIG, RuntimeConfig
from .kernels import KernelBinding, ThreadContext, default_bindings
from .policy import FAIL_FAST, FaultPolicy, TransportError
from .probes import ProbeEvent, Trace
from .threads import RuntimeError_, ThreadPlan, ThreadRun
from .transfer import Shipment, Transfer

__all__ = ["SageRuntime", "RunResult", "RuntimeError_"]

#: Faults the checkpoint_restart policy may replay through.  Genuine bugs
#: (KernelError, RuntimeError_, MemoryError, ...) always propagate.
RECOVERABLE_FAULTS = (FaultError, TransportError)


@dataclass
class RunResult:
    """Outcome of a run: the §3.3 measurement quantities plus artefacts.

    ``latency[k]`` is the time from iteration *k*'s data leaving the source
    to its result reaching the sink; ``period`` is the steady-state time
    between consecutive results at the sink.
    """

    iterations: int
    source_times: List[float]
    sink_times: List[float]
    sink_results: List[Any]
    makespan: float
    trace: Trace = field(repr=False, default_factory=Trace)

    @property
    def latencies(self) -> List[float]:
        return [s - t for t, s in zip(self.source_times, self.sink_times)]

    @property
    def mean_latency(self) -> float:
        lats = self.latencies
        return sum(lats) / len(lats) if lats else 0.0

    @property
    def period(self) -> float:
        if len(self.sink_times) < 2:
            return self.mean_latency
        return (self.sink_times[-1] - self.sink_times[0]) / (len(self.sink_times) - 1)

    def full_result(self, iteration: int = 0):
        """Stitch a (possibly distributed) sink's pieces into one array.

        Returns None for timing-only runs (phantom data).
        """
        import numpy as np

        from .phantom import PhantomArray

        pieces = self.sink_results[iteration]
        if pieces is None:
            return None
        pieces = list(pieces)
        if not pieces:
            return None
        if any(isinstance(d, PhantomArray) for _, d in pieces):
            return None
        from .striping import region_indexer

        rank = len(pieces[0][0])
        shape = tuple(
            max(region[axis].stop for region, _ in pieces) for axis in range(rank)
        )
        out = np.zeros(shape, dtype=np.asarray(pieces[0][1]).dtype)
        for region, data in pieces:
            out[region_indexer(region)] = data
        return out


class SageRuntime:
    """Executes one glue module on one simulated cluster; :meth:`build`
    loads the glue onto a fresh one, the one way a design is run."""

    def __init__(
        self,
        glue: GlueModule,
        cluster: SimCluster,
        config: RuntimeConfig = DEFAULT_CONFIG,
        bindings: Optional[Dict[str, KernelBinding]] = None,
        trace: Optional[Trace] = None,
        fault_policy: Optional[FaultPolicy] = None,
        job_scope: Optional[str] = None,
    ):
        if glue.num_processors > len(cluster):
            raise RuntimeError_(
                f"glue expects {glue.num_processors} processors, cluster has {len(cluster)}"
            )
        self.glue = glue
        self.cluster = cluster
        self.env: Environment = cluster.env
        # The glue's own buffer policy may upgrade the config (§4 optimised glue).
        if glue.optimize_buffers and config.stage_dma_sources:
            config = config.optimized()
        self.config = config
        self.bindings = dict(default_bindings())
        if bindings:
            self.bindings.update(bindings)
        self.trace = trace if trace is not None else Trace(job=job_scope or "")
        self.fault_policy = policy = fault_policy if fault_policy is not None else FAIL_FAST
        #: Retry rule of every message shipped (attempts, backoff, factor).
        self._retry_rule = (1 + (policy.max_retries if policy.retries_transfers else 0),
                            policy.backoff, policy.backoff_factor)
        # Unfinished message transfers, in spawn order (a dict as an ordered
        # set): what recovery has to cancel.
        self._in_flight: Dict[Transfer, None] = {}
        # Shrinking recovery state: placement overrides installed after a
        # permanent node loss (consulted by processor_of), the processors
        # still in the working set, and the heartbeat detector race event.
        self._proc_override: Dict[Tuple[int, int], int] = {}
        self._active_processors = set(glue.thread_map.values())
        self.detector: Optional[FailureDetector] = None
        self._detect_event: Optional[Event] = None
        self._suspect_probed: set = set()
        self._dead_probed: set = set()
        # Elastic membership state: processors permanently lost to shrinks
        # (in loss order) and replacement capacity announced by NodeJoin
        # events, absorbed at the next iteration boundary by grow_restripe.
        self._lost_processors: List[int] = []
        self._pending_joins: List[int] = []
        # Gray-failure state (migrate_stragglers): per-iteration per-node
        # busy-time telemetry, consecutive-slow strike counts, the drained
        # set (nodes keeping their rank but holding zero threads), and the
        # per-node probation progress toward earning threads back.
        self._iter_busy: Dict[int, Dict[int, float]] = {}
        self._straggler_strikes: Dict[int, int] = {}
        self._drained: set = set()
        self._drain_probation: Dict[int, int] = {}
        self._drain_relapse: Dict[int, int] = {}
        self._slow_probed: set = set()
        # Seeded stream for backoff jitter (desynchronised retries): derived
        # from the fault plan's seed, drawn in simulation event order, and
        # never consulted while backoff_jitter is 0.
        plan_seed = (
            cluster.faults.plan.seed if cluster.faults is not None else 0
        )
        self._backoff_rng = _random.Random(plan_seed ^ 0xB0FF)
        if cluster.faults is not None:
            # Mirror every injected fault into the trace so recovery is
            # visible next to the enter/exit/send spans on the timeline.
            cluster.faults.subscribe(self._on_fault_injected)

        self.functions: Dict[int, dict] = {e["id"]: e for e in glue.function_table}
        for entry in glue.function_table:
            if entry["kernel"] not in self.bindings:
                raise RuntimeError_(
                    f"function {entry['name']!r}: no binding for kernel "
                    f"{entry['kernel']!r}; have {sorted(self.bindings)}"
                )

        self.buffers: List[RuntimeBuffer] = [
            RuntimeBuffer(spec, execute_data=config.execute_data)
            for spec in glue.logical_buffers
        ]
        self.in_buffers: Dict[int, List[RuntimeBuffer]] = {f: [] for f in self.functions}
        self.out_buffers: Dict[int, List[RuntimeBuffer]] = {f: [] for f in self.functions}
        for buf in self.buffers:
            self.out_buffers[buf.src_function].append(buf)
            self.in_buffers[buf.dst_function].append(buf)

        # Message arrival events: (buffer_id, iteration, dst_thread) -> [Event]
        self._arrivals: Dict[Tuple[int, int, int], List[Event]] = {}
        # Every thread's plan, in execution order (built on first use).
        self._plans: Optional[List[ThreadPlan]] = None
        # (function_id, thread) -> cached region/dtype dicts for ThreadContext
        # (iteration-independent; kernels treat them as read-only).
        self._ctx_dicts: Dict[Tuple[int, int], tuple] = {}
        self._thread_done: Dict[Tuple[int, int, int], Event] = {}
        self._source_times: Dict[int, float] = {}
        self._sink_times: Dict[int, float] = {}
        self._sink_results: Dict[int, Any] = {}
        self._iter_complete: Dict[int, Event] = {}
        self._iter_sinks_left: Dict[int, int] = {}

        self._identify_endpoints()
        if config.enforce_memory:
            self._check_memory_footprint()

        # Per-(buffer, thread) remote traffic (bytes crossing processors),
        # used by the "remote" staging policies.  Re-derived the same way
        # by _replace after a shrink, grow, drain or restore.
        self._buf_send_remote, self._buf_recv_remote = remote_traffic_tables(
            self.buffers, self.processor_of
        )

    @classmethod
    def build(
        cls,
        glue: GlueModule,
        machine: Union[PlatformSpec, HardwareModel],
        *,
        fault_plan: Optional[FaultPlan] = None,
        fault_policy: Optional[FaultPolicy] = None,
        config: RuntimeConfig = DEFAULT_CONFIG,
        job_scope: Optional[str] = None,
    ) -> "SageRuntime":
        """Load ``glue`` onto a fresh engine and cluster of ``machine`` — a
        platform (``glue.num_processors`` nodes of it) or a hardware model —
        with ``fault_plan``'s faults injected; ``job_scope`` (a service job
        id) tags the trace.  Returned unrun, so ``env``
        (engine stats), ``cluster`` and ``trace`` outlive a run that raises."""
        env = Environment()
        if isinstance(machine, PlatformSpec):
            cluster = SimCluster.from_platform(
                env, machine, glue.num_processors, fault_plan=fault_plan)
        else:
            cluster = machine.build_cluster(env, fault_plan=fault_plan)
        return cls(glue, cluster, config=config, fault_policy=fault_policy,
                   job_scope=job_scope)

    # -- setup helpers ---------------------------------------------------------
    def _identify_endpoints(self) -> None:
        sources = [f for f, bufs in self.in_buffers.items() if not bufs]
        sinks = [f for f, bufs in self.out_buffers.items() if not bufs]
        if not sources or not sinks:
            raise RuntimeError_("application needs at least one source and one sink")
        self.source_ids = sources
        self.sink_ids = sinks

    def processor_of(self, function_id: int, thread: int) -> int:
        override = self._proc_override.get((function_id, thread))
        if override is not None:
            return override
        return self.glue.processor_of(function_id, thread)

    def memory_footprint(self) -> Dict[int, int]:
        """Per-processor physical-buffer bytes at the current placement:
        :func:`~repro.core.runtime.buffers.endpoint_footprint`, with an
        explicit 0 for every node holding no endpoint region."""
        footprint: Dict[int, int] = {node.index: 0 for node in self.cluster.nodes}
        footprint.update(endpoint_footprint(self.buffers, self.processor_of))
        return footprint

    def _check_memory_footprint(self) -> None:
        for proc, nbytes in self.memory_footprint().items():
            limit = self.cluster.node(proc).spec.memory_bytes
            if nbytes > limit:
                raise MemoryError(
                    f"processor {proc}: physical buffers need {nbytes} bytes "
                    f"but the node has {limit} bytes DRAM; use more nodes or "
                    f"smaller data sets (or disable enforce_memory)"
                )

    def _arrival_events(self, buf: RuntimeBuffer, iteration: int, dst_thread: int) -> List[Event]:
        key = (buf.buffer_id, iteration, dst_thread)
        events = self._arrivals.get(key)
        if events is None:
            events = [self.env.event() for _ in buf.messages_to(dst_thread)]
            self._arrivals[key] = events
        return events

    # -- execution ---------------------------------------------------------------
    def run(
        self,
        iterations: int = 1,
        input_provider: Optional[Callable[[int], Any]] = None,
        source_interval: float = 0.0,
    ) -> RunResult:
        """Execute ``iterations`` data sets through the application.

        ``input_provider(k)`` supplies the k-th input data set (required when
        the config executes real data).  ``source_interval`` throttles the
        source to one data set per interval (0 = as fast as dataflow allows).
        """
        if iterations < 1:
            raise RuntimeError_("iterations must be >= 1")
        if self.config.execute_data and input_provider is None:
            raise RuntimeError_("execute_data=True requires an input_provider")
        self._input_provider = input_provider
        self._source_interval = source_interval

        self._start_detector()
        try:
            if self.fault_policy.checkpoints:
                return self._run_checkpointed(iterations)

            runs = []
            for k in range(iterations):
                runs.extend(self._spawn_iteration(k))
            self.env.run(until=self.env.all_of([run.done for run in runs]))
            return self._build_result(iterations)
        finally:
            self._stop_detector()

    def _spawn_iteration(self, k: int) -> List[ThreadRun]:
        """Create iteration ``k``'s bookkeeping events and thread runs."""
        sink_thread_count = sum(self.functions[f]["threads"] for f in self.sink_ids)
        self._iter_complete[k] = Event(self.env)
        self._iter_sinks_left[k] = sink_thread_count
        plans = self._plans
        if plans is None:
            plans = self._plans = [
                ThreadPlan(self, fid, t)
                for fid in self.glue.execution_order
                for t in range(self.functions[fid]["threads"])
            ]
        for plan in plans:
            self._thread_done[(plan.fid, plan.thread, k)] = Event(self.env)
        return [ThreadRun(self, plan, k) for plan in plans]

    def _build_result(self, iterations: int) -> RunResult:
        return RunResult(
            iterations=iterations,
            source_times=[self._source_times[k] for k in range(iterations)],
            sink_times=[self._sink_times[k] for k in range(iterations)],
            sink_results=[self._sink_results.get(k) for k in range(iterations)],
            makespan=self.env.now,
            trace=self.trace,
        )

    # -- checkpoint / restart ---------------------------------------------------
    def _run_checkpointed(self, iterations: int) -> RunResult:
        """Sequential execution with per-iteration checkpoints and replay.

        Virtual time never rewinds: a replayed iteration re-executes *after*
        the fault, so recovery overhead shows up in the makespan and in the
        latency of the affected iteration (source admission keeps its
        first-attempt timestamp).
        """
        policy = self.fault_policy
        restarts_left = policy.max_restarts
        for k in range(iterations):
            while True:
                # Iteration boundary: the quiesce point where announced
                # replacement capacity is admitted and migrated onto
                # (grow_restripe), drained stragglers earn threads back,
                # and fresh stragglers are drained (migrate_stragglers).
                # Also reached on replay, so a join that lands mid-iteration
                # is absorbed before the retry.
                self._maybe_grow(k)
                self._maybe_restore_stragglers(k)
                self._maybe_migrate_stragglers(k)
                snapshot = [buf.snapshot() for buf in self.buffers]
                self._probe_runtime("checkpoint", detail=f"iteration {k}",
                                    iteration=k)
                runs = self._spawn_iteration(k)
                try:
                    self._run_iteration(runs)
                    break
                except RECOVERABLE_FAULTS as exc:
                    if restarts_left <= 0:
                        raise
                    restarts_left -= 1
                    self._recover(k, snapshot, exc, runs)
        return self._build_result(iterations)

    def _run_iteration(self, runs: List[ThreadRun]) -> None:
        """Run one iteration attempt, racing it against failure detection.

        Without a detector this is a plain run-until-done.  With one, a
        ``declare_dead`` verdict interrupts the attempt as a
        :class:`~repro.machine.faults.NodeFailure` so recovery starts at the
        detection time instead of whenever the dataflow happens to touch the
        dead node (which, for a node others are merely *waiting on*, may be
        never).
        """
        done = self.env.all_of([run.done for run in runs])
        detect = self._detect_event
        if detect is None:
            self.env.run(until=done)
            return
        race = self.env.any_of([done, detect])
        self.env.run(until=race)
        index, value = race.value
        if index == 1:
            node, declared_at = value
            raise NodeFailure(node, declared_at, self.env.now)

    # -- failure detection -----------------------------------------------------
    def _start_detector(self) -> None:
        """Launch the heartbeat detector when the policy shrinks on loss."""
        if (not self.fault_policy.shrinks or self.detector is not None
                or len(self._active_processors) < 2):
            return
        policy = self.fault_policy
        config = HeartbeatConfig(
            period=policy.heartbeat_period,
            # Gray-failure detection: adaptive grace windows learned from
            # observed heartbeat inter-arrivals plus an RTT probe stream
            # feeding the suspected_slow state (see docs/DETECTION.md).
            adaptive=policy.adaptive_detection,
            rtt_probe_every=(
                policy.rtt_probe_every if policy.adaptive_detection else 0
            ),
        )
        self.detector = FailureDetector(
            self.cluster, config, ranks=sorted(self._active_processors)
        )
        self.detector.subscribe(self._on_detector_event)
        self.detector.start()
        self._detect_event = self.env.event()

    def _stop_detector(self) -> None:
        if self.detector is not None:
            self.detector.stop()
            self.detector = None
            self._detect_event = None

    def _on_detector_event(self, time: float, kind: str, observer: int,
                           target: int, detail: str) -> None:
        """Mirror detector verdicts into the trace and fire the race event.

        Every observer forms its own opinion; the trace records only the
        first suspicion / declaration per target (the cluster-wide verdict)
        to keep the timeline legible.
        """
        if kind == "clear_suspect":
            self._suspect_probed.discard(target)
            return
        if kind == "clear_slow":
            self._slow_probed.discard(target)
            return
        if kind == "suspect_slow":
            if target not in self._slow_probed:
                self._slow_probed.add(target)
                self._probe_runtime(
                    "suspect_slow",
                    detail=f"node {target} by observer {observer}: {detail}",
                    processor=target,
                )
            return
        if kind == "suspect":
            if target not in self._suspect_probed:
                self._suspect_probed.add(target)
                self._probe_runtime(
                    "suspect",
                    detail=f"node {target} by observer {observer}: {detail}",
                    processor=target,
                )
            return
        if kind != "declare_dead":
            return
        if target not in self._dead_probed:
            self._dead_probed.add(target)
            self._probe_runtime(
                "declare_dead",
                detail=f"node {target} by observer {observer}: {detail}",
                processor=target,
            )
        if target in self._active_processors:
            ev = self._detect_event
            if ev is not None and not ev.triggered:
                ev.succeed((target, time))

    def _recover(self, k: int, snapshot: List[dict], exc: BaseException,
                 runs: List[ThreadRun]) -> None:
        """Roll iteration ``k`` back to its checkpoint after a fault."""
        # Kill every straggler of the failed attempt (its thread runs, then
        # its transfers in spawn order) before state is reset; they die at
        # the current instant, releasing any held resources.
        for run in runs:
            if not run.done.triggered:
                run.cancel()
        for transfer in list(self._in_flight):
            transfer.cancel()
        injector = self.cluster.faults
        revived: List[int] = []
        if injector is not None:
            revived = injector.revive_all()
            still_dead = injector.dead_nodes
            if still_dead:
                if not self.fault_policy.shrinks:
                    raise RuntimeError_(
                        f"cannot recover iteration {k}: node(s) {still_dead} "
                        f"failed permanently"
                    ) from exc
                lost = sorted(set(still_dead) & self._active_processors)
                if lost:
                    self._shrink_restripe(lost, k, exc)
        if self.detector is not None:
            for node in revived:
                self.detector.clear(node)
                self._suspect_probed.discard(node)
                self._dead_probed.discard(node)
            # A declaration recovery did not act on — the node is alive per
            # ground truth and stays in membership — is a false positive
            # (e.g. a total link outage suppressed its heartbeats).  Clear
            # it so the detector re-earns the verdict over a fresh grace
            # window; replaying the stale declaration would re-fire at the
            # same instant and burn the restart budget in zero time.
            still_down = set(injector.dead_nodes) if injector is not None else set()
            for node in sorted(self.detector.declared_dead()):
                if node in self._active_processors and node not in still_down:
                    self.detector.clear(node)
                    self._suspect_probed.discard(node)
                    self._dead_probed.discard(node)
            # Re-arm the detection race; a death declared while this
            # recovery was in progress must not be lost to the fresh event.
            self._detect_event = self.env.event()
            pending = sorted(
                n for n in self.detector.declared_dead()
                if n in self._active_processors
            )
            if pending:
                declared_at, _observer = self.detector.first_detection(pending[0])
                self._detect_event.succeed((pending[0], declared_at))
        for buf, snap in zip(self.buffers, snapshot):
            buf.restore(snap)
        # Discard the failed attempt's partial outputs and bookkeeping
        # (including the attempt's partial straggler telemetry, which would
        # otherwise double-count on the replay).
        self._iter_busy.pop(k, None)
        self._sink_results.pop(k, None)
        self._sink_times.pop(k, None)
        self._arrivals = {
            key: events for key, events in self._arrivals.items() if key[1] != k
        }
        self._probe_runtime(
            "restore",
            detail=f"iteration {k} after {type(exc).__name__}: {exc}",
            iteration=k,
        )

    # -- shrinking recovery ------------------------------------------------------
    def _shrink_restripe(self, dead: List[int], k: int, exc: BaseException) -> None:
        """Drop permanently lost nodes and re-stripe onto the survivors.

        Waits for the failure detector to actually *declare* each lost node
        (recovery reacts to detection, not to the injector's ground truth,
        so detection latency lands on the timeline), then deals the dead
        nodes' threads onto the survivors
        (:func:`~repro.core.model.mapping.shrink_mapping`) through
        :meth:`_replace`.  A dead owner's checkpoint is read from its ring
        mirror (:func:`~repro.core.runtime.buffers.ring_mirrors`), so the
        refill is a fabric transfer whose cost lands in the makespan.
        """
        if self.detector is None:
            raise RuntimeError_(
                f"cannot shrink for iteration {k}: node(s) {sorted(dead)} "
                f"failed permanently but no failure detector is running"
            ) from exc
        injector = self.cluster.faults
        for node in sorted(dead):
            # A replacement that powers on inside the detection window keeps
            # the slot heartbeating, so no declaration ever comes: the join
            # itself then ends the wait (the slot is re-absorbed through
            # _maybe_grow like any other joiner).
            declared = self.detector.death_event(node)
            while not declared.processed and not injector.alive(node):
                self.env.step()
        survivors = sorted(self._active_processors - set(dead))
        if not survivors:
            raise RuntimeError_(
                f"cannot shrink for iteration {k}: no surviving processors"
            ) from exc
        # Orphaned threads should land on *healthy* survivors: a drained
        # straggler keeps its rank but must not absorb a dead node's work.
        # (If every survivor is drained, fall back to the full set.)
        targets = [p for p in survivors if p not in self._drained] or survivors
        mirrors = ring_mirrors(self._active_processors, set(survivors))
        for node in dead:
            self._drained.discard(node)
            self._drain_probation.pop(node, None)
            self._drain_relapse.pop(node, None)
            self._straggler_strikes.pop(node, None)
        self._active_processors = set(survivors)
        self._lost_processors = sorted(set(self._lost_processors) | set(dead))
        _, regions, total, _ = self._replace(
            k, lambda current, _: shrink_mapping(current, targets),
            announce=lambda moved: self._probe_runtime("shrink", detail=(
                f"dropped node(s) {sorted(dead)}; {len(survivors)} "
                f"survivor(s), {moved} thread(s) remapped"), iteration=k),
            mirrors=mirrors,
        )
        self._probe_runtime(
            "restripe",
            detail=(
                f"{regions} region(s) redistributed onto "
                f"{len(survivors)} survivor(s)"
            ),
            iteration=k,
            nbytes=total,
        )

    # -- re-placement ------------------------------------------------------------
    def _replace(
        self,
        k: int,
        remap: Callable[[Mapping, Mapping], Mapping],
        announce: Callable[[int], None] = lambda moved: None,
        mirrors: Optional[Dict[int, int]] = None,
        since: Optional[float] = None,
    ) -> Tuple[int, int, int, float]:
        """Move the threads to ``remap(current, original)`` at iteration
        ``k``'s boundary: the one re-placement step of shrink, grow, drain
        and restore.

        Installs the new placement (``processor_of`` answers from it, with
        overrides only where it departs from the glue, and the thread plans
        are dropped), calls ``announce(threads moved)``, derives the staging
        tables from it the way construction does, re-checks
        ``enforce_memory``, and ships every moved region (see
        :func:`~repro.core.runtime.buffers.moved_region_transfers`; a lost
        owner's state comes from its entry in ``mirrors``) as one
        :class:`Shipment`, so the cost lands in the makespan.  Returns
        ``(threads moved, regions moved, bytes, pause)``, the pause measured
        from ``since`` (default: now).
        """
        since = self.env.now if since is None else since
        old_proc, current, original = self._placement()
        new_map = remap(current, original)
        self._plans = None
        moved = 0
        for key, p in new_map.items():
            moved += p != old_proc[key]
            if p == self.glue.processor_of(*key):
                self._proc_override.pop(key, None)
            else:
                self._proc_override[key] = p
        announce(moved)
        self._buf_send_remote, self._buf_recv_remote = remote_traffic_tables(
            self.buffers, self.processor_of
        )
        if self.config.enforce_memory:
            self._check_memory_footprint()
        transfers = moved_region_transfers(
            self.buffers, lambda f, t: old_proc[(f, t)], new_map.processor_of,
            mirrors,
        )
        shipments = [
            Shipment(self, src, dst, nbytes, k, label)
            for src, dst, nbytes, label in transfers
            if src != dst and nbytes > 0
        ]
        if shipments:
            self.env.run(until=self.env.all_of(s.done for s in shipments))
        return (moved, len(transfers), sum(t[2] for t in transfers),
                self.env.now - since)

    def _placement(self) -> Tuple[Dict[Tuple[int, int], int], Mapping, Mapping]:
        """Where every thread runs now, as a lookup table and as a Mapping,
        and the Mapping the glue first gave it."""
        now: Dict[Tuple[int, int], int] = {}
        current, original = Mapping(), Mapping()
        for fid, entry in sorted(self.functions.items()):
            for t in range(entry["threads"]):
                p = self.processor_of(fid, t)
                now[(fid, t)] = p
                current.assign(fid, t, p)
                original.assign(fid, t, self.glue.processor_of(fid, t))
        return now, current, original

    def _jittered(self, delay: float) -> float:
        """Scale a backoff sleep by the policy's seeded jitter.

        With ``backoff_jitter`` j > 0 the delay is multiplied by a uniform
        draw from [1-j, 1+j], desynchronising ranks that would otherwise
        retry a burned link in lock-step.  j == 0 draws nothing, so legacy
        runs stay byte-identical.
        """
        j = self.fault_policy.backoff_jitter
        if j and delay > 0:
            delay *= 1.0 + j * (2.0 * self._backoff_rng.random() - 1.0)
        return delay

    # -- elastic membership (grow_restripe) --------------------------------------
    def _maybe_grow(self, k: int) -> None:
        """Absorb announced replacement capacity at an iteration boundary.

        Only the ``grow_restripe`` policy re-grows, and only once capacity
        has actually been lost — a join announced while the striping is
        still at full width stays pending until it can replace something.
        Each joiner runs the detector's admission handshake (``join``
        probe); the admitted set is then migrated onto in one quiesced
        :meth:`_grow_migrate` step so a multi-node re-grow pays a single
        re-striping pause.
        """
        if (not self.fault_policy.regrows or not self._pending_joins
                or self.detector is None or not self._lost_processors):
            return
        quiesce_at = self.env.now
        joiners = sorted(set(self._pending_joins))
        self._pending_joins = []
        cfg = self.detector.config
        admitted: List[int] = []
        for j in joiners:
            ev = self.detector.request_join(j)
            # The handshake retries every detection window; cap the wait so
            # an unreachable joiner cannot stall the application (it simply
            # isn't absorbed and the run continues degraded).
            deadline = self.env.timeout(cfg.window * 9)
            self.env.run(until=self.env.any_of([ev, deadline]))
            if self.detector.admitted(j) is None:
                continue
            admitted.append(j)
            self._suspect_probed.discard(j)
            self._dead_probed.discard(j)
            latency = self.detector.join_latency(j)
            self._probe_runtime(
                "join",
                detail=f"node {j} admitted in {latency:.6f}s",
                processor=j,
                iteration=k,
            )
        if admitted:
            self._grow_migrate(admitted, k, quiesce_at)

    def _grow_migrate(self, joiners: List[int], k: int,
                      quiesce_at: float) -> None:
        """Live migration onto re-admitted capacity (zero-restart re-grow).

        Restores the original placement for every processor a joiner
        replaces (same-id joiners restore their own slot; fresh ids stand in
        for lost processors in sorted order) through :meth:`_replace`, which
        ships the moved regions' checkpointed state from their live current
        owners over the fabric.  The virtual-time cost of the whole boundary
        stall is recorded as ``runtime.migration_pause_s``.
        """
        lost = sorted(self._lost_processors)
        replacements: Dict[int, int] = {}
        fresh: List[int] = []
        for j in joiners:
            if j in lost:
                replacements[j] = j       # same slot restored
            else:
                fresh.append(j)
        unreplaced = [p for p in lost if p not in replacements]
        for p, j in zip(unreplaced, sorted(fresh)):
            replacements[p] = j
        if not replacements:
            return

        self._active_processors |= set(replacements.values())
        self._lost_processors = [p for p in lost if p not in replacements]
        # Moved regions travel from their live current owner (a survivor) to
        # the restored owner — unlike shrinking recovery, no ring mirror is
        # needed because the old owner is alive.
        _, regions, total, pause = self._replace(
            k, lambda current, original: grow_mapping(
                current, original, replacements),
            announce=lambda moved: self._probe_runtime("grow", detail=(
                f"absorbed node(s) {sorted(set(replacements.values()))}; "
                f"{len(self._active_processors)} active processor(s), "
                f"{moved} thread(s) restored"), iteration=k),
            since=quiesce_at,
        )
        REGISTRY.record("runtime.migration_pause_s", pause)
        self._probe_runtime(
            "migrate",
            detail=(
                f"{regions} region(s) migrated back in "
                f"{pause:.6f}s pause"
            ),
            iteration=k,
            nbytes=total,
        )

    # -- gray failures (migrate_stragglers) ---------------------------------------
    def _maybe_migrate_stragglers(self, k: int) -> None:
        """Score the previous iteration's progress and drain stragglers.

        A node whose per-iteration busy time exceeded ``straggler_factor ×``
        the median across thread-holding nodes earns a strike; after
        ``straggler_patience`` consecutive strikes it is drained at this
        boundary.  The score is pure progress telemetry — no access to the
        injector's ground truth — so a limping node is indistinguishable
        from a genuinely overloaded one, exactly as in a real deployment.
        """
        policy = self.fault_policy
        if not policy.migrates_stragglers or k == 0:
            return
        busy = self._iter_busy.pop(k - 1, None)
        if not busy:
            return
        scores = {
            p: t for p, t in busy.items()
            if p in self._active_processors and p not in self._drained
        }
        if len(scores) < 2:
            return
        ordered = sorted(scores.values())
        mid = len(ordered) // 2
        median = (
            ordered[mid] if len(ordered) % 2
            else 0.5 * (ordered[mid - 1] + ordered[mid])
        )
        if median <= 0:
            return
        for p in sorted(scores):
            if scores[p] > policy.straggler_factor * median:
                self._straggler_strikes[p] = (
                    self._straggler_strikes.get(p, 0) + 1
                )
            else:
                self._straggler_strikes.pop(p, None)
        stragglers = [
            p for p in sorted(scores)
            if self._straggler_strikes.get(p, 0) >= policy.straggler_patience
        ]
        if not stragglers:
            return
        healthy = sorted(
            self._active_processors - self._drained - set(stragglers)
        )
        if not healthy:
            return  # never drain the last thread-holding capacity
        self._drain_stragglers(stragglers, healthy, k)

    def _drain_stragglers(self, stragglers: List[int], healthy: List[int],
                          k: int) -> None:
        """Quiesced drain: move a limping node's threads to healthy nodes.

        Unlike a shrink, the node is alive — just slow — so it keeps its
        rank and detector membership, its checkpointed regions ship from
        the node itself (the live owner; no ring mirror), and it holds
        zero threads afterwards until probation restores it.
        """
        for p in stragglers:
            self._drained.add(p)
            self._drain_probation[p] = 0
            # A re-drain after a restore is a relapse: each one doubles the
            # probation the node must serve, so a persistently limping node
            # cannot oscillate drain/restore indefinitely.
            self._drain_relapse[p] = self._drain_relapse.get(p, -1) + 1
            self._straggler_strikes.pop(p, None)
        moved, _, total, pause = self._replace(
            k, lambda current, _: shrink_mapping(current, healthy, balanced=True))
        REGISTRY.record("runtime.straggler_pause_s", pause)
        self._probe_runtime(
            "migrate_straggler",
            detail=(
                f"drained node(s) {sorted(stragglers)}; {moved} "
                f"thread(s) moved to {len(healthy)} healthy node(s) in "
                f"{pause:.6f}s pause"
            ),
            iteration=k,
            nbytes=total,
        )

    def _maybe_restore_stragglers(self, k: int) -> None:
        """Earn-back: restore a drained node once its slow state clears.

        The detector's ``suspect_slow`` opinion must stay clear for
        ``straggler_probation`` consecutive iteration boundaries; any
        relapse resets the probation clock.  A drained node that died in
        the meantime is handed off to the shrink bookkeeping instead.
        """
        policy = self.fault_policy
        if not policy.migrates_stragglers or not self._drained:
            return
        ready: List[int] = []
        for p in sorted(self._drained):
            if p not in self._active_processors:
                self._drained.discard(p)
                self._drain_probation.pop(p, None)
                continue
            if self.detector is not None and self.detector.suspected_slow(p):
                self._drain_probation[p] = 0
                continue
            self._drain_probation[p] = self._drain_probation.get(p, 0) + 1
            required = policy.straggler_probation * (
                2 ** min(self._drain_relapse.get(p, 0), 4)
            )
            if self._drain_probation[p] >= required:
                ready.append(p)
        if ready:
            self._restore_stragglers(ready, k)

    def _restore_stragglers(self, nodes: List[int], k: int) -> None:
        """Give a recovered node its original threads back (live migration).

        Reuses the grow engine with each node replacing itself: threads
        whose original home is a restored node migrate back (with their
        checkpointed regions, from the live current owners); everything
        else keeps its current placement, so restores compose with any
        concurrent degraded-mode state.
        """
        for p in nodes:
            self._drained.discard(p)
            self._drain_probation.pop(p, None)
        moved, _, total, pause = self._replace(
            k, lambda current, original: grow_mapping(
                current, original, {p: p for p in nodes}))
        REGISTRY.record("runtime.straggler_pause_s", pause)
        self._probe_runtime(
            "migrate_straggler",
            detail=(
                f"restored node(s) {sorted(nodes)}; {moved} "
                f"thread(s) earned back in {pause:.6f}s pause"
            ),
            iteration=k,
            nbytes=total,
        )

    def _staged_bytes(self, buf: RuntimeBuffer, thread: int, policy: str, receive: bool) -> int:
        """Bytes charged to the staging copy under the given policy."""
        if policy == "none":
            return 0
        if policy == "all":
            return (
                buf.dst_region_bytes(thread) if receive else buf.src_region_bytes(thread)
            )
        table = self._buf_recv_remote if receive else self._buf_send_remote
        return table.get((buf.buffer_id, thread), 0)

    # -- helpers ---------------------------------------------------------------
    def _make_ctx(self, entry: dict, thread: int, iteration: int) -> ThreadContext:
        fid = entry["id"]
        dicts = self._ctx_dicts.get((fid, thread))
        if dicts is None:
            outs = self.out_buffers[fid]
            dicts = (
                {buf.dst_port: buf.dst_region(thread) for buf in self.in_buffers[fid]},
                {buf.src_port: buf.src_region(thread) for buf in outs},
                {buf.src_port: buf.dtype for buf in outs},
                {buf.src_port: buf.src_shape(thread) for buf in outs},
            )
            self._ctx_dicts[(fid, thread)] = dicts
        in_regions, out_regions, out_dtypes, out_shapes = dicts
        return ThreadContext(
            function_id=fid,
            name=entry["name"],
            kernel=entry["kernel"],
            thread=thread,
            threads=entry["threads"],
            iteration=iteration,
            params=entry["params"],
            in_regions=in_regions,
            out_regions=out_regions,
            out_dtypes=out_dtypes,
            out_shapes=out_shapes,
            execute_data=self.config.execute_data,
            fetch_input=self._fetch_input,
            store_result=self._store_result,
        )

    def _fetch_input(self, iteration: int) -> Any:
        if self._input_provider is None:
            raise RuntimeError_("no input provider configured")
        return self._input_provider(iteration)

    def _store_result(self, iteration: int, piece: Any) -> None:
        self._sink_results.setdefault(iteration, []).append(piece)

    def _probe(
        self,
        kind: str,
        entry: dict,
        thread: int,
        iteration: int,
        processor: int,
        detail: str = "",
        nbytes: int = 0,
    ) -> None:
        trace = self.trace
        if trace.enabled:  # else skip the ProbeEvent allocation entirely
            # The thread and message kinds are known-good: skip the check.
            trace.events.append(tuple.__new__(ProbeEvent, (
                self.env.now, kind, entry["name"], entry["id"], thread,
                processor, iteration, detail, nbytes,
            )))

    def _probe_runtime(
        self,
        kind: str,
        detail: str = "",
        processor: int = -1,
        iteration: int = -1,
        nbytes: int = 0,
    ) -> None:
        """Record a probe not tied to any application function (fault events,
        retries, checkpoints, detector verdicts, shrink/restripe)."""
        self.trace.record(ProbeEvent(
            self.env.now, kind, "<runtime>", -1, 0, processor, iteration,
            detail, nbytes,
        ))

    def _on_fault_injected(self, time: float, kind: str, detail: str,
                           node: int) -> None:
        if kind == "node_join":
            # Replacement capacity powered on; absorbed at the next iteration
            # boundary by _maybe_grow (grow_restripe policy only).
            self._pending_joins.append(node)
        self.trace.record(ProbeEvent(
            time, "fault_injected", "<fault>", -1, 0, node, -1,
            f"{kind}: {detail}",
        ))
