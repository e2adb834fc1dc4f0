"""Static cost / critical-path prediction (Verifier v2, ``PERF0xx``).

Walks the symbolic per-rank programs — the same function table, striping
plans, and kernel cost models the run-time executes — against the machine
model (:mod:`repro.machine.node` / :mod:`repro.machine.interconnect`)
*without simulating a single event*.  The walk is an analytic critical-path
computation: per-processor CPU cursors serialise co-mapped threads, and
per-node inject/eject port cursors serialise fabric fan-out, exactly
mirroring the resources the simulator would contend on.  The result is a
:class:`CostReport` carrying the predicted makespan, per-link byte loads,
per-port busy times, and per-stage spans.

Because the run-time admits one data set at a time by default
(``max_in_flight=1``), iterations serialise and the predicted makespan is
``iterations x iteration latency``; pipelined configs are estimated as
``latency + (iterations - 1) x bottleneck period``.

Rules (:func:`check_cost`):

* **PERF001** — compute load imbalance: the busiest processor's per-
  iteration busy time exceeds ``IMBALANCE_FACTOR x`` the mean,
* **PERF002** — link oversubscription: an inject/eject port is busy for
  more than ``OVERSUBSCRIPTION`` of the iteration latency,
* **PERF003** — predicted makespan exceeds the declared time budget (only
  when a budget is supplied; the admission linter surfaces it as JOB005),
* **PERF004** — idle leased capacity: a processor in ``range(nprocs)``
  holds no work at all.

:func:`predict_makespan` is the entry point the service scheduler's exact
reservations consume (``static_reservations``) instead of trusting
submitted budgets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.model.application import ApplicationModel
from ..core.model.mapping import Mapping
from ..core.runtime.buffers import RuntimeBuffer, buffer_views, remote_traffic_tables
from ..core.runtime.config import DEFAULT_CONFIG, RuntimeConfig
from ..core.runtime.kernels import ThreadContext, default_bindings
from ..core.runtime.phantom import PhantomArray
from ..core.runtime.striping import region_shape
from ..machine.platforms import PlatformSpec
from .report import Finding

__all__ = [
    "CostReport",
    "predict_makespan",
    "check_cost",
    "IMBALANCE_FACTOR",
    "OVERSUBSCRIPTION",
]

#: PERF001 fires when max per-proc busy exceeds this factor times the mean.
IMBALANCE_FACTOR = 1.5

#: PERF002 fires when a NIC port is busy more than this fraction of the
#: predicted iteration latency.
OVERSUBSCRIPTION = 0.6


@dataclass
class CostReport:
    """The static predictor's output for one (model, mapping, platform)."""

    model_name: str
    platform: str
    nprocs: int
    iterations: int
    #: One-iteration latency (source dispatch to last sink exit), seconds.
    iteration_latency: float
    #: Predicted end-to-end makespan for ``iterations`` data sets.
    makespan: float
    #: Steady-state bottleneck period (pipelined estimate), seconds.
    period: float
    #: Per-processor busy seconds per iteration (CPU occupancy).
    proc_busy: Dict[int, float] = field(default_factory=dict)
    #: Per-(src_proc, dst_proc) fabric bytes per iteration.
    link_bytes: Dict[Tuple[int, int], int] = field(default_factory=dict)
    #: Per-processor inject/eject port busy seconds per iteration.
    inject_busy: Dict[int, float] = field(default_factory=dict)
    eject_busy: Dict[int, float] = field(default_factory=dict)
    #: Per-function (name -> (start, end)) spans within one iteration.
    stage_spans: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    #: Aggregate seconds per iteration by cost source.
    compute_s: float = 0.0
    staging_s: float = 0.0
    transfer_s: float = 0.0
    overhead_s: float = 0.0

    @property
    def comm_fraction(self) -> float:
        """Fraction of one iteration's total charged time that is
        communication (staging copies + fabric transfers)."""
        total = self.compute_s + self.staging_s + self.transfer_s + self.overhead_s
        if total <= 0:
            return 0.0
        return (self.staging_s + self.transfer_s) / total

    def to_dict(self) -> dict:
        return {
            "model": self.model_name,
            "platform": self.platform,
            "nprocs": self.nprocs,
            "iterations": self.iterations,
            "iteration_latency_s": self.iteration_latency,
            "makespan_s": self.makespan,
            "period_s": self.period,
            "comm_fraction": round(self.comm_fraction, 6),
            "proc_busy_s": {str(p): t for p, t in sorted(self.proc_busy.items())},
            "link_bytes": {
                f"{s}->{d}": n for (s, d), n in sorted(self.link_bytes.items())
            },
            "inject_busy_s": {
                str(p): t for p, t in sorted(self.inject_busy.items())
            },
            "eject_busy_s": {
                str(p): t for p, t in sorted(self.eject_busy.items())
            },
            "stage_spans_s": {
                name: [a, b] for name, (a, b) in sorted(self.stage_spans.items())
            },
            "compute_s": self.compute_s,
            "staging_s": self.staging_s,
            "transfer_s": self.transfer_s,
            "overhead_s": self.overhead_s,
        }


def predict_makespan(
    app: ApplicationModel,
    mapping: Mapping,
    nprocs: int,
    platform: PlatformSpec,
    iterations: int = 1,
    config: Optional[RuntimeConfig] = None,
) -> CostReport:
    """Predict the run-time's makespan without simulating.

    The walk visits functions in dataflow order and threads in index order,
    charging exactly the sequence the run-time charges — dispatch overhead,
    receive staging, kernel flops at ``compute_efficiency``, kernel copy
    bytes, send staging, per-message striping overhead, and the fabric
    transfer — onto analytic per-resource cursors.
    """
    cfg = (config or DEFAULT_CONFIG).timing_only()
    cpu = platform.cpu
    fabric = platform.fabric
    boards = platform.board_map(max(nprocs, 1))
    bindings = default_bindings()
    views = buffer_views(app)
    in_bufs: Dict[int, List[RuntimeBuffer]] = {}
    out_bufs: Dict[int, List[RuntimeBuffer]] = {}
    for view in views:
        out_bufs.setdefault(view.src_function, []).append(view)
        in_bufs.setdefault(view.dst_function, []).append(view)
    # Remote-traffic tables for the "remote" staging policies.
    send_remote, recv_remote = remote_traffic_tables(views, mapping.processor_of)

    def staged(view: RuntimeBuffer, t: int, policy: str, receive: bool) -> int:
        if policy == "none":
            return 0
        if policy == "all":
            return (
                view.dst_region_bytes(t) if receive else view.src_region_bytes(t)
            )
        table = recv_remote if receive else send_remote
        return table.get((view.buffer_id, t), 0)

    report = CostReport(
        model_name=app.name, platform=platform.name, nprocs=nprocs,
        iterations=iterations, iteration_latency=0.0, makespan=0.0,
        period=0.0,
    )
    cpu_free: Dict[int, float] = {p: 0.0 for p in range(nprocs)}
    inject_free: Dict[int, float] = dict(cpu_free)
    eject_free: Dict[int, float] = dict(cpu_free)
    shared_free: List[float] = [0.0] * max(1, fabric.shared_channels)
    arrival: Dict[Tuple[int, int], float] = {}
    sink_end = 0.0

    def link_time(src: int, dst: int, nbytes: int) -> float:
        same = boards.get(src) == boards.get(dst)
        return fabric.link_for(same).transfer_time(nbytes)

    for inst in app.topological_order():
        fid = inst.function_id
        binding = bindings.get(inst.block.kernel)
        span_start = None
        span_end = 0.0
        pending: List[Tuple[float, int, int, int, Tuple[int, int]]] = []
        for t in range(inst.threads):
            p = mapping.processor_of(fid, t)
            ready = 0.0
            for view in in_bufs.get(fid, []):
                ready = max(ready, arrival.get((view.buffer_id, t), 0.0))
            now = max(cpu_free.get(p, 0.0), ready)
            if span_start is None or now < span_start:
                span_start = now
            now += cfg.dispatch_overhead
            report.overhead_s += cfg.dispatch_overhead
            in_regions = {
                v.dst_port: v.dst_region(t) for v in in_bufs.get(fid, [])
            }
            out_regions = {
                v.src_port: v.src_region(t) for v in out_bufs.get(fid, [])
            }
            out_dtypes = {v.src_port: v.dtype for v in out_bufs.get(fid, [])}
            inputs = {
                v.dst_port: PhantomArray(
                    region_shape(v.dst_region(t)), v.dtype
                )
                for v in in_bufs.get(fid, [])
            }
            dma = binding is not None and binding.dma_endpoint
            if not dma:
                recv_bytes = sum(
                    staged(v, t, cfg.recv_staging, receive=True)
                    for v in in_bufs.get(fid, [])
                )
                if recv_bytes:
                    dt = cpu.copy_time(recv_bytes)
                    now += dt
                    report.staging_s += dt
            if binding is not None:
                ctx = ThreadContext(
                    function_id=fid, name=inst.path,
                    kernel=inst.block.kernel, thread=t,
                    threads=inst.threads, iteration=0,
                    params=dict(inst.block.params or {}),
                    in_regions=in_regions, out_regions=out_regions,
                    out_dtypes=out_dtypes, execute_data=False,
                )
                flops = float(binding.flops(ctx, inputs))
                copy_bytes = float(binding.copy_bytes(ctx, inputs))
                if flops:
                    dt = cpu.compute_time(flops / cfg.compute_efficiency)
                    now += dt
                    report.compute_s += dt
                if copy_bytes:
                    dt = cpu.copy_time(copy_bytes)
                    now += dt
                    report.compute_s += dt
            for view in out_bufs.get(fid, []):
                if dma and not cfg.stage_dma_sources:
                    pack = 0
                else:
                    pack = staged(view, t, cfg.send_staging, receive=False)
                if pack:
                    dt = cpu.copy_time(pack)
                    now += dt
                    report.staging_s += dt
            span_end = max(span_end, now)
            # Transfer fan-out: striping bookkeeping serialises on this
            # CPU; the wire time serialises on the NIC ports.  Cross-
            # processor hops are only *collected* here (with their CPU-
            # ready times) — they are list-scheduled once every sender of
            # this function has been walked, because real port contention
            # resolves in arrival order, not in thread-walk order.
            for view in out_bufs.get(fid, []):
                for msg in view.send_order(t):
                    if cfg.striping_overhead_per_message > 0:
                        now += cfg.striping_overhead_per_message
                        report.overhead_s += cfg.striping_overhead_per_message
                    dst_p = mapping.processor_of(view.dst_function, msg.dst_thread)
                    key = (view.buffer_id, msg.dst_thread)
                    if dst_p == p:
                        arrival[key] = max(arrival.get(key, 0.0), now)
                        continue
                    pending.append((now, p, dst_p, msg.nbytes, key))
            report.proc_busy[p] = report.proc_busy.get(p, 0.0) + (
                now - max(cpu_free.get(p, 0.0), ready)
            )
            cpu_free[p] = now
        # Earliest-feasible-start list scheduling of this function's
        # cross-processor transfers: ports grant in request-time order, so
        # a rotated all-to-all resolves into near-perfect permutation
        # rounds (the property pairwise exchange exploits).
        pending.sort(key=lambda m: (m[0], m[1], m[4]))
        while pending:
            best_i, best_start = 0, None
            for i, (rdy, src_p, dst_p, _nb, _key) in enumerate(pending):
                s = max(rdy, inject_free[src_p], eject_free[dst_p])
                if not fabric.crossbar and boards.get(src_p) != boards.get(dst_p):
                    s = max(s, min(shared_free))
                if best_start is None or s < best_start:
                    best_i, best_start = i, s
            rdy, src_p, dst_p, nbytes, key = pending.pop(best_i)
            duration = link_time(src_p, dst_p, nbytes)
            start = best_start
            if not fabric.crossbar and boards.get(src_p) != boards.get(dst_p):
                ch = min(range(len(shared_free)), key=lambda i: shared_free[i])
                shared_free[ch] = start + duration
            end = start + duration
            inject_free[src_p] = end
            eject_free[dst_p] = end
            report.inject_busy[src_p] = (
                report.inject_busy.get(src_p, 0.0) + duration
            )
            report.eject_busy[dst_p] = (
                report.eject_busy.get(dst_p, 0.0) + duration
            )
            report.link_bytes[(src_p, dst_p)] = (
                report.link_bytes.get((src_p, dst_p), 0) + nbytes
            )
            report.transfer_s += duration
            arrival[key] = max(arrival.get(key, 0.0), end)
        report.stage_spans[inst.path] = (span_start or 0.0, span_end)
        if not out_bufs.get(fid):
            sink_end = max(sink_end, span_end)

    latency = max(
        sink_end,
        max(cpu_free.values(), default=0.0),
        max(inject_free.values(), default=0.0),
    )
    report.iteration_latency = latency
    busiest = max(report.proc_busy.values(), default=0.0)
    port_busiest = max(
        list(report.inject_busy.values()) + list(report.eject_busy.values()),
        default=0.0,
    )
    report.period = max(busiest, port_busiest)
    if cfg.max_in_flight == 1 or iterations <= 1:
        report.makespan = iterations * latency
    else:
        report.makespan = latency + (iterations - 1) * report.period
    return report


def check_cost(
    report: CostReport,
    budget: Optional[float] = None,
) -> List[Finding]:
    """Run the PERF rules over one :class:`CostReport`."""
    findings: List[Finding] = []
    where = report.model_name
    busy = [report.proc_busy.get(p, 0.0) for p in range(report.nprocs)]
    mean = sum(busy) / len(busy) if busy else 0.0
    if report.nprocs > 1 and mean > 0:
        worst = max(range(report.nprocs), key=lambda p: busy[p])
        if busy[worst] > IMBALANCE_FACTOR * mean:
            findings.append(Finding(
                "warning", "PERF001", f"{where}:proc{worst}",
                f"compute load imbalance: processor {worst} is busy "
                f"{busy[worst] * 1e3:.3f} ms/iteration vs a "
                f"{mean * 1e3:.3f} ms mean "
                f"(> {IMBALANCE_FACTOR:.1f}x)",
                "re-balance the mapping (AToT) or add striping slack",
                "cost-predict",
            ))
    if report.iteration_latency > 0:
        ports = [("inject", p, t) for p, t in report.inject_busy.items()]
        ports += [("eject", p, t) for p, t in report.eject_busy.items()]
        for kind, p, t in sorted(ports):
            if t > OVERSUBSCRIPTION * report.iteration_latency:
                findings.append(Finding(
                    "warning", "PERF002", f"{where}:{kind}{p}",
                    f"link oversubscription: {kind} port of processor {p} "
                    f"is busy {t * 1e3:.3f} ms of a "
                    f"{report.iteration_latency * 1e3:.3f} ms iteration "
                    f"(> {OVERSUBSCRIPTION:.0%})",
                    "spread the redistribution over more endpoints or use "
                    "a mapping with less cross-processor traffic",
                    "cost-predict",
                ))
    if budget is not None and report.makespan > budget:
        findings.append(Finding(
            "warning", "PERF003", where,
            f"predicted makespan {report.makespan:.6f}s exceeds the "
            f"{budget:.6f}s time budget: the lease would be terminated "
            f"at the budget boundary",
            "raise the budget, reduce iterations, or use more nodes",
            "cost-predict",
        ))
    idle = [p for p in range(report.nprocs)
            if report.proc_busy.get(p, 0.0) <= 0.0]
    for p in idle:
        findings.append(Finding(
            "info", "PERF004", f"{where}:proc{p}",
            f"processor {p} holds no work: the mapping leaves leased "
            f"capacity idle",
            "lease fewer nodes or re-map threads onto the idle processor",
            "cost-predict",
        ))
    return findings
