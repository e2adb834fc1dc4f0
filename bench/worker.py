"""One workload in one fresh process; ``run.py`` starts it and reads its output.

A fresh process per workload keeps caches, ``setup_s`` and ``peak_rss_mb``
the workload's own.  The process prints ``READY`` when set-up and the warm-up
ops are done (the parent times that), then one line of JSON.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from workloads import WORKLOADS, load_expected, null_span  # noqa: E402

#: Span names a workload's ops can open, in pipeline order.
SPAN_NAMES = ("model.build", "codegen.generate", "machine.cluster_build",
              "runtime.setup", "runtime.run", "mpi.world_run",
              "service.submit", "service.run")
#: Exact counts a workload's ``counters`` can return, reported per op.
COUNTER_NAMES = ("runtime.events", "runtime.msgs", "codegen.glue_lines",
                 "mpi.hand_events", "service.bus_msgs", "service.backfills")


class Tracer:
    """Spans kept in memory: ``[op, name, parent, start, end]``.  Slot
    ``parent`` indexes the op's root span, which the runner closes."""

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self.root = -1

    def begin(self, op: int):
        self.op, self.root = op, len(self.spans)
        self.spans.append([op, "op", None, 0.0, 0.0])
        return self.span

    def end(self, start: float, end: float) -> None:
        self.spans[self.root][3:] = [start, end]

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def op_spans(self, root: int) -> list:
        return [s for s in self.spans[root + 1:] if s[2] == root]


class _Span:
    __slots__ = ("tracer", "row")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.row = [tracer.op, name, tracer.root, 0.0, 0.0]

    def __enter__(self):
        self.tracer.spans.append(self.row)
        self.row[3] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.row[4] = time.perf_counter()
        return False


class Op:
    """What one executed op left behind."""

    __slots__ = ("seconds", "ok", "virt_ms", "counters", "root", "check_s",
                 "inputs")


class Runner:
    """Runs ops one after another: closed loop, one client."""

    def __init__(self, workload):
        self.workload = workload
        self.next_op = 0
        self.attempted = 0
        self.failed = 0

    def one(self, tracer=None, profile=None) -> Op:
        wl, i = self.workload, self.next_op
        self.next_op += 1
        self.attempted += 1
        op = Op()
        inputs = wl.prepare(i)
        op.inputs = None if tracer is None else inputs  # kept for few ops only
        span = null_span if tracer is None else tracer.begin(i)
        op.root = None if tracer is None else tracer.root
        outs = None
        gc.collect()
        gc.disable()
        try:
            if profile is not None:
                profile.enable()
            t0 = time.perf_counter()
            outs = wl.op(inputs, span)
        except Exception:  # an op that raises is a failed op, not a crash
            traceback.print_exc()
        finally:
            t1 = time.perf_counter()
            if profile is not None:
                profile.disable()
            gc.enable()
        op.seconds = t1 - t0
        if tracer is not None:
            tracer.end(t0, t1)
        op.ok, op.virt_ms, op.counters = False, [], {}
        if outs is not None:
            records = wl.records(inputs, outs)
            op.counters = wl.counters(inputs, outs)
            op.virt_ms = [record[1] for _, record in records]
            op.ok = (all(wl.expected.get(key) == record for key, record in records)
                     and wl.extra_check(inputs, outs))
        op.check_s = time.perf_counter() - t1
        self.failed += not op.ok
        return op

    def loop(self, seconds: float, max_ops: int, min_ops: int,
             how=lambda n: {}) -> list:
        """Ops until ``seconds`` have passed (but at least ``min_ops``) or
        ``max_ops`` are done, whichever is first.  ``how(n)`` gives the
        keywords of :meth:`one` for the loop's op ``n``."""
        ops, deadline = [], time.perf_counter() + seconds
        while len(ops) < max_ops and (
                len(ops) < min_ops or time.perf_counter() < deadline):
            ops.append(self.one(**how(len(ops))))
        return ops


def timed_metrics(ops) -> dict:
    ms = [op.seconds * 1e3 for op in ops]
    virt = [v for op in ops for v in op.virt_ms]
    # The tail and the rate are taken on each fifth of the run and the median
    # of the five is reported: the host stalls for a second now and then, and
    # one stall would otherwise set the whole run's p90 (spread between runs
    # 6% against 3%).  A tail the program itself causes is in every fifth.
    n = len(ms)
    fifths = [ms[n * j // 5:n * (j + 1) // 5] for j in range(5)] if n >= 50 else [ms]
    return {
        "samples": n,
        "op_ms_quartiles": statistics.quantiles(ms, n=4),
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": statistics.median(
            statistics.quantiles(part, n=10)[-1] for part in fifths),
        "ops_per_s": statistics.median(
            len(part) / (sum(part) / 1e3) for part in fifths),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "virt_latency_ms": statistics.fmean(virt) if virt else 0.0,
    }


def traced_metrics(workload, tracer, ops, profile, hits) -> dict:
    """The per-layer rows of one workload's traced run."""
    from layers import micro_rows, profile_shares

    traced = [op for op in ops if op.root is not None]
    untraced = [op for op in ops if op.root is None]
    rows = {}

    # Spans: per op, the time under each name; the median over traced ops.
    per_name = {name: [] for name in SPAN_NAMES}
    coverage, run_s = [], 0.0
    for op in traced:
        sums = dict.fromkeys(SPAN_NAMES, 0.0)
        for _, name, _, start, end in tracer.op_spans(op.root):
            sums[name] += end - start
        for name, total in sums.items():
            per_name[name].append(total)
        coverage.append(sum(sums.values()) / op.seconds)
        run_s += sums["runtime.run"]
    for name, totals in per_name.items():
        rows[f"{name}_ms"] = statistics.median(totals) * 1e3
    rows["bench.check_ms"] = statistics.median(op.check_s for op in ops) * 1e3
    rows["bench.span_coverage_pct"] = 100.0 * statistics.median(coverage)
    rows["bench.trace_overhead_pct"] = 100.0 * (
        statistics.median(op.seconds for op in traced)
        / statistics.median(op.seconds for op in untraced) - 1.0)
    first = next((s for s in tracer.spans if s[1] == "codegen.generate"), None)
    rows["codegen.first_call_ms"] = (first[4] - first[3]) * 1e3 if first else 0.0

    # Counters, per op; the ratios are taken over the traced ops, where the
    # run span and the counts come from the same ops.
    for name in COUNTER_NAMES:
        rows[name] = statistics.fmean(op.counters.get(name, 0) for op in ops)
    events = sum(op.counters.get("runtime.events", 0) for op in traced)
    msgs = sum(op.counters.get("runtime.msgs", 0) for op in traced)
    rows["runtime.events_per_msg"] = events / msgs if msgs else 0.0
    rows["runtime.ns_per_event"] = run_s * 1e9 / events if run_s and events else 0.0
    rows["runtime.us_per_msg"] = run_s * 1e6 / msgs if msgs else 0.0
    virt = [v for op in ops for v in op.virt_ms]
    rows["sim.virt_latency_ms"] = statistics.fmean(virt) if virt else 0.0
    lookups = hits[0] + hits[1]
    rows["perf.cache_hit_pct"] = 100.0 * hits[0] / lookups if lookups else 0.0

    # The service's own tax: the batch against its jobs run one by one.
    jobs = sum(op.counters.get("service.jobs", 0) for op in ops)
    rows["service.jobs_per_s"] = jobs / sum(op.seconds for op in ops)
    rows["service.overhead_pct"] = 0.0
    if jobs:
        batch_s = sum(op.seconds for op in traced)
        alone_s = sum(workload.standalone_s(op.inputs) for op in traced)
        rows["service.overhead_pct"] = 100.0 * (batch_s - alone_s) / batch_s

    rows.update(profile_shares(profile))
    rows.update(micro_rows())
    return rows


def cache_traffic() -> tuple:
    from repro.perf import cache_stats

    stats = cache_stats().values()
    return (sum(s["hits"] for s in stats), sum(s["misses"] for s in stats))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--max-ops", type=int, default=10**9,
                        help="at least 2: quartiles need two samples")
    parser.add_argument("--mode", required=True,
                        choices=("timed", "traced", "setup", "pin"))
    args = parser.parse_args()

    if args.mode == "pin":
        pins = {}
        for name, cls in WORKLOADS.items():
            workload = cls()
            workload.setup(args.seed, {})
            pins[name] = workload.pin()
        print(json.dumps(pins))
        return 0

    workload = WORKLOADS[args.workload]()
    tracer = Tracer() if args.mode == "traced" else None
    # Set-up is op -1 of the trace: the process's first generate_glue may be in it.
    workload.setup(args.seed, load_expected(),
                   null_span if tracer is None else tracer.begin(-1))
    runner = Runner(workload)
    for _ in range(workload.warmups):
        runner.one(tracer=tracer)
    workload.warmed()
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    out = {}
    if args.mode == "timed":
        ops = runner.loop(args.seconds, args.max_ops, min_ops=2)
        out["metrics"] = timed_metrics(ops)
    else:
        # Traced and untraced ops alternate, so that their medians see the
        # same host; then more ops under cProfile.
        share = max(2, args.max_ops // 2)
        before = cache_traffic()
        ops = runner.loop(
            0.4 * args.seconds, 2 * share, min_ops=30,
            how=lambda n: {"tracer": tracer if n % 2 == 0 else None})
        after = cache_traffic()
        profile = cProfile.Profile()
        runner.loop(0.25 * args.seconds, share, min_ops=10,
                    how=lambda n: {"profile": profile})
        out["metrics"] = traced_metrics(
            workload, tracer, ops, profile,
            (after[0] - before[0], after[1] - before[1]))
        out["spans"] = tracer.spans
    out["attempted"] = runner.attempted
    out["failed"] = runner.failed
    out["correct"] = runner.failed == 0 and workload.finish()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
