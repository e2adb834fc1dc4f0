"""The repo's benchmark: seven workloads, end-to-end and per-layer metrics.

    python3 bench/run.py                      every workload, a table
    python3 bench/run.py --workload steady_8n --seed 7 --seconds 10 --trace 0
    python3 bench/run.py --trace 1            the per-layer rows as well
    python3 bench/run.py --smoke              5 ops a workload, for CI
    python3 bench/run.py --check-repeat       two sets of runs must agree
    python3 bench/run.py --pin                rewrite expected.json

With ``--workload`` the last line printed is one JSON object, ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``.  Names, units and
bounds are those of ``BENCHMARK.json``.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
DEFAULT_SEED = 20000316
#: Set-ups a run times; ``setup_s`` is their median.
SETUPS = 5
#: No child may outlive this: the whole run has to end within 180 s.
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def spawn(mode: str, workload: str, seed: int, seconds: float,
          max_ops: int | None = None):
    """Run one worker to its end.  Returns ``(seconds from spawn to READY,
    the worker's JSON or None)``."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--mode", mode,
           "--seed", str(seed), "--seconds", str(seconds)]
    if mode != "pin":
        cmd += ["--workload", workload]
    if max_ops is not None:
        cmd += ["--max-ops", str(max_ops)]
    start = time.perf_counter()
    # One hash seed for every worker: str hashing decides dict and set
    # layout, and random seeds moved op_ms_p50 by 2% from process to process.
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                             env={**os.environ, "PYTHONHASHSEED": "0"})
    try:
        ready = None
        if mode != "pin":
            if child.stdout.readline().strip() != "READY":
                raise BenchError(f"{workload}: worker died during set-up")
            ready = time.perf_counter() - start
        out, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if child.poll() is None:
            child.kill()
        child.wait()
    if child.returncode != 0:
        raise BenchError(f"{workload}: worker exited with {child.returncode}")
    lines = out.strip().splitlines()
    return ready, json.loads(lines[-1]) if lines else None


def measure(workload: str, seed: int, seconds: float, trace: bool,
            max_ops: int | None = None) -> dict:
    """One run of one workload: the contract's result object, plus what the
    table prints (``samples``, quartiles) under ``detail``."""
    if trace:
        _, out = spawn("traced", workload, seed, seconds, max_ops)
        (BENCH_DIR / "out").mkdir(exist_ok=True)
        trace_file = BENCH_DIR / "out" / f"trace_{workload}.json"
        trace_file.write_text(json.dumps(
            {"workload": workload, "seed": seed,
             "span_fields": ["op", "name", "parent", "start", "end"],
             "spans": out.pop("spans")}))
        names, detail = PER_LAYER, {}
    else:
        setups = [spawn("setup", workload, seed, 0)[0] for _ in range(SETUPS - 1)]
        ready, out = spawn("timed", workload, seed, seconds, max_ops)
        out["metrics"]["setup_s"] = statistics.median(setups + [ready])
        names = END_TO_END
        detail = {k: out["metrics"][k] for k in ("samples", "op_ms_quartiles")}
        detail["virt_latency_ms"] = out["metrics"]["virt_latency_ms"]
    missing = set(names) - set(out["metrics"])
    if missing:
        raise BenchError(f"{workload}: worker reported no {sorted(missing)}")
    return {
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": out["metrics"][name], "unit": m["unit"]}
                    for name, m in names.items()},
        "detail": detail,
    }


def host_info() -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(BENCH_DIR), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "loadavg_at_start": os.getloadavg(), "commit": commit}


def run_set(workloads, seed, seconds, trace, max_ops) -> dict:
    """Every workload once, one after another; a row each as it ends."""
    results = {}
    for name in workloads:
        results[name] = {"end_to_end": measure(name, seed, seconds, False, max_ops)}
        print_row(name, results[name]["end_to_end"])
        if trace:
            results[name]["per_layer"] = measure(name, seed, seconds, True, max_ops)
            print_layers(results[name]["per_layer"])
    return results


def print_header() -> None:
    units = " ".join(f"{n}[{m['unit']}]" for n, m in END_TO_END.items())
    print(f"# workload ops(samples) op_ms[q1 median q3] {units} "
          "virt_latency_ms[ms, simulated] failed/attempted correct")


def print_row(name: str, result: dict) -> None:
    d, m = result["detail"], result["metrics"]
    q1, q2, q3 = d["op_ms_quartiles"]
    values = " ".join(f"{n}={m[n]['value']:.4g}" for n in END_TO_END)
    print(f"{name:<13} n={d['samples']:<4} op_ms=[{q1:.2f} {q2:.2f} {q3:.2f}] "
          f"{values} virt_latency_ms={d['virt_latency_ms']:.6g} "
          f"failed={result['failed']}/{result['attempted']} "
          f"correct={result['correct']}", flush=True)


def print_layers(result: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"    {name:<36} {metric['value']:>14.6g} {metric['unit']}")


def exact_metrics(results: dict) -> dict:
    """What must repeat bit for bit: simulated values, counts, verdicts."""
    exact = {}
    for name, r in results.items():
        e2e = r["end_to_end"]
        exact[name, "virt_latency_ms"] = e2e["detail"]["virt_latency_ms"]
        exact[name, "failed"] = (e2e["failed"], e2e["attempted"], e2e["correct"])
        for metric, spec in PER_LAYER.items():
            if spec["unit"] in ("count", "lines") or metric.startswith(
                    ("sim.", "apps.", "faults.virt", "analysis.predict_err")):
                exact[name, metric] = r["per_layer"]["metrics"][metric]["value"]
    return exact


def check_repeat(seed: int) -> int:
    """Two sets of runs of the same code, the second in reverse order.  Host
    metrics of set B must be within their own bound of set A; exact metrics
    must be identical.  A fixed 100 ops a workload, so that counts compare."""
    print_header()
    a = run_set(WORKLOADS, seed, 60, True, 100)
    b = run_set(WORKLOADS[::-1], seed, 60, True, 100)
    bad = 0
    print("# workload metric A B worse_by bound")
    for name in WORKLOADS:
        for metric, spec in END_TO_END.items():
            va, vb = (r[name]["end_to_end"]["metrics"][metric]["value"]
                      for r in (a, b))
            worse = (vb - va) / va if spec["better"] == "lower" else (va - vb) / va
            ok = worse <= spec["bound"]
            bad += not ok
            print(f"{name:<13} {metric:<12} {va:.5g} {vb:.5g} {worse:+.2%} "
                  f"{spec['bound']:.0%} {'ok' if ok else 'WORSE'}")
    ea, eb = exact_metrics(a), exact_metrics(b)
    for key in ea:
        if ea[key] != eb[key]:
            bad += 1
            print(f"{key[0]:<13} {key[1]} differs: {ea[key]!r} != {eb[key]!r}")
    print(f"# {len(ea)} exact values compared; {bad} disagreement(s)")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args()

    if args.pin:
        _, pins = spawn("pin", "", DEFAULT_SEED, 0)
        (BENCH_DIR / "expected.json").write_text(
            json.dumps(pins, indent=1, sort_keys=True) + "\n")
        return 0
    if args.check_repeat:
        return check_repeat(args.seed)
    max_ops = 5 if args.smoke else None
    if args.workload:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), max_ops)
        del result["detail"]
        print(json.dumps(result))
        return 0
    info = host_info()
    print(f"# {info}")
    print_header()
    results = run_set(WORKLOADS, args.seed, args.seconds, bool(args.trace), max_ops)
    (BENCH_DIR / "out").mkdir(exist_ok=True)
    (BENCH_DIR / "out" / "results.json").write_text(json.dumps(
        {"host": info, "seed": args.seed, "seconds": args.seconds,
         "smoke": args.smoke, "workloads": results}, indent=1))
    return 0 if all(r["end_to_end"]["correct"] and r["end_to_end"]["failed"] == 0
                    for r in results.values()) else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
