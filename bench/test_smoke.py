"""Smoke test of the benchmark itself.  Not in the tier-1 ``testpaths``:
run it as ``python -m pytest bench/``."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
PINNED_SEEDS = (20000316, 19991231)


def run(*args):
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()


@pytest.mark.parametrize("seed", PINNED_SEEDS)
def test_smoke_run_is_correct_on_every_workload(seed):
    run("--smoke", "--seed", str(seed))
    results = json.loads((BENCH / "out" / "results.json").read_text())
    assert {"nproc", "python", "loadavg_at_start", "commit"} <= set(results["host"])
    assert list(results["workloads"]) == WORKLOADS
    for name, result in results["workloads"].items():
        e2e = result["end_to_end"]
        assert e2e["correct"] is True and e2e["failed"] == 0, name
        assert list(e2e["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
        assert all(m["value"] > 0 for m in e2e["metrics"].values()), name


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_driver_form_prints_exactly_the_metrics_benchmark_json_names(trace, section):
    last = json.loads(run("--workload", "cold_codegen", "--seed", "7", "--smoke",
                          "--trace", trace)[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 < last["attempted"]
    assert {n: m["unit"] for n, m in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[section]}


def test_workloads_in_benchmark_json_are_the_drivers():
    sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]
    try:
        from workloads import WORKLOADS as defined
    finally:
        del sys.path[:2]
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: cls.why for name, cls in defined.items()}
