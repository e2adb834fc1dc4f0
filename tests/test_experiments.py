"""Experiment-harness tests: the §3.3 protocol machinery and the reproduced
shapes of every paper artifact (fast, reduced-protocol versions; the full
numbers live in EXPERIMENTS.md)."""

import ast
import os
import subprocess
import sys

import pytest

from repro.experiments import (
    QUICK_PROTOCOL,
    Protocol,
    format_atot_study,
    format_crossvendor,
    format_period_latency,
    format_table1,
    knob_study,
    measure_hand,
    measure_sage,
    optimized_glue_study,
    run_atot_study,
    run_crossvendor,
    run_period_latency,
    run_table1,
    two_node_study,
)
from repro.experiments.table1 import averages
from repro.machine import cspi

FAST = Protocol(runs=2, iterations=5)
EXACT = Protocol(runs=1, iterations=5, jitter_sigma=0.0)


class TestProtocol:
    def test_defaults_match_paper(self):
        p = Protocol()
        assert p.runs == 10 and p.iterations == 100

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            Protocol(runs=0)
        with pytest.raises(ValueError):
            Protocol(jitter_sigma=-1)

    def test_jitter_zero_gives_identical_runs(self):
        m = measure_hand("corner_turn", cspi(), 4, 128, Protocol(runs=3, iterations=3, jitter_sigma=0))
        assert len(set(m.run_latencies)) == 1
        assert m.latency_stdev == 0.0

    def test_jitter_spreads_runs_deterministically(self):
        m1 = measure_hand("corner_turn", cspi(), 4, 128, Protocol(runs=3, iterations=3))
        m2 = measure_hand("corner_turn", cspi(), 4, 128, Protocol(runs=3, iterations=3))
        assert m1.run_latencies == m2.run_latencies  # seeded
        assert len(set(m1.run_latencies)) == 3       # but spread

    def test_jitter_does_not_depend_on_the_hash_seed(self):
        """String hashes are salted per process, so two processes with
        different PYTHONHASHSEED values must still draw the same jitter."""
        script = (
            "from repro.experiments import QUICK_PROTOCOL, measure_hand\n"
            "from repro.machine import cspi\n"
            "m = measure_hand('corner_turn', cspi(), 4, 64, QUICK_PROTOCOL)\n"
            "print(repr(m.run_latencies))\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            outputs.append(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True,
            ).stdout)
        assert outputs[0] == outputs[1]
        assert len(set(ast.literal_eval(outputs[0]))) == QUICK_PROTOCOL.runs

    def test_unknown_app(self):
        with pytest.raises(KeyError, match="unknown benchmark"):
            measure_hand("matmul", cspi(), 4, 128, FAST)


class TestMeasurements:
    def test_sage_slower_than_hand(self):
        h = measure_hand("fft2d", cspi(), 4, 256, EXACT)
        s = measure_sage("fft2d", cspi(), 4, 256, EXACT)
        assert s.latency > h.latency

    def test_optimized_between_default_and_hand(self):
        h = measure_hand("corner_turn", cspi(), 4, 256, EXACT)
        s = measure_sage("corner_turn", cspi(), 4, 256, EXACT)
        o = measure_sage("corner_turn", cspi(), 4, 256, EXACT, optimize_buffers=True)
        assert h.latency < o.latency < s.latency

    def test_measurement_variant_labels(self):
        s = measure_sage("corner_turn", cspi(), 2, 128, EXACT)
        o = measure_sage("corner_turn", cspi(), 2, 128, EXACT, optimize_buffers=True)
        assert s.variant == "sage" and o.variant == "sage_optimized"


class TestTable1:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_table1(EXACT, node_counts=(4, 8), sizes=(256, 512))

    def test_row_count(self, rows):
        assert len(rows) == 2 * 2 * 2  # apps x nodes x sizes

    def test_sage_in_paper_band(self, rows):
        """Every cell between 60 and 95 % of hand-coded (paper cells ~70-93)."""
        for r in rows:
            assert 60.0 < r.pct_of_hand < 95.0, f"{r.app} {r.nodes}n {r.size}: {r.pct_of_hand:.1f}%"

    def test_fft_beats_corner_turn_efficiency(self, rows):
        """Paper: FFT ~17-20% overhead, corner turn ~20-25%: FFT pct higher."""
        avg = averages(rows)
        assert avg["2D FFT"] > avg["Corner Turn"]

    def test_overall_average_near_paper(self, rows):
        """§4: 'delivered and executed the two benchmark applications at
        77.5% of hand code versions' — we accept 70-87."""
        assert 70.0 < averages(rows)["overall"] < 87.0

    def test_more_nodes_lower_latency(self, rows):
        for app in ("fft2d", "corner_turn"):
            for size in (256, 512):
                cells = {r.nodes: r for r in rows if r.app == app and r.size == size}
                assert cells[8].sage_ms < cells[4].sage_ms
                assert cells[8].hand_ms < cells[4].hand_ms

    def test_formatting(self, rows):
        text = format_table1(rows)
        assert "Table 1.0" in text
        assert "2D FFT" in text and "Corner Turn" in text
        assert "Average overall" in text


class TestCrossVendor:
    @pytest.fixture(scope="class")
    def result(self):
        return run_crossvendor(EXACT, size=512, node_counts=(2, 4, 8))

    def test_all_series_present(self, result):
        assert set(result.latency_ms) == {"fft2d", "corner_turn"}
        for series in result.latency_ms.values():
            assert set(series) == {"mercury", "cspi", "sky", "sigi"}

    def test_latency_decreases_with_nodes(self, result):
        for app, series in result.latency_ms.items():
            for vendor, per_nodes in series.items():
                assert per_nodes[8] < per_nodes[2], f"{app}/{vendor}"

    def test_fabric_ordering_on_corner_turn(self, result):
        """Corner turn is fabric-bound: SIGI (slowest bus) loses to Mercury
        and SKY (fastest fabrics) at every node count."""
        ct = result.latency_ms["corner_turn"]
        for nodes in (4, 8):
            assert ct["sigi"][nodes] > ct["mercury"][nodes]
            assert ct["sigi"][nodes] > ct["sky"][nodes]

    def test_fft_less_fabric_sensitive_than_corner_turn(self, result):
        """Vendor spread (max/min) is wider for the corner turn than the
        compute-bound FFT."""
        def spread(app, nodes):
            vals = [result.latency_ms[app][v][nodes] for v in result.latency_ms[app]]
            return max(vals) / min(vals)

        assert spread("corner_turn", 8) > spread("fft2d", 8)

    def test_formatting(self, result):
        text = format_crossvendor(result)
        assert "Cross-vendor" in text
        assert "log scale" in text


class TestAblations:
    def test_two_node_study_shape(self):
        rows = two_node_study(EXACT, size=512)
        assert [r["nodes"] for r in rows] == [2, 4, 8]
        # §3.4: the absolute unique-buffer overhead is largest at 2 nodes.
        extras = [r["extra_ms"] for r in rows]
        assert extras[0] > extras[1] > extras[2]
        # And SAGE is slower than hand everywhere.
        assert all(r["pct_of_hand"] < 100 for r in rows)

    def test_optimized_glue_reaches_paper_target(self):
        rows = optimized_glue_study(EXACT, node_counts=(4, 8), sizes=(512,))
        import statistics

        avg_default = statistics.fmean(r["default_pct"] for r in rows)
        avg_opt = statistics.fmean(r["optimized_pct"] for r in rows)
        # §4: default ~77.5%, optimised "levels of 90%".
        assert avg_opt > avg_default
        assert 84.0 < avg_opt <= 100.0

    def test_knob_study_every_knob_helps(self):
        rows = knob_study(EXACT, app="corner_turn", nodes=4, size=512)
        base = next(r for r in rows if r["knob"] == "baseline (all on)")
        for r in rows:
            if r is base:
                continue
            assert r["pct_of_hand"] >= base["pct_of_hand"] - 1e-6, r["knob"]
        # staging copies are the dominant mechanism for the corner turn
        no_send = next(r for r in rows if r["knob"] == "no send staging")
        no_disp = next(r for r in rows if r["knob"] == "no dispatch")
        assert no_send["pct_of_hand"] > no_disp["pct_of_hand"]


class TestAtotStudy:
    def test_ga_not_worse_than_baselines(self):
        rows = run_atot_study(nodes=4, n=128, generations=8)
        by = {r.strategy: r for r in rows}
        assert by["atot_ga"].fitness <= by["round_robin"].fitness + 1e-9
        assert by["atot_ga"].fitness <= by["random"].fitness + 1e-9

    def test_random_mapping_hurts_simulated_latency(self):
        rows = run_atot_study(nodes=4, n=128, generations=8)
        by = {r.strategy: r for r in rows}
        assert by["random"].simulated_latency_ms > by["atot_ga"].simulated_latency_ms

    def test_formatting(self):
        rows = run_atot_study(nodes=2, n=64, generations=4)
        text = format_atot_study(rows)
        assert "atot_ga" in text and "round_robin" in text


class TestPeriodLatency:
    @pytest.fixture(scope="class")
    def points(self):
        return run_period_latency(nodes=4, size=256, iterations=10)

    def test_pipelined_period_below_latency(self, points):
        by = {p.mode: p for p in points}
        assert by["pipelined-depth2"].period_ms < by["pipelined-depth2"].latency_ms

    def test_serial_period_at_least_latency(self, points):
        serial = points[0]
        assert serial.period_ms >= serial.latency_ms * 0.99

    def test_throttled_period_tracks_interval(self, points):
        throttled = points[-1]
        # interval was set to 2x the serial latency
        serial = points[0]
        assert throttled.period_ms == pytest.approx(2 * serial.latency_ms, rel=0.05)

    def test_formatting(self, points):
        assert "period vs latency" in format_period_latency(points)


class TestReconfiguration:
    @pytest.fixture(scope="class")
    def detection(self):
        from repro.experiments import run_detection_latency

        return run_detection_latency(periods=(1e-4, 4e-4), nodes=4,
                                     seeds=(21,))

    def test_latency_within_window_and_scales_with_period(self, detection):
        for p in detection:
            assert 0 < p.latency <= 2 * p.window
        assert detection[1].latency > detection[0].latency

    def test_fault_free_soak_has_zero_false_positives(self):
        from repro.experiments import run_false_positives

        points = run_false_positives(nodes=4, soak_periods=120)
        by = {p.scenario: p for p in points}
        assert by["fault-free"].false_positives == 0
        assert by["fault-free"].suspects == 0
        assert by["link 0-1 @ 10%"].false_positives == 0

    def test_shrink_recovery_completes_degraded(self):
        from repro.experiments import run_shrink_recovery

        points = run_shrink_recovery(nodes=8, size=32, iterations=3,
                                     kill_counts=(1,))
        assert points and all(p.completed for p in points)
        for p in points:
            assert p.overhead_pct > 0
            assert p.throughput < p.baseline_throughput
            assert p.detect_ms > 0 and p.restripe_bytes > 0

    def test_formatting(self, detection):
        from repro.experiments import (
            format_reconfiguration,
            run_false_positives,
            run_shrink_recovery,
        )

        text = format_reconfiguration(
            detection,
            run_false_positives(nodes=4, soak_periods=40),
            run_shrink_recovery(nodes=8, size=32, iterations=3,
                                kill_counts=(1,)),
        )
        assert "Detection latency" in text and "False positives" in text
        assert "Shrinking recovery" in text and "fft2d" in text
