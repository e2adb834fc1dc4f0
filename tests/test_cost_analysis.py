"""Static cost/critical-path predictor tests.

The headline claim: :func:`predict_makespan` tracks the discrete-event
simulator within 25% on the paper's Table-1 kernels — without simulating.
Plus the PERF advisory rules over the seeded corpus, zero findings on the
clean apps, and determinism of the report itself.
"""

import pytest

from tests.analysis_corpus import PERF_SEEDS
from repro.analysis import check_cost, predict_makespan
from repro.apps.models import corner_turn_model, fft2d_model
from repro.core.codegen import generate_glue
from repro.core.model import round_robin_mapping
from repro.core.runtime import DEFAULT_CONFIG, SageRuntime
from repro.machine import get_platform

#: The ISSUE's acceptance bound: static prediction within 25% of simulation.
ACCURACY = 0.25

_BUILDERS = {"fft2d": fft2d_model, "corner_turn": corner_turn_model}


def _simulated_makespan(app, mapping, nodes, iterations):
    glue = generate_glue(app, mapping, num_processors=nodes)
    runtime = SageRuntime.build(glue, get_platform("cspi"), config=DEFAULT_CONFIG.timing_only())
    return runtime.run(iterations=iterations).makespan


class TestAccuracy:
    @pytest.mark.parametrize("name", sorted(_BUILDERS))
    @pytest.mark.parametrize("nodes", [4, 8])
    def test_within_25_percent_of_simulation(self, name, nodes):
        app = _BUILDERS[name](64, nodes=nodes)
        mapping = round_robin_mapping(app, nodes)
        predicted = predict_makespan(
            app, mapping, nodes, get_platform("cspi"), iterations=5
        ).makespan
        simulated = _simulated_makespan(app, mapping, nodes, iterations=5)
        error = abs(predicted - simulated) / simulated
        assert error <= ACCURACY, (
            f"{name} @ {nodes}n: predicted {predicted:.6f}s vs simulated "
            f"{simulated:.6f}s ({error:.1%} > {ACCURACY:.0%})"
        )

    def test_iterations_scale_serial_makespan(self):
        app = fft2d_model(64, nodes=4)
        mapping = round_robin_mapping(app, 4)
        platform = get_platform("cspi")
        one = predict_makespan(app, mapping, 4, platform, iterations=1)
        five = predict_makespan(app, mapping, 4, platform, iterations=5)
        # default config serializes iterations (max_in_flight=1)
        assert five.makespan == pytest.approx(5 * one.makespan)


class TestSeededDefects:
    @pytest.mark.parametrize(
        "name,factory,rule", PERF_SEEDS, ids=[s[0] for s in PERF_SEEDS]
    )
    def test_seed_triggers_its_rule(self, name, factory, rule):
        app, mapping, nprocs, budget = factory()
        report = predict_makespan(app, mapping, nprocs, get_platform("cspi"))
        findings = check_cost(report, budget=budget)
        assert any(f.rule == rule for f in findings), (
            f"seed {name!r} did not trigger {rule}; got "
            f"{[f.render() for f in findings]}"
        )

    def test_perf_rules_are_advisory(self):
        for name, factory, _rule in PERF_SEEDS:
            app, mapping, nprocs, budget = factory()
            report = predict_makespan(
                app, mapping, nprocs, get_platform("cspi")
            )
            for f in check_cost(report, budget=budget):
                assert f.severity in ("warning", "info"), (name, f.render())


class TestCleanApps:
    @pytest.mark.parametrize("name", sorted(_BUILDERS))
    @pytest.mark.parametrize("nodes", [4, 8])
    def test_zero_findings_on_clean_apps(self, name, nodes):
        app = _BUILDERS[name](64, nodes=nodes)
        mapping = round_robin_mapping(app, nodes)
        report = predict_makespan(app, mapping, nodes, get_platform("cspi"))
        findings = check_cost(report)
        assert not findings, [f.render() for f in findings]


class TestReportShape:
    def test_prediction_is_deterministic(self):
        app = fft2d_model(64, nodes=4)
        mapping = round_robin_mapping(app, 4)
        platform = get_platform("cspi")
        a = predict_makespan(app, mapping, 4, platform, iterations=3)
        b = predict_makespan(app, mapping, 4, platform, iterations=3)
        assert a.to_dict() == b.to_dict()

    def test_report_dict_shape(self):
        app = corner_turn_model(64, nodes=4)
        mapping = round_robin_mapping(app, 4)
        report = predict_makespan(app, mapping, 4, get_platform("cspi"))
        doc = report.to_dict()
        assert doc["platform"].lower() == "cspi"
        assert doc["nprocs"] == 4
        assert doc["makespan_s"] > 0
        assert doc["iteration_latency_s"] > 0
        # link keys are "src->dst" strings with positive byte loads
        for key, nbytes in doc["link_bytes"].items():
            src, _, dst = key.partition("->")
            assert src.isdigit() and dst.isdigit()
            assert nbytes > 0
        # the corner turn is communication-bound: transfers dominate
        assert report.comm_fraction > 0

    def test_accounted_time_is_positive(self):
        app = fft2d_model(64, nodes=4)
        mapping = round_robin_mapping(app, 4)
        report = predict_makespan(app, mapping, 4, get_platform("cspi"))
        assert report.compute_s > 0
        assert report.transfer_s > 0
        assert report.period <= report.iteration_latency
