"""AToT tests: GA core, mapping objectives, partition optimisation, scheduling."""

import pytest

from repro.apps import corner_turn_model, fft2d_model
from repro.core.atot import (
    GaConfig,
    MappingObjective,
    MappingProblem,
    estimate_thread_flops,
    genetic_algorithm,
    list_schedule,
    optimize_mapping,
    random_mapping,
)
from repro.core.model import round_robin_mapping, single_node_mapping
from repro.machine import cspi


class TestGaCore:
    def test_finds_trivial_optimum(self):
        # Minimise sum of genes: optimum is all zeros.
        result = genetic_algorithm(
            gene_count=8,
            gene_values=4,
            fitness=lambda ch: float(sum(ch)),
            config=GaConfig(population=40, generations=40, seed=1),
        )
        assert result.best == (0,) * 8
        assert result.best_fitness == 0.0

    def test_history_monotone_nonincreasing(self):
        result = genetic_algorithm(
            8, 4, lambda ch: float(sum(ch)), GaConfig(population=30, generations=30, seed=2)
        )
        assert all(b <= a for a, b in zip(result.history, result.history[1:]))

    def test_deterministic_given_seed(self):
        fit = lambda ch: float(sum((g - 2) ** 2 for g in ch))  # noqa: E731
        r1 = genetic_algorithm(6, 5, fit, GaConfig(seed=7, generations=20))
        r2 = genetic_algorithm(6, 5, fit, GaConfig(seed=7, generations=20))
        assert r1.best == r2.best
        assert r1.history == r2.history

    def test_seed_individual_never_lost(self):
        # With a perfect seed and elitism, the result can't be worse.
        seed = (0, 0, 0, 0)
        result = genetic_algorithm(
            4, 4, lambda ch: float(sum(ch)),
            GaConfig(population=10, generations=5, seed=3),
            seeds=[seed],
        )
        assert result.best_fitness == 0.0

    def test_fitness_cache_reduces_evaluations(self):
        calls = []

        def fit(ch):
            calls.append(ch)
            return float(sum(ch))

        result = genetic_algorithm(4, 2, fit, GaConfig(population=20, generations=20, seed=5))
        assert result.evaluations == len(calls)
        assert result.evaluations <= 16  # only 2^4 distinct chromosomes exist

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            GaConfig(population=1)
        with pytest.raises(ValueError):
            GaConfig(population=2)  # no room beside the two elites

    def test_bad_seed_length(self):
        with pytest.raises(ValueError, match="seed chromosome"):
            genetic_algorithm(4, 2, lambda ch: 0.0, seeds=[(1, 2)])


class TestObjectives:
    def test_thread_flops_scale_with_slice(self):
        app = fft2d_model(64, 4)
        rowfft = app.instance_by_path("rowfft")
        f = estimate_thread_flops(app, rowfft, 0)
        # 16 rows x 5*64*log2(64) flops
        assert f == pytest.approx(16 * 5 * 64 * 6)

    def test_source_has_zero_flops(self):
        app = fft2d_model(64, 4)
        src = app.instance_by_path("src")
        assert estimate_thread_flops(app, src, 0) == 0.0

    def test_round_robin_is_balanced(self):
        app = fft2d_model(64, 4)
        obj = MappingObjective(app, cspi(), 4)
        bd = obj.breakdown(round_robin_mapping(app, 4))
        assert bd.load_imbalance == pytest.approx(1.0, abs=0.01)

    def test_single_node_maximally_imbalanced(self):
        app = fft2d_model(64, 4)
        obj = MappingObjective(app, cspi(), 4)
        bd = obj.breakdown(single_node_mapping(app))
        assert bd.load_imbalance == pytest.approx(4.0, abs=0.01)
        assert bd.comm_bytes == 0.0  # everything co-located

    def test_round_robin_comm_is_corner_turn_only(self):
        n, nodes = 64, 4
        app = fft2d_model(n, nodes)
        obj = MappingObjective(app, cspi(), nodes)
        bd = obj.breakdown(round_robin_mapping(app, nodes))
        # src->rowfft and colfft->sink are co-located; only the corner turn
        # crosses processors: off-diagonal tiles of the n x n complex64 matrix.
        tile = (n // nodes) * (n // nodes) * 8
        assert bd.comm_bytes == pytest.approx(nodes * (nodes - 1) * tile)

    def test_latency_constraint_penalty(self):
        app = fft2d_model(64, 4)
        obj = MappingObjective(app, cspi(), 4, latency_constraint=1e-9)
        bd = obj.breakdown(round_robin_mapping(app, 4))
        assert bd.penalty > 0

    def test_fitness_prefers_round_robin_over_random(self):
        app = fft2d_model(64, 8)
        obj = MappingObjective(app, cspi(), 8)
        rr = obj.fitness(round_robin_mapping(app, 8))
        rnd = obj.fitness(random_mapping(app, 8, seed=13))
        assert rr <= rnd


class TestOptimizeMapping:
    def test_never_worse_than_round_robin(self):
        app = corner_turn_model(64, 4)
        result = optimize_mapping(
            app, cspi(), 4, config=GaConfig(population=30, generations=15, seed=1)
        )
        assert result.fitness <= result.baseline_fitness
        assert 0.0 <= result.improvement <= 1.0 or result.improvement == 0.0

    def test_result_mapping_is_complete(self):
        app = corner_turn_model(64, 4)
        result = optimize_mapping(
            app, cspi(), 4, config=GaConfig(population=20, generations=10, seed=2)
        )
        result.mapping.validate(app, processor_count=4)

    def test_beats_random_start_significantly(self):
        app = fft2d_model(64, 8)
        obj = MappingObjective(app, cspi(), 8)
        result = optimize_mapping(
            app, cspi(), 8, config=GaConfig(population=40, generations=25, seed=3)
        )
        rnd = obj.fitness(random_mapping(app, 8, seed=99))
        assert result.fitness < rnd

    def test_problem_encode_decode_roundtrip(self):
        app = fft2d_model(64, 4)
        problem = MappingProblem(app, cspi(), 4)
        mapping = round_robin_mapping(app, 4)
        assert problem.decode(problem.encode(mapping)) == mapping

    def test_chromosome_length_checked(self):
        app = fft2d_model(64, 4)
        problem = MappingProblem(app, cspi(), 4)
        with pytest.raises(ValueError, match="chromosome length"):
            problem.decode((0,))


class TestListSchedule:
    def test_schedule_covers_all_threads(self):
        app = fft2d_model(64, 4)
        mapping = round_robin_mapping(app, 4)
        sched = list_schedule(app, mapping, cspi(), 4)
        assert len(sched.tasks) == sum(i.threads for i in app.function_instances())

    def test_dependencies_respected(self):
        app = fft2d_model(64, 4)
        sched = list_schedule(app, round_robin_mapping(app, 4), cspi(), 4)
        by_fid = {}
        for t in sched.tasks:
            by_fid.setdefault(t.function_id, []).append(t)
        # every colfft thread starts after some rowfft thread finished
        rowfft_min_finish = min(t.finish for t in by_fid[1])
        for t in by_fid[2]:
            assert t.start >= rowfft_min_finish

    def test_processor_exclusive(self):
        app = fft2d_model(64, 2)
        sched = list_schedule(app, single_node_mapping(app), cspi(), 2)
        tasks = sched.tasks_on(0)
        for t1, t2 in zip(tasks, tasks[1:]):
            assert t2.start >= t1.finish - 1e-12

    def test_makespan_positive(self):
        app = corner_turn_model(64, 4)
        sched = list_schedule(app, round_robin_mapping(app, 4), cspi(), 4)
        assert sched.makespan > 0

    def test_utilization_bounded(self):
        app = fft2d_model(64, 4)
        sched = list_schedule(app, round_robin_mapping(app, 4), cspi(), 4)
        utils = sched.processor_utilization(4)
        assert len(utils) == 4
        assert all(0.0 <= u <= 1.0 for u in utils)

    def test_balanced_mapping_shorter_makespan_than_single_node(self):
        app = fft2d_model(256, 4)
        balanced = list_schedule(app, round_robin_mapping(app, 4), cspi(), 4)
        lumped = list_schedule(app, single_node_mapping(app), cspi(), 4)
        assert balanced.makespan < lumped.makespan
