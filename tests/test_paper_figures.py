"""Paper figures that have no other tier-1 test, checked against the
committed numbers in EXPERIMENTS.md.

Virtual latencies are deterministic, so the reduced protocol below gives
the same ratios as the full 10 x 100 protocol with jitter disabled.
"""

from repro.core.atot import (
    AnnealConfig,
    GaConfig,
    MappingProblem,
    genetic_algorithm,
    random_mapping,
    simulated_annealing,
)
from repro.core.model import round_robin_mapping
from repro.experiments import (
    Protocol,
    format_fault_tolerance,
    measure_hand,
    measure_sage,
    run_fault_tolerance,
)
from repro.experiments.atot_study import radar_chain_model
from repro.machine import cspi

PROTOCOL = Protocol(runs=1, iterations=5, jitter_sigma=0.0)

#: EXPERIMENTS.md, "Scaling — node-count speedup": hand-coded speedup over
#: one node, 1024^2, CSPI.
SCALING_TABLE = {
    "fft2d": {2: 1.97, 4: 3.91, 8: 7.75},
    "corner_turn": {2: 1.66, 4: 3.06, 8: 5.54},
}


def test_scaling_with_node_count():
    """§3.1 "several node configurations": the compute-bound FFT scales
    near-linearly, the all-to-all-bound corner turn sub-linearly, and SAGE
    scales like hand code (Table 1.0's constant-fraction premise)."""
    platform = cspi()
    speedups = {}
    for app in SCALING_TABLE:
        speedups[app] = {}
        for variant, fn in (("hand", measure_hand), ("sage", measure_sage)):
            lat = {n: fn(app, platform, n, 1024, PROTOCOL).latency
                   for n in (1, 2, 4, 8)}
            speedups[app][variant] = {n: lat[1] / lat[n] for n in (2, 4, 8)}

    for app, row in SCALING_TABLE.items():
        assert {n: round(s, 2) for n, s in speedups[app]["hand"].items()} == row

    fft_hand = speedups["fft2d"]["hand"]
    ct_hand = speedups["corner_turn"]["hand"]
    # FFT: near-linear (>= 75% parallel efficiency at 8 nodes).
    assert fft_hand[8] > 6.0
    # Corner turn: all-to-all limited, clearly sub-linear vs the FFT.
    assert ct_hand[8] < fft_hand[8]
    # SAGE scales like hand code (within 20% relative at every point).
    for app in speedups:
        for n in (2, 4, 8):
            h, s = speedups[app]["hand"][n], speedups[app]["sage"][n]
            assert abs(h - s) / h < 0.2, (app, n, h, s)


def test_ga_vs_annealing():
    """Mapping-search ablation: GA (the paper's choice, §1.1) vs simulated
    annealing on the same objective, both from the same random start."""
    app = radar_chain_model(n=128, threads=4)
    problem = MappingProblem(app, cspi(), 4)
    seed = problem.encode(round_robin_mapping(app, 4))
    rnd = problem.encode(random_mapping(app, 4, seed=11))
    ga = genetic_algorithm(
        len(problem.slots), 4, problem.fitness,
        GaConfig(population=30, generations=20, seed=1), seeds=[rnd],
    )
    sa = simulated_annealing(
        len(problem.slots), 4, problem.fitness,
        AnnealConfig(steps=1500, seed=1), start=rnd,
    )
    random_fitness = problem.fitness(rnd)
    # Both searchers improve a random start dramatically; the best of the
    # two lands at (or very near) the round-robin optimum.  At this budget
    # the annealer's local moves typically edge out the GA on this regular
    # chain — the GA's production advantage is its seeded population (see
    # optimize_mapping, which never starts from random).
    assert ga.best_fitness < random_fitness * 0.5
    assert sa.best_fitness < random_fitness * 0.5
    assert min(ga.best_fitness, sa.best_fitness) <= problem.fitness(seed) * 1.1


def test_fault_tolerance_quick():
    """R1 at quick protocol.  The headline contrasts must hold at any
    scale: fail_fast dies under sustained loss and under a node crash,
    while retry and checkpoint_restart complete every seeded run."""
    points = run_fault_tolerance(
        nodes=4, size=32, iterations=3, seeds=(11, 12), loss_rates=(0.05,),
    )
    by = {(p.app, p.scenario, p.policy): p for p in points}
    apps = ("corner_turn", "fft2d")
    # 2 apps x (baseline + 2x loss + 2x crash + degraded) rows.
    assert len(points) == len(apps) * 6

    for app in apps:
        base = by[(app, "fault-free", "fail_fast")]
        assert base.completion_rate == 1.0
        assert base.overhead_pct == 0.0

        lossy_ff = by[(app, "loss 5%", "fail_fast")]
        lossy_rt = by[(app, "loss 5%", "retry")]
        assert lossy_ff.completion_rate < 1.0
        assert lossy_rt.completion_rate == 1.0
        assert lossy_rt.retries > 0
        assert lossy_rt.makespan_ms > base.makespan_ms

        crash_ff = by[(app, "node crash", "fail_fast")]
        crash_cr = by[(app, "node crash", "checkpoint_restart")]
        assert crash_ff.completion_rate == 0.0
        assert crash_cr.completion_rate == 1.0
        assert crash_cr.restores > 0

        degraded = by[(app, "link 0-1 @ 25%", "retry")]
        assert degraded.completion_rate == 1.0
        assert degraded.throughput < base.throughput

    text = format_fault_tolerance(points)
    assert "R1: fault tolerance" in text
    assert "checkpoint_restart" in text
