"""Generic genetic algorithm core.

§1.1: *"the genetic algorithm based partitioning and mapping capability of
AToT assigns the application tasks to the multi-processor, heterogeneous
architecture."*

A plain, reproducible integer-chromosome GA: tournament selection, uniform
crossover, per-gene reset mutation, elitism, and a fitness cache.
Minimises the fitness function.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, List, Optional, Sequence, Tuple

__all__ = ["GaConfig", "GaResult", "genetic_algorithm"]

Chromosome = Tuple[int, ...]


@dataclass(frozen=True)
class GaConfig:
    """Hyper-parameters for one GA run: ``population`` individuals evolved
    for ``generations`` generations from the RNG ``seed``.  The operator
    settings are class constants: no caller runs with other values."""

    population: int = 60
    generations: int = 80
    seed: int = 0

    #: Individuals drawn per tournament selection.
    tournament: ClassVar[int] = 3
    #: Chance a child is a uniform crossover of its parents, not a copy.
    crossover_rate: ClassVar[float] = 0.9
    #: Per-gene chance of a reset to a random value.
    mutation_rate: ClassVar[float] = 0.05
    #: Best individuals carried into the next generation unchanged.
    elitism: ClassVar[int] = 2

    def __post_init__(self):
        if self.population <= self.elitism:
            raise ValueError(
                f"population must exceed the elitism of {self.elitism}")


@dataclass
class GaResult:
    """Best chromosome found plus convergence history."""

    best: Chromosome
    best_fitness: float
    history: List[float] = field(default_factory=list)  # best fitness per generation
    evaluations: int = 0


def genetic_algorithm(
    gene_count: int,
    gene_values: int,
    fitness: Callable[[Chromosome], float],
    config: GaConfig = GaConfig(),
    seeds: Optional[Sequence[Chromosome]] = None,
) -> GaResult:
    """Minimise ``fitness`` over chromosomes of ``gene_count`` genes in
    ``range(gene_values)``.

    ``seeds`` optionally injects known-good starting individuals (AToT seeds
    the GA with the round-robin layout so it never does worse than the
    naive mapping).
    """
    if gene_count < 1 or gene_values < 1:
        raise ValueError("gene_count and gene_values must be positive")
    rng = random.Random(config.seed)
    cache: Dict[Chromosome, float] = {}
    evaluations = 0

    def score(ch: Chromosome) -> float:
        nonlocal evaluations
        if ch not in cache:
            cache[ch] = fitness(ch)
            evaluations += 1
        return cache[ch]

    def random_chromosome() -> Chromosome:
        return tuple(rng.randrange(gene_values) for _ in range(gene_count))

    population: List[Chromosome] = []
    for s in seeds or []:
        if len(s) != gene_count:
            raise ValueError(f"seed chromosome has {len(s)} genes, expected {gene_count}")
        population.append(tuple(s))
    while len(population) < config.population:
        population.append(random_chromosome())
    population = population[: config.population]

    def tournament_pick(scored: List[Tuple[float, Chromosome]]) -> Chromosome:
        best = min(
            (scored[rng.randrange(len(scored))] for _ in range(config.tournament)),
            key=lambda fc: fc[0],
        )
        return best[1]

    def crossover(a: Chromosome, b: Chromosome) -> Chromosome:
        if rng.random() > config.crossover_rate or gene_count == 1:
            return a
        return tuple(x if rng.random() < 0.5 else y for x, y in zip(a, b))

    def mutate(ch: Chromosome) -> Chromosome:
        return tuple(
            rng.randrange(gene_values) if rng.random() < config.mutation_rate else g
            for g in ch
        )

    history: List[float] = []
    for _generation in range(config.generations):
        scored = sorted(((score(ch), ch) for ch in population), key=lambda fc: fc[0])
        history.append(scored[0][0])
        next_pop: List[Chromosome] = [ch for _, ch in scored[: config.elitism]]
        while len(next_pop) < config.population:
            parent_a = tournament_pick(scored)
            parent_b = tournament_pick(scored)
            next_pop.append(mutate(crossover(parent_a, parent_b)))
        population = next_pop

    final = sorted(((score(ch), ch) for ch in population), key=lambda fc: fc[0])
    history.append(final[0][0])
    return GaResult(
        best=final[0][1],
        best_fitness=final[0][0],
        history=history,
        evaluations=evaluations,
    )
