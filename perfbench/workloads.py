"""The benchmark's workloads and their seeded instance sets.

Each workload fixes a list of generator parameter sets, one per instance,
and a base generator seed; instance i is `generate_instance(base + i,
params[i])`.  The workload seed then relabels it (see `relabel`), so the
program sees different text for every seed while the work per pass stays
the same.  A fresh random draw per seed would not keep it: desk instances
cost between 0.3 s and 5 s each, so the suite time of five freshly drawn
instances varied by 23 % from seed to seed (interquartile range over
median, six draws), more than any useful regression bound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from monoinfer.encode import Strategy
from monoinfer.generate import PERTURBED, PLANTED, GeneratorParams, generate_instance
from monoinfer.network import (
    FixedPointObservation,
    InferenceProblem,
    NetworkVariable,
    Regulation,
)
from monoinfer.problemfile import serialize_problem

INSTANTIATED = (Strategy.INST_EAGER, Strategy.INST_LAZY)


@dataclass(frozen=True)
class Workload:
    name: str
    base_seed: int
    strategies: tuple[Strategy, ...]
    params: tuple[GeneratorParams, ...]  # one entry per instance


@dataclass(frozen=True)
class Instance:
    name: str
    planted: bool
    text: str


def _desk(i: int) -> GeneratorParams:
    # the criterion-8 schedule: 30..50 variables, arity 8..12; the first four
    # instances take arity 8..11
    return GeneratorParams(
        n_vars=30 + (5 * i) % 21,
        max_arity=8 + i % 5,
        essential_ratio=0.25,
        n_observations=2,
        mode=PLANTED,
    )


def _lemma_dense(i: int) -> GeneratorParams:
    return GeneratorParams(
        n_vars=30,
        max_arity=10,
        essential_ratio=1.0,
        n_observations=3,
        mode=PLANTED if i % 2 == 0 else PERTURBED,
    )


def _multivalued(i: int) -> GeneratorParams:
    # domain 3 at arity <= 3 and domain 4 at arity <= 2 keep quantified-
    # aggregated under a second per operation and far inside the 65,536
    # quantifier-instance budget
    domain = 3 + i % 2
    return GeneratorParams(
        n_vars=10 + (i // 2) % 5,
        max_arity=3 if domain == 3 else 2,
        domain_size=domain,
        n_observations=3,
        mode=PLANTED if (i // 2) % 2 == 0 else PERTURBED,
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "desk",
            9000,
            INSTANTIATED,
            tuple(_desk(i) for i in range(4)),
        ),
        Workload(
            "lemma-dense",
            9100,
            INSTANTIATED,
            tuple(_lemma_dense(i) for i in range(2)),
        ),
        Workload(
            "multivalued",
            9200,
            tuple(Strategy),
            tuple(_multivalued(i) for i in range(10)),
        ),
    )
}


def relabel(problem: InferenceProblem, rng: random.Random) -> InferenceProblem:
    """A copy with fresh variable names and shuffled regulation lines.

    The variable order and the observation order stay: they fix argument
    positions and the order of the encoding's conjuncts, and with them the
    SAT search.  Shuffling them as well made desk's median latencies differ
    by up to 28 % from seed to seed, more than any useful bound.
    """
    numbers = rng.sample(range(10 * len(problem.variables)), len(problem.variables))
    renamed = {v: NetworkVariable(f"v{n}", v.domain) for v, n in zip(problem.variables, numbers)}
    regulations = [
        Regulation(renamed[r.source], renamed[r.target], r.sign, r.essential)
        for r in problem.regulations
    ]
    rng.shuffle(regulations)
    observations = [
        FixedPointObservation.of([(renamed[v], value) for v, value in obs.assignments], obs.name)
        for obs in problem.observations
    ]
    return InferenceProblem([renamed[v] for v in problem.variables], regulations, observations)


def generate(workload: Workload, index: int) -> InferenceProblem:
    return generate_instance(workload.base_seed + index, workload.params[index])


def label(workload: Workload, problem: InferenceProblem, seed: int, index: int) -> Instance:
    """Instance `index`, relabelled for this seed, as text."""
    problem = relabel(problem, random.Random(f"{seed}/{index}"))
    planted = workload.params[index].mode == PLANTED
    return Instance(f"{workload.name}-{index}", planted, serialize_problem(problem))
