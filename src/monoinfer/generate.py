"""Seeded random instance generation with planted ground truth.

Planted mode builds a hidden model first -- clamped signed threshold tables,
which are monotone/anti-monotone in their signed arguments by construction
and pass through a chosen planted state -- and then emits genuine fixed
points of that model as (fully observed) observations, so the instance is
satisfiable by construction.  Essential flags are only placed where the
hidden table really depends on the regulator, which keeps the guarantee
intact.  Perturbed mode flips one observed value, which usually (not
always) makes the instance unsatisfiable.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional

from .network import (
    FixedPointObservation,
    InferenceProblem,
    NetworkVariable,
    ProblemError,
    Regulation,
    Sign,
)
from .terms import BOOL, bounded_int

PLANTED = "planted"
PERTURBED = "perturbed"


@dataclass
class GeneratorParams:
    n_vars: int = 5
    max_arity: int = 3
    domain_size: int = 2  # 2 -> Boolean; d > 2 -> integer domain 0..d-1
    sign_ratio: float = 0.8  # fraction of regulations carrying a sign
    essential_ratio: float = 0.5  # fraction of dependent regulations flagged
    n_observations: int = 2
    mode: str = PLANTED
    fixed_point_probes: int = 64  # trajectory restarts when hunting fixed points

    def validate(self) -> None:
        if self.n_vars < 1:
            raise ProblemError("n_vars must be at least 1")
        if not 1 <= self.max_arity:
            raise ProblemError("max_arity must be at least 1")
        if self.domain_size < 2:
            raise ProblemError("domain_size must be at least 2")
        if not 0.0 <= self.sign_ratio <= 1.0:
            raise ProblemError("sign_ratio must lie in [0, 1]")
        if not 0.0 <= self.essential_ratio <= 1.0:
            raise ProblemError("essential_ratio must lie in [0, 1]")
        if self.n_observations < 1:
            raise ProblemError("n_observations must be at least 1")
        if self.mode not in (PLANTED, PERTURBED):
            raise ProblemError(f"unknown mode {self.mode!r}")


class _ThresholdFunction:
    """clamp(c0 + sum of signed unit-weight terms + per-value offsets).

    Monotone in positively weighted arguments and anti-monotone in
    negatively weighted ones for any offsets, so sign consistency holds by
    construction; c0 is chosen afterwards to interpolate the planted row.
    """

    def __init__(self, rng: random.Random, arity: int, signs: list[str], lo: int, hi: int):
        self.lo = lo
        self.hi = hi
        self.weights: list[int] = []
        self.offsets: list[Optional[dict[int, int]]] = []
        for sign in signs:
            if sign == Sign.MONOTONE:
                self.weights.append(rng.randint(1, 2))
                self.offsets.append(None)
            elif sign == Sign.ANTI_MONOTONE:
                self.weights.append(-rng.randint(1, 2))
                self.offsets.append(None)
            else:
                self.weights.append(0)
                span = hi - lo
                self.offsets.append(
                    {v: rng.randint(-span, span) for v in range(lo, hi + 1)}
                )
        self.c0 = 0

    def raw(self, args: tuple[int, ...]) -> int:
        total = self.c0
        for value, weight, offset in zip(args, self.weights, self.offsets):
            if offset is None:
                total += weight * value
            else:
                total += offset[value]
        return total

    def __call__(self, args: tuple[int, ...]) -> int:
        return max(self.lo, min(self.hi, self.raw(args)))

    def interpolate(self, point: tuple[int, ...], value: int) -> None:
        """Shift c0 so the function passes exactly through (point, value)."""
        self.c0 += value - self.raw(point)


def generate_instance(seed: int, params: GeneratorParams) -> InferenceProblem:
    """Deterministic in (seed, params); see the module docstring for modes."""
    params.validate()
    rng = random.Random(seed)
    domain = BOOL if params.domain_size == 2 else bounded_int(0, params.domain_size - 1)
    lo, hi = 0, params.domain_size - 1
    variables = [NetworkVariable(f"v{i}", domain) for i in range(params.n_vars)]
    # variables are referred to by position below: states are tuples in
    # variable order, so a trajectory step hashes no variable

    # influence graph: each variable gets 1..max_arity distinct regulators
    regulators: list[list[int]] = []
    signs: dict[tuple[int, int], str] = {}
    for target in range(params.n_vars):
        arity = rng.randint(1, min(params.max_arity, params.n_vars))
        sources = sorted(rng.sample(range(params.n_vars), arity))
        regulators.append(sources)
        for source in sources:
            if rng.random() < params.sign_ratio:
                sign = Sign.MONOTONE if rng.random() < 0.5 else Sign.ANTI_MONOTONE
            else:
                sign = Sign.UNKNOWN
            signs[source, target] = sign

    # hidden ground-truth tables through a planted state
    planted_state = tuple(rng.randint(lo, hi) for _ in variables)
    hidden: list[_ThresholdFunction] = []
    for target, sources in enumerate(regulators):
        fn = _ThresholdFunction(
            rng, len(sources), [signs[source, target] for source in sources], lo, hi
        )
        fn.interpolate(tuple(planted_state[s] for s in sources), planted_state[target])
        hidden.append(fn)

    def step(state: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(
            fn(tuple(state[s] for s in sources)) for fn, sources in zip(hidden, regulators)
        )

    # observations: genuine fixed points found by trajectory probes
    fixed_points = [planted_state]
    for _ in range(params.fixed_point_probes):
        if len(fixed_points) >= params.n_observations:
            break
        state = tuple(rng.randint(lo, hi) for _ in variables)
        for _ in range(4 * params.n_vars + 8):
            nxt = step(state)
            if nxt == state:
                break
            state = nxt
        if step(state) == state and state not in fixed_points:
            fixed_points.append(state)
    fixed_points = fixed_points[: params.n_observations]

    # essential flags only where the hidden table genuinely depends on the arg
    regulations = []
    for target, sources in enumerate(regulators):
        for position, source in enumerate(sources):
            depends = _depends_on(hidden[target], len(sources), position, lo, hi)
            essential = depends and rng.random() < params.essential_ratio
            regulations.append(
                Regulation(
                    variables[source], variables[target], signs[source, target], essential
                )
            )

    observations = []
    for i, state in enumerate(fixed_points):
        pairs = [
            (v, bool(value) if v.is_boolean else value) for v, value in zip(variables, state)
        ]
        observations.append(FixedPointObservation.of(pairs, f"F{i + 1}"))

    if params.mode == PERTURBED:
        index = rng.randrange(len(observations))
        obs = observations[index]
        pairs = list(obs.assignments)
        which = rng.randrange(len(pairs))
        var, value = pairs[which]
        others = [v for v in var.values() if v != value]
        pairs[which] = (var, rng.choice(others))
        observations[index] = FixedPointObservation.of(pairs, obs.name)

    return InferenceProblem(variables, regulations, observations)


def _depends_on(
    fn: _ThresholdFunction,
    arity: int,
    position: int,
    lo: int,
    hi: int,
) -> bool:
    """Exact essentiality of the hidden table in one argument (grid scan)."""
    other_domains = [range(lo, hi + 1) for i in range(arity) if i != position]
    for context in itertools.product(*other_domains):
        outputs = set()
        for value in range(lo, hi + 1):
            args = list(context[:position]) + [value] + list(context[position:])
            outputs.add(fn(tuple(args)))
        if len(outputs) > 1:
            return True
    return False
