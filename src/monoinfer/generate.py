"""Seeded random instance generation with planted ground truth.

Planted mode builds a hidden model first -- clamped signed threshold tables,
which are monotone/anti-monotone in their signed arguments by construction
and pass through a chosen planted state -- and then emits genuine fixed
points of that model as (fully observed) observations, so the instance is
satisfiable by construction.  Each table is a constant plus one addend
list per argument, so a synchronous step only moves each variable's sum by
the addends of the regulators that changed, then clamps.  Fixed points are
hunted by trajectory probes; the update is deterministic, so a probe that
revisits a state is on a cycle without a fixed point and stops there.
Essentiality has a closed form over the addends.  Essential flags are only
placed where the hidden table really depends on the regulator, which keeps
the guarantee intact.  Perturbed mode flips one observed value, which
usually (not always) makes the instance unsatisfiable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import compress
from operator import ne
from typing import Callable, Optional

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
FIXED_POINT_PROBES = 64  # trajectory restarts when hunting fixed points
State = tuple[int, ...]  # values in variable order, so a step hashes no variable


@dataclass
class GeneratorParams:
    n_vars: int = 5
    max_arity: int = 3
    domain_size: int = 2  # 2 -> Boolean; d > 2 -> integer domain 0..d-1
    sign_ratio: float = 0.8  # fraction of regulations carrying a sign
    essential_ratio: float = 0.5  # fraction of dependent regulations flagged
    n_observations: int = 2
    mode: str = PLANTED

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
    """clamp(c0 + one addend per argument) over the domain 0..hi.

    `addends[p][x]` is argument p's addend at value x: `w * x` for a signed
    unit weight w of 1 or 2 (negative when anti-monotone), or a random
    offset per value when unsigned.  The table is monotone in positively
    weighted arguments and anti-monotone in negatively weighted ones for any
    offsets, so sign consistency holds by construction; c0 is chosen
    afterwards to interpolate the planted row.
    """

    def __init__(self, rng: random.Random, signs: list[str], hi: int):
        self.hi = hi
        self.addends: list[list[int]] = []
        for sign in signs:
            if sign == Sign.UNKNOWN:
                self.addends.append([rng.randint(-hi, hi) for _ in range(hi + 1)])
            else:
                weight = rng.randint(1, 2) * (1 if sign == Sign.MONOTONE else -1)
                self.addends.append([weight * x for x in range(hi + 1)])
        self.c0 = 0

    def interpolate(self, point: State, value: int) -> None:
        """Set c0 so the table passes exactly through (point, value)."""
        self.c0 = value - sum(addends[x] for addends, x in zip(self.addends, point))

    def depends_on(self, position: int) -> bool:
        """Exact essentiality of the table in one argument.

        With u and v the argument's least and greatest addends, the clamped
        table depends on it iff u < v and some sum r of c0 and one addend of
        every other argument has -v < r < hi - u.
        """
        u, v = min(self.addends[position]), max(self.addends[position])
        sums = {self.c0}
        for addends in self.addends[:position] + self.addends[position + 1 :]:
            sums = {r + a for r in sums for a in set(addends)}
        return u < v and any(-v < r < self.hi - u for r in sums)


def _probe(step: Callable[[State], State], state: State, limit: int) -> Optional[State]:
    """The fixed point the trajectory from `state` meets within `limit` steps, or None.

    Stops at the first revisited state: the trajectory has entered a cycle
    of two or more states, which holds no fixed point.
    """
    seen = {state}
    for _ in range(limit + 1):
        nxt = step(state)
        if nxt == state:
            return state
        if nxt in seen:
            return None
        seen.add(nxt)
        state = nxt
    return None


def generate_instance(seed: int, params: GeneratorParams) -> InferenceProblem:
    """Deterministic in (seed, params); see the module docstring for modes."""
    params.validate()
    rng = random.Random(seed)
    domain = BOOL if params.domain_size == 2 else bounded_int(0, params.domain_size - 1)
    lo, hi = 0, params.domain_size - 1
    variables = [NetworkVariable(f"v{i}", domain) for i in range(params.n_vars)]

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
        fn = _ThresholdFunction(rng, [signs[source, target] for source in sources], hi)
        fn.interpolate(tuple(planted_state[s] for s in sources), planted_state[target])
        hidden.append(fn)

    # a step updates the unclamped sums of the state it last saw by the
    # addend changes of the variables whose value differs, which gives the
    # same sums as adding afresh; the planted state's sums are its values
    readers: list[list[tuple[int, list[int]]]] = [[] for _ in variables]
    for target, (fn, sources) in enumerate(zip(hidden, regulators)):
        for addends, source in zip(fn.addends, sources):
            readers[source].append((target, addends))
    last, sums = planted_state, list(planted_state)

    def step(state: State) -> State:
        nonlocal last
        for i in compress(range(len(state)), map(ne, last, state)):
            for target, addends in readers[i]:
                sums[target] += addends[state[i]] - addends[last[i]]
        last = state
        return tuple(hi if r > hi else lo if r < lo else r for r in sums)

    # observations: genuine fixed points found by trajectory probes
    fixed_points = [planted_state]
    for _ in range(FIXED_POINT_PROBES):
        if len(fixed_points) >= params.n_observations:
            break
        start = tuple(rng.randint(lo, hi) for _ in variables)
        state = _probe(step, start, 4 * params.n_vars + 8)
        if state is not None and state not in fixed_points:
            fixed_points.append(state)
    fixed_points = fixed_points[: params.n_observations]

    # essential flags only where the hidden table genuinely depends on the arg
    regulations = []
    for target, sources in enumerate(regulators):
        for position, source in enumerate(sources):
            essential = (
                hidden[target].depends_on(position) and rng.random() < params.essential_ratio
            )
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

