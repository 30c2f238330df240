"""Independent brute-force decision procedures for bounded instances.

Ground truth for property tests: table enumeration is a plain DFS over grid
rows (mixed-radix over outputs) with early rejection on the first violated
monotone pair, deliberately simple enough to trust.  Observation handling
decomposes per extension state, so per-variable enumeration stays
independent and the combinatorics stay within desk scale.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .model import FunctionTable, Model, Value, ValueVector, evaluate
from .terms import (
    Const,
    FunctionSymbol,
    IntLit,
    MonotonicitySpec,
    Term,
    collect_declarations,
    iter_subterms,
)
from .network import (
    InferenceProblem,
    NetworkVariable,
    ProblemError,
    UpdateFunctionTable,
)

DEFAULT_BUDGET = 1 << 20


class OracleBudgetError(RuntimeError):
    """Search space exceeds the configured budget; shrink the instance."""


@dataclass
class OracleResult:
    verdict: str  # "sat" | "unsat"
    tables: Optional[list[UpdateFunctionTable]] = None

    @property
    def is_sat(self) -> bool:
        return self.verdict == "sat"


class _Budget:
    __slots__ = ("remaining",)

    def __init__(self, limit: int):
        self.remaining = limit

    def spend(self, amount: int = 1) -> None:
        self.remaining -= amount
        if self.remaining < 0:
            raise OracleBudgetError("enumeration budget exceeded")


def _dominance_pairs(
    points: Sequence[ValueVector], mono: frozenset[int], anti: frozenset[int]
) -> list[list[tuple[int, int]]]:
    """comp[j] lists (i, rel) for i < j, rel=+1 if points[i] precedes points[j]
    in the specification order, rel=-1 for the converse."""

    def precedes(p: ValueVector, q: ValueVector) -> bool:
        for k in range(len(p)):
            i = k + 1
            if i in mono:
                if not p[k] <= q[k]:
                    return False
            elif i in anti:
                if not q[k] <= p[k]:
                    return False
            elif p[k] != q[k]:
                return False
        return True

    comp: list[list[tuple[int, int]]] = [[] for _ in points]
    for j in range(len(points)):
        for i in range(j):
            if precedes(points[i], points[j]):
                comp[j].append((i, 1))
            elif precedes(points[j], points[i]):
                comp[j].append((i, -1))
    return comp


def _essential_ok(
    points: Sequence[ValueVector], outputs: Sequence[Value], positions: Sequence[int]
) -> bool:
    for position in positions:
        idx = position - 1
        groups: dict[tuple, set] = {}
        for point, out in zip(points, outputs):
            context = point[:idx] + point[idx + 1 :]
            groups.setdefault(context, set()).add(out)
        if not any(len(v) > 1 for v in groups.values()):
            return False
    return True


def enumerate_tables(
    arg_domains: Sequence[Sequence[Value]],
    out_values: Sequence[Value],
    mono: frozenset[int],
    anti: frozenset[int],
    essential_positions: Sequence[int] = (),
    forced: Optional[dict[ValueVector, Value]] = None,
    budget: Optional[_Budget] = None,
) -> Iterator[dict[ValueVector, Value]]:
    """All complete tables satisfying the sign, essentiality and forced-row
    constraints, in deterministic mixed-radix order.  `out_values` must be
    ascending; a range is sliced and tested by its bounds, never listed."""
    forced = forced or {}
    budget = budget or _Budget(DEFAULT_BUDGET)
    points = list(itertools.product(*arg_domains))
    grid = set(points)
    for point, value in forced.items():
        if point not in grid:
            raise ProblemError(f"forced row {point} outside the grid")
        if value not in out_values:
            raise ProblemError(f"forced output {value!r} outside the target domain")
    comp = _dominance_pairs(points, mono, anti)
    outputs: list[Value] = [None] * len(points)  # type: ignore[list-item]

    def dfs(j: int) -> Iterator[dict[ValueVector, Value]]:
        budget.spend()
        if j == len(points):
            if _essential_ok(points, outputs, essential_positions):
                yield dict(zip(points, outputs))
            return
        point = points[j]
        choices = [forced[point]] if point in forced else out_values
        # the outputs consistent with the earlier rows are one slice of the
        # ascending choices, so every output tried spends budget
        lo = max((outputs[i] for i, rel in comp[j] if rel > 0), default=None)
        hi = min((outputs[i] for i, rel in comp[j] if rel < 0), default=None)
        start = 0 if lo is None else bisect.bisect_left(choices, lo)
        stop = len(choices) if hi is None else bisect.bisect_right(choices, hi)
        for out in choices[start:stop]:
            outputs[j] = out
            yield from dfs(j + 1)

    yield from dfs(0)


def _observation_extensions(
    problem: InferenceProblem, budget: _Budget
) -> list[list[dict[NetworkVariable, Value]]]:
    """Per observation: every full state extending the partial assignment."""
    out = []
    for obs in problem.observations:
        free = [v for v in problem.variables if obs.value_of(v) is None]
        budget.spend(math.prod(v.domain.size() for v in free))
        base = {v: obs.value_of(v) for v in problem.variables}
        states = []
        for combo in itertools.product(*(v.values() for v in free)):
            state = dict(base)
            state.update(zip(free, combo))
            states.append(state)
        out.append(states)
    return out


def _forced_rows(
    problem: InferenceProblem,
    states: Sequence[dict[NetworkVariable, Value]],
) -> Optional[dict[NetworkVariable, dict[ValueVector, Value]]]:
    """Fixed rows each update table must satisfy for every state in `states`
    to be a fixed point; None if two states force the same row differently."""
    forced: dict[NetworkVariable, dict[ValueVector, Value]] = {}
    for var in problem.variables:
        regulators = problem.regulators_of(var)
        rows = forced[var] = {}
        for state in states:
            point = tuple(state[r] for r in regulators)
            value = state[var]
            known = rows.get(point)
            if known is not None and known != value:
                return None
            rows[point] = value
    return forced


def _tables_of(
    problem: InferenceProblem,
    var: NetworkVariable,
    forced: Optional[dict[ValueVector, Value]],
    budget: _Budget,
) -> Iterator[dict[ValueVector, Value]]:
    """Every table of `var`'s update symbol meeting its regulation signs,
    its essential regulations and the forced rows."""
    func = problem.signature[var]
    # every grid row spends budget: refuse a grid over it before listing an axis
    size = math.prod(s.size() for s in func.arg_sorts)
    if size > budget.remaining:
        raise OracleBudgetError(f"{func.name}: grid of {size} points exceeds the budget")
    essential = [i for i, reg in enumerate(problem.inputs[var], start=1) if reg.essential]
    # a range is iterated lazily and tested by its bounds, so a huge result
    # domain meets the budget instead of being listed
    bounds = func.result_sort.bounds
    outputs = func.result_sort.values() if bounds is None else range(bounds[0], bounds[1] + 1)
    return enumerate_tables(
        [s.values() for s in func.arg_sorts],
        outputs,
        problem.spec.monotone(func),
        problem.spec.anti_monotone(func),
        essential,
        forced,
        budget,
    )


def oracle_inference(
    problem: InferenceProblem, budget: int = DEFAULT_BUDGET
) -> OracleResult:
    """Exhaustively decide an inference problem over bounded domains.

    Enumerates, per choice of fixed-point extension states, one complete
    sign- and essentiality-consistent table per variable through the forced
    rows; Sat (with witness tables) iff some choice succeeds.
    """
    if not problem.all_bounded():
        raise ProblemError("oracle requires bounded domains")
    tracker = _Budget(budget)
    extensions = _observation_extensions(problem, tracker)
    for combo in itertools.product(*extensions):
        forced = _forced_rows(problem, combo)
        if forced is None:
            continue
        witness = []
        for var in problem.variables:
            rows = next(_tables_of(problem, var, forced[var], tracker), None)
            if rows is None:
                break
            witness.append(UpdateFunctionTable(problem.signature[var], rows))
        else:
            return OracleResult("sat", witness)
    return OracleResult("unsat")


def count_solutions(problem: InferenceProblem, budget: int = DEFAULT_BUDGET) -> int:
    """Number of update-table combinations passing all checks.

    Fully observed fixed points decouple the variables, so the count is the
    product of per-variable counts; partially observed instances fall back
    to enumerating candidate combinations (tiny instances only).
    """
    if not problem.all_bounded():
        raise ProblemError("oracle requires bounded domains")
    tracker = _Budget(budget)
    fully_observed = all(
        all(obs.value_of(v) is not None for v in problem.variables)
        for obs in problem.observations
    )
    if fully_observed:
        states = [
            {v: obs.value_of(v) for v in problem.variables}
            for obs in problem.observations
        ]
        forced = _forced_rows(problem, states)
        if forced is None:
            return 0
        total = 1
        for var in problem.variables:
            total *= sum(1 for _ in _tables_of(problem, var, forced[var], tracker))
            if total == 0:
                return 0
        return total
    # general path: candidate lists per variable, observation check per tuple
    candidates: list[list[UpdateFunctionTable]] = []
    for var in problem.variables:
        func = problem.signature[var]
        tables = _tables_of(problem, var, None, tracker)
        candidates.append([UpdateFunctionTable(func, rows) for rows in tables])
    total = 0
    for combo in itertools.product(*candidates):
        tracker.spend()
        by_name = {t.symbol.name: t for t in combo}
        if all(_has_fixed_point(problem, by_name, obs, tracker) for obs in problem.observations):
            total += 1
    return total


def _has_fixed_point(
    problem: InferenceProblem,
    tables: dict[str, UpdateFunctionTable],
    observation,
    tracker: _Budget,
) -> bool:
    free = [v for v in problem.variables if observation.value_of(v) is None]
    base = {v: observation.value_of(v) for v in problem.variables}
    updates = [
        (var, tables[problem.signature[var].name], problem.regulators_of(var))
        for var in problem.variables
    ]
    for combo in itertools.product(*(v.values() for v in free)):
        tracker.spend()
        state = dict(base)
        state.update(zip(free, combo))
        if all(
            table.lookup(tuple(state[r] for r in regulators)) == state[var]
            for var, table, regulators in updates
        ):
            return True
    return False


# -- direct (T, M)-satisfiability over a finite grid ------------------------------


def oracle_mono_sat(
    formula: Term,
    spec: MonotonicitySpec,
    grid: tuple[int, int],
    budget: int = DEFAULT_BUDGET,
) -> str:
    """Decide satisfiability with a monotonicity specification by enumerating
    finite structures: every integer constant and function value ranges over
    the grid interval.  Returns "sat" or "unsat".

    Precondition: every integer literal in the formula lies within the grid
    (otherwise application lookups would leave the enumerated tables).
    """
    lo, hi = grid
    int_values: list[Value] = list(range(lo, hi + 1))
    bool_values: list[Value] = [False, True]
    for t in iter_subterms(formula):
        if isinstance(t, IntLit) and not lo <= t.value <= hi:
            raise ProblemError(f"integer literal {t.value} outside grid {grid}")
    declarations = collect_declarations([formula])
    consts = [d for d in declarations if isinstance(d, Const)]
    funcs = [d for d in declarations if isinstance(d, FunctionSymbol)]
    tracker = _Budget(budget)

    def values_for(sort) -> list[Value]:
        return bool_values if sort.is_bool else int_values

    table_choices = []
    for func in funcs:
        mono = spec.monotone(func)
        anti = spec.anti_monotone(func)
        tables = list(
            enumerate_tables(
                [values_for(s) for s in func.arg_sorts],
                values_for(func.result_sort),
                mono,
                anti,
                (),
                None,
                tracker,
            )
        )
        table_choices.append(tables)
    const_choices = [values_for(c.sort) for c in consts]
    for const_combo in itertools.product(*const_choices):
        for table_combo in itertools.product(*table_choices):
            tracker.spend()
            model = Model(
                {c.name: v for c, v in zip(consts, const_combo)},
                {
                    f.name: FunctionTable(rows, values_for(f.result_sort)[0])
                    for f, rows in zip(funcs, table_combo)
                },
            )
            if evaluate(formula, model):
                return "sat"
    return "unsat"
