"""Logic-based model inference: influence graphs + fixed-point observations.

Translates an inference problem into a quantifier-free formula with a
monotonicity specification: an uninterpreted update function per variable
(`problem.signature`), whose arguments are the variable's incoming
regulations (`problem.inputs`, in the variable-list order of their sources),
essentiality constraints (some context where varying one regulator changes
the output), fixed-point constraints (one per observation), and bounds on
every bounded integer application and skolem constant, paired with
`problem.spec`.  Each constraint has one builder, told what stands for its
binders: a `Var` under an `Exists` for the public constraint forms, a fresh
Skolem constant for `encode_inference`, which so builds the skolemized
formula and notes its bounds in one pass.  Also decodes solver models back
into complete update tables, flat row-major output lists filled from each
symbol's monotone completion, and verifies them independently: sign and
essentiality on the steps between adjacent rows, read as strided slices of
those lists, fixed points by enumerating the unobserved variables.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Optional, Sequence

from .encode import monotonize_model
from .model import Model, Value, ValueVector
from .terms import (
    FALSE,
    TRUE,
    And,
    Apply,
    Cmp,
    CmpOp,
    Const,
    Exists,
    FunctionSymbol,
    IntLit,
    MonotonicitySpec,
    NameSupply,
    Sort,
    Term,
    Var,
    check_symbol_name,
    iter_subterms,
    lit as value_lit,
    mk_and,
    ne,
)


class ProblemError(ValueError):
    """Structurally invalid inference problem."""


class Sign:
    MONOTONE = "monotone"
    ANTI_MONOTONE = "anti-monotone"
    UNKNOWN = "unknown"
    ALL = (MONOTONE, ANTI_MONOTONE, UNKNOWN)


@dataclass(frozen=True)
class NetworkVariable:
    name: str
    domain: Sort

    def __post_init__(self):
        check_symbol_name(self.name)
        if self.domain.is_int:
            if self.domain.bounds is not None:
                lo, hi = self.domain.bounds
                if lo != 0 or hi < 1:
                    raise ProblemError(
                        f"{self.name}: integer domains must be 0..max with max >= 1"
                    )

    @property
    def is_boolean(self) -> bool:
        return self.domain.is_bool

    def values(self) -> list[Value]:
        return self.domain.values()


@dataclass(frozen=True)
class Regulation:
    source: NetworkVariable
    target: NetworkVariable
    sign: str = Sign.UNKNOWN
    essential: bool = False

    def __post_init__(self):
        if self.sign not in Sign.ALL:
            raise ProblemError(f"unknown regulation sign {self.sign!r}")


@dataclass(frozen=True)
class FixedPointObservation:
    """Partial assignment asserting a matching steady state exists."""

    assignments: tuple[tuple[NetworkVariable, Value], ...]
    name: str = ""

    def __post_init__(self):
        if not self.assignments:
            raise ProblemError("observation must assign at least one variable")
        seen = set()
        for var, value in self.assignments:
            if var.name in seen:
                raise ProblemError(f"observation assigns {var.name} twice")
            seen.add(var.name)
            # bool is an int subclass: 1 == True, so check the kind first
            if not isinstance(value, int) or isinstance(value, bool) != var.is_boolean:
                raise ProblemError(
                    f"value {value!r} does not have the sort of {var.name}"
                )
            bounds = var.domain.bounds
            if bounds is not None and not bounds[0] <= value <= bounds[1]:
                raise ProblemError(
                    f"value {value!r} outside the domain of {var.name}"
                )
        object.__setattr__(self, "_values", dict(self.assignments))

    def value_of(self, var: NetworkVariable) -> Optional[Value]:
        return self._values.get(var)

    @classmethod
    def of(cls, pairs, name: str = "") -> "FixedPointObservation":
        return cls(tuple(pairs), name)


@dataclass
class InferenceProblem:
    """An influence graph with fixed-point observations.

    Construction validates the problem and indexes it once: `inputs` (each
    variable's incoming regulations in argument order, i.e. in the
    variable-list order of their sources), `signature` (each variable's
    update symbol) and `spec` (their monotonicity specification).  Every
    reader walks that index by argument position, so the lists must not be
    mutated after construction.
    """

    variables: list[NetworkVariable]
    regulations: list[Regulation]
    observations: list[FixedPointObservation]

    def __post_init__(self):
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise ProblemError("duplicate variable names")
        # keyed by variable-list positions: small ints hash far faster than
        # variables, and sorting them orders each variable's inputs as the
        # list does
        position = {v: i for i, v in enumerate(self.variables)}
        incoming: list[dict[int, Regulation]] = [{} for _ in self.variables]
        for reg in self.regulations:
            source = position.get(reg.source)
            target = position.get(reg.target)
            if source is None or target is None:
                raise ProblemError(
                    f"regulation {reg.source.name} -> {reg.target.name} "
                    "references an undeclared variable"
                )
            if source in incoming[target]:
                raise ProblemError(
                    f"duplicate regulation {reg.source.name} -> {reg.target.name}"
                )
            incoming[target][source] = reg
        for obs in self.observations:
            for var, _ in obs.assignments:
                if var not in position:
                    raise ProblemError(
                        f"observation references undeclared variable {var.name}"
                    )
        self.inputs: dict[NetworkVariable, tuple[Regulation, ...]] = {}
        self.signature: dict[NetworkVariable, FunctionSymbol] = {}
        entries = {}
        for var, regs in zip(self.variables, incoming):
            inputs = tuple(regs[i] for i in sorted(regs))
            func = FunctionSymbol(
                f"f_{var.name}", [r.source.domain for r in inputs], var.domain
            )
            self.inputs[var] = inputs
            self.signature[var] = func
            entries[func] = (
                {i for i, r in enumerate(inputs, start=1) if r.sign == Sign.MONOTONE},
                {i for i, r in enumerate(inputs, start=1) if r.sign == Sign.ANTI_MONOTONE},
            )
        self.spec = MonotonicitySpec(entries)

    def regulators_of(self, target: NetworkVariable) -> list[NetworkVariable]:
        """Regulators in argument order."""
        return [r.source for r in self.inputs[target]]

    def all_bounded(self) -> bool:
        return all(v.domain.is_bounded for v in self.variables)


class UpdateFunctionTable:
    """Complete update table over the finite product grid of the regulators.

    `outputs` holds one output per grid point, in row-major order (the order
    of `itertools.product` over the argument sorts' values): the point whose
    i-th coordinate is the k-th value of its sort contributes k * strides[i]
    to its index.  `rows`, point to output, is built from it on each read.
    """

    def __init__(self, symbol: FunctionSymbol, rows: Mapping[ValueVector, Value]):
        """The table of `rows`, which must give every grid point, in any order."""
        grid = list(itertools.product(*(s.values() for s in symbol.arg_sorts)))
        missing = next((point for point in grid if point not in rows), None)
        if missing is not None and len(rows) == len(grid):
            raise ProblemError(f"{symbol.name}: table has no row {missing}")
        self._hold(symbol, [rows.get(point) for point in grid], len(rows))

    @classmethod
    def from_outputs(cls, symbol: FunctionSymbol, outputs: list[Value]) -> UpdateFunctionTable:
        """The table whose outputs, in row-major grid order, are `outputs`."""
        table = cls.__new__(cls)
        table._hold(symbol, outputs, len(outputs))
        return table

    def _hold(self, symbol: FunctionSymbol, outputs: list[Value], count: int) -> None:
        self.symbol = symbol
        self.outputs = outputs
        self.axes = [s.values() for s in symbol.arg_sorts]
        sizes = [len(values) for values in self.axes]
        self.strides = [math.prod(sizes[i + 1 :]) for i in range(len(sizes))]
        size = math.prod(sizes)
        if count != size:
            raise ProblemError(f"{symbol.name}: table has {count} rows, expected {size}")
        out_sort = symbol.result_sort
        if not out_sort.admits(outputs):
            k = next(k for k, out in enumerate(outputs) if not out_sort.admits([out]))
            raise ProblemError(
                f"{symbol.name}{self.point(k)}: output {outputs[k]!r} outside the target domain"
            )

    @property
    def rows(self) -> dict[ValueVector, Value]:
        return dict(zip(itertools.product(*self.axes), self.outputs))

    def point(self, k: int) -> ValueVector:
        """The grid point at index k of `outputs`."""
        return tuple(values[k // s % len(values)] for values, s in zip(self.axes, self.strides))

    def lookup(self, args: ValueVector) -> Value:
        index = zip(self.axes, args, self.strides)
        return self.outputs[sum(values.index(a) * stride for values, a, stride in index)]

    def __eq__(self, other):
        same = isinstance(other, UpdateFunctionTable) and other.symbol == self.symbol
        return same and other.outputs == self.outputs

    def __repr__(self):
        return f"UpdateFunctionTable({self.symbol.name}, {self.outputs!r})"


# what stands for a constraint's binder: told its name and sort, it returns
# the term the body uses in its place
Bind = Callable[[str, Sort], Term]
# told each operand of each comparison as a body is built, in preorder
Note = Callable[[Term], None]


def _var_binder(bound: list[Var]) -> Bind:
    """A binder that stands a `Var` for each binder and lists it in `bound`."""

    def bind(name: str, sort: Sort) -> Term:
        bound.append(Var(name, sort))
        return bound[-1]

    return bind


def essentiality_constraint(
    problem: InferenceProblem,
    target: NetworkVariable,
    position: int,
    simplify: bool = True,
    bind: Optional[Bind] = None,
    note: Optional[Note] = None,
) -> Term:
    """Existence of a context in which varying the regulator at argument
    `position` (1-based) changes the target's output: binders x, y for the
    regulator, then z<i> for each other argument i in order.  With
    simplification, a Boolean source is directly instantiated with
    true/false instead of two extra binders.  Without `bind`, each binder is
    a `Var` under one `Exists`; with it, the body alone, holding what `bind`
    returned.  `note`, if given, is told each comparison operand as it is
    built."""
    inputs = problem.inputs[target]
    source = inputs[position - 1].source
    if not inputs[position - 1].essential:
        raise ProblemError(
            f"regulation {source.name} -> {target.name} is not declared essential"
        )
    bound: list[Var] = []
    bind = bind or _var_binder(bound)
    if simplify and source.is_boolean:
        hi, lo = TRUE, FALSE
    else:
        hi = bind("x", source.domain)
        lo = bind("y", source.domain)
    context = {
        i: bind(f"z{i}", r.source.domain)
        for i, r in enumerate(inputs, start=1)
        if i != position
    }
    func = problem.signature[target]
    positions = range(1, len(inputs) + 1)
    app_hi = Apply(func, [context.get(i, hi) for i in positions])
    app_lo = Apply(func, [context.get(i, lo) for i in positions])
    if note is not None:
        note(app_hi)
        note(app_lo)
    body = ne(app_hi, app_lo)
    return Exists(bound, body) if bound else body


def fixed_point_constraint(
    problem: InferenceProblem,
    observation: FixedPointObservation,
    simplify: bool = True,
    bind: Optional[Bind] = None,
    note: Optional[Note] = None,
) -> Term:
    """Existence of a fixed point matching the partial observation, with a
    binder x_<v> for each variable v it leaves open, in variable order;
    `bind` and `note` as for `essentiality_constraint`.

    With simplification, observed values are propagated into all function
    applications so fully observed fixed points come out ground; without it,
    the raw schema quantifies over all variables and keeps the value
    equations as separate conjuncts.
    """
    bound: list[Var] = []
    bind = bind or _var_binder(bound)
    observed = [observation.value_of(var) for var in problem.variables]
    state: dict[NetworkVariable, Term] = {}
    for var, value in zip(problem.variables, observed):
        if simplify and value is not None:
            state[var] = value_lit(value)
        else:
            state[var] = bind(f"x_{var.name}", var.domain)
    conjuncts: list[Term] = []
    for var, value in zip(problem.variables, observed):
        app = Apply(problem.signature[var], [state[r.source] for r in problem.inputs[var]])
        if simplify and value is not None:
            operands = (app, value_lit(value))
        else:
            operands = (state[var], app)
        if note is not None:
            note(operands[0])
            note(operands[1])
        conjuncts.append(Cmp(CmpOp.EQ, *operands))
    if not simplify:
        for var, value in zip(problem.variables, observed):
            if value is not None:
                conjuncts.append(Cmp(CmpOp.EQ, state[var], value_lit(value)))
    body = mk_and(conjuncts)
    return Exists(bound, body) if bound else body


def bounds_constraints(formula: Term) -> list[Term]:
    """lo <= t <= hi for every bounded-integer application term and bounded
    skolem constant in the (already skolemized) formula, in preorder
    first-occurrence order.  The reference walk for the bounds that
    `encode_inference` notes as it builds its constraints."""
    out: list[Term] = []
    seen: set[Term] = set()
    for t in iter_subterms(formula):
        if t in seen:
            continue
        if isinstance(t, (Apply, Const)) and t.sort.is_int and t.sort.bounds:
            seen.add(t)
            out.extend(_bounds_of(t))
    return out


def _bounds_of(term: Term) -> tuple[Term, Term]:
    lo, hi = term.sort.bounds
    return Cmp(CmpOp.LE, IntLit(lo), term), Cmp(CmpOp.LE, term, IntLit(hi))


def encode_inference(
    problem: InferenceProblem, simplify: bool = True
) -> tuple[Term, MonotonicitySpec]:
    """The full encoding, paired with the monotonicity specification: the
    essentiality and fixed-point constraints, skolemized, then the bounds of
    every bounded-integer application and Skolem constant.  Built in one
    pass, equal to `skolemize` over the constraints' conjunction followed
    by `bounds_constraints`: binders draw fresh constants of one
    `NameSupply` constraint by constraint, in binder order, and comparison
    operands are noted as they are built, in preorder first occurrence."""
    supply = NameSupply()

    def bind(_name: str, sort: Sort) -> Term:
        return supply.fresh(sort)

    bounded: dict[Term, None] = {}  # insertion-ordered, first occurrence kept

    def note_bounded(operand: Term) -> None:
        if operand.sort.bounds is not None:
            bounded[operand] = None
        if type(operand) is Apply:
            for arg in operand.args:
                if arg.sort.bounds is not None:
                    bounded[arg] = None

    # only a bounded-integer variable's update results and Skolem constants
    # carry bounds, so an all-Boolean problem notes nothing
    any_bounded = any(v.domain.bounds is not None for v in problem.variables)
    note = note_bounded if any_bounded else None
    constraints: list[Term] = []
    for target in problem.variables:
        for position, reg in enumerate(problem.inputs[target], start=1):
            if reg.essential:
                constraints.append(
                    essentiality_constraint(problem, target, position, simplify, bind, note)
                )
    for obs in problem.observations:
        constraints.append(fixed_point_constraint(problem, obs, simplify, bind, note))
    # a lone conjunction lends its conjuncts to the top level, as the
    # skolemized formula would
    if len(constraints) == 1 and isinstance(constraints[0], And):
        constraints = list(constraints[0].args)
    bounds = [atom for term in bounded for atom in _bounds_of(term)]
    return mk_and(constraints + bounds), problem.spec


# -- decoding and verification ----------------------------------------------------


def decode_solution(
    model: Model, problem: InferenceProblem
) -> list[UpdateFunctionTable]:
    """Materialize the model over each finite regulator grid.

    Each symbol's monotone completion (`monotonize_model`) is filled into a
    flat row-major output list up-cube by up-cube
    (`MonotoneTable.grid_outputs`), so no grid point scans the rows."""
    if not problem.all_bounded():
        raise ProblemError("cannot decode tables over unbounded domains")
    completed = monotonize_model(model, problem.spec)
    tables = []
    for func in problem.signature.values():
        size = math.prod(s.size() for s in func.arg_sorts)
        if size > MAX_EXTENSION_STATES:
            raise ProblemError(
                f"{func.name}: grid of {size} points exceeds budget {MAX_EXTENSION_STATES}"
            )
        outputs = completed.functions[func.name].grid_outputs([s.values() for s in func.arg_sorts])
        if not func.result_sort.admits(outputs):
            # model values may exceed an integer domain only where the
            # formula never constrained the point; clamp into the domain
            lo, hi = func.result_sort.bounds
            outputs = [max(min(out, hi), lo) for out in outputs]
        tables.append(UpdateFunctionTable.from_outputs(func, outputs))
    return tables


@dataclass
class Violation:
    kind: str  # monotonicity | essentiality | fixed-point | structure
    detail: str


@dataclass
class VerificationResult:
    ok: bool
    violation: Optional[Violation] = None

    def __bool__(self):
        return self.ok


# the largest grid decode tabulates for one symbol, and the largest number of
# unobserved-variable assignments verify enumerates for one observation
MAX_EXTENSION_STATES = 1 << 20


def verify_solution(
    problem: InferenceProblem, tables: Sequence[UpdateFunctionTable]
) -> VerificationResult:
    """Check complete tables directly against the problem semantics:
    (1) every signed regulation is monotone/anti-monotone over the full grid,
    (2) every essential regulation changes the output in some context,
    both read off the steps between adjacent rows (order is transitive, and
    a context's outputs differ only if some adjacent step changes them):
    along argument i those are the outputs at index k and k + strides[i],
    compared slice against slice,
    (3) every observation extends to a fixed point of the table dynamics.
    Returns the first violation found; a sign violation is the first broken
    step in row-major order."""
    if not problem.all_bounded():
        return VerificationResult(
            False, Violation("structure", "unbounded domains cannot be verified")
        )
    by_name = {t.symbol.name: t for t in tables}
    for var in problem.variables:
        if problem.signature[var].name not in by_name:
            return VerificationResult(
                False, Violation("structure", f"missing table for {var.name}")
            )
    for var in problem.variables:
        table = by_name[problem.signature[var].name]
        for position, reg in enumerate(problem.inputs[var], start=1):
            if reg.sign != Sign.UNKNOWN:
                bad = _sign_violation(table, position, reg.sign)
                if bad is not None:
                    return VerificationResult(
                        False,
                        Violation(
                            "monotonicity",
                            f"{table.symbol.name} argument {position} "
                            f"({reg.source.name} -> {var.name}, {reg.sign}): "
                            f"rows {bad[0]} -> {bad[1]!r} and "
                            f"{bad[2]} -> {bad[3]!r}",
                        ),
                    )
            if reg.essential and not _is_essential(table, position):
                return VerificationResult(
                    False,
                    Violation(
                        "essentiality",
                        f"{table.symbol.name} ignores argument {position} "
                        f"({reg.source.name} -> {var.name})",
                    ),
                )
    for obs in problem.observations:
        if not _extends_to_fixed_point(problem, by_name, obs):
            label = obs.name or str(dict((v.name, val) for v, val in obs.assignments))
            return VerificationResult(
                False,
                Violation("fixed-point", f"observation {label} has no fixed-point extension"),
            )
    return VerificationResult(True)


Step = tuple[ValueVector, Value, ValueVector, Value]


def _step_slices(
    table: UpdateFunctionTable, position: int
) -> Iterator[tuple[list[Value], list[Value]]]:
    """Slices (lower, upper) of the outputs such that lower[j] and upper[j]
    sit at two points that differ only at `position`, the upper one holding
    the next larger value there: index k and k + stride.  Together the
    pairs cover every such step of the grid once."""
    outputs = table.outputs
    stride = table.strides[position - 1]
    span = stride * len(table.axes[position - 1])
    # a block of `span` outputs holds span - stride steps: slice each step
    # offset across the blocks, or each block, whichever makes fewer slices
    if span - stride <= len(outputs) // span:
        for start in range(span - stride):
            yield outputs[start::span], outputs[start + stride :: span]
    else:
        for start in range(0, len(outputs), span):
            yield outputs[start : start + span - stride], outputs[start + stride : start + span]


def _sign_violation(
    table: UpdateFunctionTable, position: int, sign: str
) -> Optional[Step]:
    """The first step, in row-major order of its lower point, that breaks
    the sign of the regulation at `position`."""
    broken = operator.gt if sign == Sign.MONOTONE else operator.lt
    if not any(any(map(broken, lo, hi)) for lo, hi in _step_slices(table, position)):
        return None
    outputs, stride = table.outputs, table.strides[position - 1]
    size = len(table.axes[position - 1])
    steps = (k for k in range(len(outputs) - stride) if k // stride % size < size - 1)
    k = next(k for k in steps if broken(outputs[k], outputs[k + stride]))
    return table.point(k), outputs[k], table.point(k + stride), outputs[k + stride]


def _is_essential(table: UpdateFunctionTable, position: int) -> bool:
    return any(lo != hi for lo, hi in _step_slices(table, position))


def _extends_to_fixed_point(
    problem: InferenceProblem,
    tables: dict[str, UpdateFunctionTable],
    observation: FixedPointObservation,
) -> bool:
    free = [v for v in problem.variables if observation.value_of(v) is None]
    count = math.prod(v.domain.size() for v in free)
    if count > MAX_EXTENSION_STATES:
        raise ProblemError(
            f"fixed-point extension space {count} exceeds budget {MAX_EXTENSION_STATES}"
        )
    base = {v: observation.value_of(v) for v in problem.variables}
    updates = [
        (var, tables[problem.signature[var].name], problem.regulators_of(var))
        for var in problem.variables
    ]
    for combo in itertools.product(*(v.values() for v in free)):
        state = dict(base)
        state.update(zip(free, combo))
        if all(
            table.lookup(tuple(state[r] for r in regulators)) == state[var]
            for var, table, regulators in updates
        ):
            return True
    return False
