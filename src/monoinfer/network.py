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
into update tables, each the rows of its symbol's monotone completion with
no grid listed, and verifies them independently over those rows: signs on
pairs of rows, essentiality and fixed points by lookups.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Mapping, Optional, Sequence

from .encode import monotonize_model
from .model import Model, Value, ValueVector, default_output, dominates
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
    # the inference layer keys its dicts by variable: hash (name, domain) once
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_symbol_name(self.name)
        if self.domain.is_int:
            if self.domain.bounds is not None:
                lo, hi = self.domain.bounds
                if lo != 0 or hi < 1:
                    raise ProblemError(
                        f"{self.name}: integer domains must be 0..max with max >= 1"
                    )
        object.__setattr__(self, "_hash", hash((self.name, self.domain)))

    def __hash__(self):
        return self._hash

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
    """An update function as the rows a model gives it, completed monotonically.

    `rows` maps grid points to outputs, in ascending point order.  `lookup`
    is a row's own output at its point, elsewhere the largest output among
    the rows the point dominates under the monotone and anti-monotone
    positions (`mono`, `anti`, 1-based), else `default`: the completion
    `monotonize_model` defines.  The grid is never listed.  Outputs and the
    default are clamped into the result domain; a row off the grid moves to
    the least grid point that dominates it, with the completion's value
    there, or is dropped when none does.  The default is the least output,
    so the completion of rows no pair of which breaks the signs is monotone.
    """

    def __init__(
        self,
        symbol: FunctionSymbol,
        rows: Mapping[ValueVector, Value],
        mono: frozenset[int] = frozenset(),
        anti: frozenset[int] = frozenset(),
    ):
        self.symbol = symbol
        self.mono, self.anti = mono, anti = frozenset(mono), frozenset(anti)
        lo, hi = _extremes(symbol.result_sort)
        # a Boolean coordinate is always on the grid
        int_axes = [(i, *_extremes(s)) for i, s in enumerate(symbol.arg_sorts) if s.is_int]
        kept: dict[ValueVector, Value] = {}
        off_grid = []
        for point, out in rows.items():
            if int_axes and not all(a <= point[i] <= b for i, a, b in int_axes):
                off_grid.append(point)
            else:
                kept[point] = min(max(out, lo), hi)
        for point in off_grid:
            # coordinates raised or lowered onto their axes as the signs allow
            up = list(point)
            for i, a, b in int_axes:
                if i + 1 in mono:
                    up[i] = max(up[i], a)
                elif i + 1 in anti:
                    up[i] = min(up[i], b)
            up = tuple(up)
            if up not in kept and all(a <= up[i] <= b for i, a, b in int_axes):
                value = max(o for p, o in rows.items() if dominates(p, up, mono, anti))
                kept[up] = min(max(value, lo), hi)
        self.default = min(max(default_output(symbol.result_sort, rows.values()), lo), hi)
        self.rows = dict(sorted(kept.items()))
        # largest output first: the first dominated row gives the completion
        self._by_output = sorted(self.rows.items(), key=itemgetter(1), reverse=True)

    @property
    def grid_size(self) -> int:
        """How many points the regulator grid has, without listing them."""
        return math.prod(s.size() for s in self.symbol.arg_sorts)

    def lookup(self, args: ValueVector) -> Value:
        out = self.rows.get(args)
        if out is not None:
            return out
        mono, anti = self.mono, self.anti
        for point, out in self._by_output:
            if dominates(point, args, mono, anti):
                return out
        return self.default

    def __eq__(self, other):
        return isinstance(other, UpdateFunctionTable) and vars(other) == vars(self)

    def __repr__(self):
        return f"UpdateFunctionTable({self.symbol.name}, {self.rows!r}, default={self.default!r})"


def _extremes(sort: Sort) -> tuple[Value, Value]:
    """The least and greatest values of a bounded sort."""
    if sort.is_bool:
        return False, True
    if sort.bounds is None:
        raise ProblemError("tables need bounded domains")
    return sort.bounds


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
    """Each update symbol's table: the rows, default and signs of its
    monotone completion (`monotonize_model`), with no grid listed.  Raises
    ProblemError over unbounded domains."""
    completed = monotonize_model(model, problem.spec).functions
    return [
        UpdateFunctionTable(func, table.rows, table.mono, table.anti)
        for func in problem.signature.values()
        for table in [completed[func.name]]
    ]


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


# the largest number of unobserved-variable assignments verify enumerates for
# one observation
MAX_EXTENSION_STATES = 1 << 20


def verify_solution(
    problem: InferenceProblem,
    tables: Sequence[UpdateFunctionTable],
    deadline: Optional[float] = None,
) -> VerificationResult:
    """Check tables directly against the problem semantics, each read as
    its rows completed by `UpdateFunctionTable.lookup`, with no grid listed:
    (1) every signed regulation is monotone/anti-monotone,
    (2) every essential regulation changes the output in some context,
    both per variable, per regulation, sign first,
    (3) every observation extends to a fixed point of the table dynamics.
    Returns the first violation found.  A table must complete under the
    problem's signs or cover its grid.  The fixed-point extension search
    raises TimeoutError past `deadline`, a `time.monotonic()` value."""
    if not problem.all_bounded():
        return _failure("structure", "unbounded domains cannot be verified")
    by_name = {t.symbol.name: t for t in tables}
    # variables are told apart by name, whose hash is cached; signature and
    # inputs list them in variable order
    index = {v.name: k for k, v in enumerate(problem.variables)}
    # each variable's table and its regulators' variable-list positions
    updates: list[tuple[UpdateFunctionTable, list[int]]] = []
    signature, inputs_of = problem.signature.values(), problem.inputs.values()
    for var, func, inputs in zip(problem.variables, signature, inputs_of):
        table = by_name.get(func.name)
        if table is None:
            return _failure("structure", f"missing table for {var.name}")
        updates.append((table, [index[reg.source.name] for reg in inputs]))
        mono, anti = problem.spec.monotone(func), problem.spec.anti_monotone(func)
        # a compact table is the completion of its rows under its own signs;
        # only a full grid reads the same under any
        if (table.mono, table.anti) != (mono, anti) and len(table.rows) < table.grid_size:
            return _failure("structure", f"{func.name} completes its rows under other signs")
        # the completion of rows no pair of which breaks the signs keeps
        # every sign; only when a pair breaks is each regulation searched
        signs_kept = not (mono or anti) or not _broken_row_pair(table, mono, anti)
        for position, reg in enumerate(inputs, start=1):
            if reg.sign != Sign.UNKNOWN and not signs_kept:
                bad = _sign_violation(table, position, reg.sign)
                if bad is not None:
                    return _failure(
                        "monotonicity",
                        f"{func.name} argument {position} "
                        f"({reg.source.name} -> {var.name}, {reg.sign}): "
                        f"{bad[0]} -> {bad[1]!r} precedes {bad[2]} -> {bad[3]!r}",
                    )
            if reg.essential and not _is_essential(table, position, reg.sign):
                return _failure(
                    "essentiality",
                    f"{func.name} ignores argument {position} ({reg.source.name} -> {var.name})",
                )
    for obs in problem.observations:
        if not _extends_to_fixed_point(problem, updates, obs, deadline):
            label = obs.name or str(dict((v.name, val) for v, val in obs.assignments))
            return _failure("fixed-point", f"observation {label} has no fixed-point extension")
    return VerificationResult(True)


def _failure(kind: str, detail: str) -> VerificationResult:
    return VerificationResult(False, Violation(kind, detail))


def _broken_row_pair(
    table: UpdateFunctionTable, mono: frozenset[int], anti: frozenset[int]
) -> bool:
    """Whether some row precedes another, in the order of the monotone and
    anti-monotone positions `mono` and `anti`, with a larger output."""
    larger_first = table._by_output
    for q, q_out in larger_first:
        for p, p_out in larger_first:
            if p_out <= q_out:
                break
            if dominates(p, q, mono, anti):
                return True
    return False


def _sign_violation(
    table: UpdateFunctionTable, position: int, sign: str
) -> Optional[tuple[ValueVector, Value, ValueVector, Value]]:
    """(p, out, q, out) for a row q, the first in row order, and the point p
    next to it along `position` that precedes it under `sign`, where p has
    the larger output.  Only such steps need trying: the completion keeps
    the sign on a step whose upper point is not a row."""
    i = position - 1
    sort = table.symbol.arg_sorts[i]
    lo, hi = _extremes(sort)
    step = -1 if sign == Sign.MONOTONE else 1
    for q, q_out in table.rows.items():
        v = q[i] + step
        if lo <= v <= hi:
            p = q[:i] + (bool(v) if sort.is_bool else v,) + q[i + 1 :]
            p_out = table.lookup(p)
            if p_out > q_out:
                return p, p_out, q, q_out
    return None


def _is_essential(table: UpdateFunctionTable, position: int, sign: str) -> bool:
    """Whether the completion changes along `position` somewhere: it does
    exactly when it differs from some row's output at a point that differs
    from the row only at `position`.  Once the regulation's sign holds, a
    signed position need only try its least value, then its greatest; an
    unsigned one the values the rows hold there and one they do not, at
    which the completion is the default."""
    i = position - 1
    sort = table.symbol.arg_sorts[i]
    lo, hi = _extremes(sort)
    if sign == Sign.MONOTONE:
        values = [lo, hi]
    elif sign == Sign.ANTI_MONOTONE:
        values = [hi, lo]
    else:
        held = {p[i] for p in table.rows}
        values = [*held, *itertools.islice((v for v in range(lo, hi + 1) if v not in held), 1)]
    return any(
        table.lookup(p[:i] + (v,) + p[i + 1 :]) != out
        for v in values
        for p, out in table.rows.items()
        if p[i] != v
    )


def _extends_to_fixed_point(
    problem: InferenceProblem,
    updates: Sequence[tuple[UpdateFunctionTable, list[int]]],
    observation: FixedPointObservation,
    deadline: Optional[float],
) -> bool:
    """Whether a state extending `observation`, a list in variable order, is
    a fixed point of `updates`: each variable's table and regulators' positions."""
    observed = {v.name: value for v, value in observation.assignments}
    state = [observed.get(v.name) for v in problem.variables]
    free = [k for k, value in enumerate(state) if value is None]
    count = math.prod(problem.variables[k].domain.size() for k in free)
    if count > MAX_EXTENSION_STATES:
        raise ProblemError(
            f"fixed-point extension space {count} exceeds budget {MAX_EXTENSION_STATES}"
        )
    for combo in itertools.product(*(problem.variables[k].values() for k in free)):
        for k, value in zip(free, combo):
            state[k] = value
        if all(
            table.lookup(tuple([state[j] for j in regulators])) == state[k]
            for k, (table, regulators) in enumerate(updates)
        ):
            return True
        # polled after a failed try, so a fully observed state is always checked
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError("fixed-point extension search passed the deadline")
    return False
