"""Finite model presentation and the one ground-term evaluator.

A Model assigns values to constants and finite lookup tables (with a
default) to uninterpreted functions; it is the shape produced by the
internal engine, by the process driver from an external solver's
`get-value` answer, and by monotonization, whose completed functions are
tables with their own `lookup`.

There is one evaluator, `evaluate_with`: it computes literals, arithmetic,
comparisons and connectives, and asks a caller-supplied leaf for the value
of each constant and application.  The engine supplies a leaf that reads its
SAT model; the process driver one that reads a `get-value` answer.
`evaluate` supplies the model-checking leaf, which reads only the Model's
constants and tables, so it stays independent of any solving machinery and
can serve as the second leg of round-trip checks.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Optional

from .terms import (
    Add,
    And,
    Apply,
    BoolLit,
    Cmp,
    CmpOp,
    Const,
    Exists,
    Forall,
    FunctionSymbol,
    Implies,
    IntLit,
    Neg,
    Not,
    Or,
    Sort,
    Sub,
    Term,
    TermError,
    Value,
)

ValueVector = tuple[Value, ...]


class EvaluationError(TermError):
    """A term could not be valued under the given model/valuation."""


class FunctionTable:
    """Finite table for one uninterpreted function, with a default output."""

    def __init__(self, rows: Mapping[ValueVector, Value], default: Value):
        self.rows = dict(rows)
        self.default = default

    def lookup(self, args: ValueVector) -> Value:
        return self.rows.get(args, self.default)

    def __eq__(self, other):
        # a subclass completes the rows differently, so it never equals a
        # plain table with the same rows
        return type(other) is type(self) and vars(other) == vars(self)

    def __repr__(self):
        return f"{type(self).__name__}({self.rows!r}, default={self.default!r})"


class Model:
    """Constant assignments plus per-function tables, keyed by symbol name."""

    def __init__(
        self,
        constants: Optional[Mapping[str, Value]] = None,
        functions: Optional[Mapping[str, FunctionTable]] = None,
    ):
        self.constants = dict(constants or {})
        self.functions = dict(functions or {})

    def leaf_value(self, term: Const | Apply) -> Value:
        """The model-checking leaf: constants and tables, nothing else."""
        if isinstance(term, Const):
            if term.name not in self.constants:
                raise EvaluationError(f"model has no value for constant {term.name}")
            return self.constants[term.name]
        point = tuple(evaluate_with(a, self.leaf_value) for a in term.args)
        return self.table(term.func).lookup(point)

    def table(self, func: FunctionSymbol) -> FunctionTable:
        """The table of `func`; EvaluationError when the model has none."""
        table = self.functions.get(func.name)
        if table is None:
            raise EvaluationError(f"model has no table for function {func.name}")
        return table

    def __eq__(self, other):
        return (
            isinstance(other, Model)
            and other.constants == self.constants
            and other.functions == self.functions
        )

    def __repr__(self):
        return f"Model(constants={self.constants!r}, functions={self.functions!r})"


def default_output(sort: Sort, outputs: Iterable[Value]) -> Value:
    """A table's output off its rows: the least row output, else the least
    value of the result sort (False, the lower bound, or 0)."""
    if sort.is_bool:
        least: Value = False
    elif sort.bounds is not None:
        least = sort.bounds[0]
    else:
        least = 0
    return min(outputs, default=least)


def _cmp(op: CmpOp, lhs: Value, rhs: Value) -> bool:
    if op is CmpOp.EQ:
        return lhs == rhs
    if op is CmpOp.NE:
        return lhs != rhs
    if op is CmpOp.LE:
        return lhs <= rhs
    if op is CmpOp.LT:
        return lhs < rhs
    if op is CmpOp.GE:
        return lhs >= rhs
    return lhs > rhs


def evaluate_with(term: Term, leaf: Callable[[Term], Value]) -> Value:
    """Evaluate a quantifier-free ground term; `leaf` values its Const and
    Apply nodes, everything above them is computed here."""
    match term:
        case IntLit(value=v) | BoolLit(value=v):
            return v
        case Const() | Apply():
            return leaf(term)
        case Add(lhs=l, rhs=r):
            return evaluate_with(l, leaf) + evaluate_with(r, leaf)
        case Sub(lhs=l, rhs=r):
            return evaluate_with(l, leaf) - evaluate_with(r, leaf)
        case Neg(arg=a):
            return -evaluate_with(a, leaf)
        case Cmp(op=op, lhs=l, rhs=r):
            return _cmp(op, evaluate_with(l, leaf), evaluate_with(r, leaf))
        case Not(arg=a):
            return not evaluate_with(a, leaf)
        case And(args=args):
            return all(evaluate_with(a, leaf) for a in args)
        case Or(args=args):
            return any(evaluate_with(a, leaf) for a in args)
        case Implies(lhs=l, rhs=r):
            return (not evaluate_with(l, leaf)) or evaluate_with(r, leaf)
        case Forall() | Exists():
            raise EvaluationError("cannot evaluate a quantified term against a model")
        case _:
            raise EvaluationError(f"unhandled node {type(term).__name__}")


def evaluate(term: Term, model: Model) -> Value:
    """Evaluate a ground term under a model (quantifier-free fragment only)."""
    return evaluate_with(term, model.leaf_value)
