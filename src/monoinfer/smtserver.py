"""A conformant SMT-LIB2 interactive solver: a thin adapter over one
InternalSession, whose symbol table, sat-only model and unknown answer for
unsupported input are the server's.  get-value and get-model both read the
one model the session extracts; get-value values each term in it with
`model.evaluate`.

Installed as the `monoinfer-smt` console script; reads commands from
standard input (set-logic, declare-fun/declare-const, assert, check-sat,
get-value, get-model, reset, exit) and answers on standard output, so the
process driver -- or any other SMT-LIB2 client -- can use it like an
external solver.  The n-ary `+`, `-` and `=>` are read flat: n operands
nest about log2 n deep, or one level for `=>`.  Inputs outside the
engine's fragment, terms too deep to ground included, make check-sat answer
`unknown` rather than erroring out; a command nested too deep to read or
parse still gets an `(error ...)` answer.
"""

from __future__ import annotations

import sys
from math import inf
from typing import Optional, Union

from .model import EvaluationError, Model, evaluate
from .session import InternalSession, SessionUsageError
from .smtlib import (
    SExpr,
    SmtParseError,
    balanced,
    model_to_sexpr,
    read_sexprs,
    sexpr_to_text,
    value_to_sexpr,
)
from .terms import (
    Add,
    Apply,
    BOOL,
    BoolLit,
    Cmp,
    CmpOp,
    Const,
    Exists,
    Forall,
    FunctionSymbol,
    INT,
    IntLit,
    Neg,
    Not,
    Sort,
    SortError,
    Sub,
    Term,
    TermError,
    Var,
    mk_and,
    mk_implies,
    mk_or,
)


class CommandError(Exception):
    """Reported to the client as (error "...")."""


def _parse_sort(sexpr: SExpr) -> Sort:
    if sexpr == "Bool":
        return BOOL
    if sexpr == "Int":
        return INT
    raise CommandError(f"unsupported sort {sexpr!r}")


_CMP_OPS = {
    "<=": CmpOp.LE,
    "<": CmpOp.LT,
    ">=": CmpOp.GE,
    ">": CmpOp.GT,
    "=": CmpOp.EQ,
    "distinct": CmpOp.NE,
}

# (least, most) operand counts of the operators that bound them; SMT-LIB
# 2.6 makes the comparisons chainable and `distinct` pairwise
_OPERANDS = {op: (2, inf) for op in _CMP_OPS} | {
    "+": (1, inf), "-": (1, inf), "not": (1, 1), "=>": (2, inf)
}


def _balanced_sum(args: list[Term]) -> Term:
    """The sum of `args` as a balanced tree of Add, about log2 n deep."""
    if len(args) == 1:
        return args[0]
    half = len(args) // 2
    return Add(_balanced_sum(args[:half]), _balanced_sum(args[half:]))


class SmtServer:
    def __init__(self) -> None:
        self._reset()

    def _reset(self) -> None:
        self.session = InternalSession()

    # -- term parsing ----------------------------------------------------------

    def parse_term(self, sexpr: SExpr, scope: dict[str, Var]) -> Term:
        if isinstance(sexpr, str):
            if sexpr == "true":
                return BoolLit(True)
            if sexpr == "false":
                return BoolLit(False)
            if sexpr in scope:
                return scope[sexpr]
            item = self.session.declared.get(sexpr)
            if isinstance(item, Const):
                return item
            if isinstance(item, FunctionSymbol):
                if item.arity != 0:
                    raise CommandError(f"{sexpr} expects {item.arity} arguments")
                return Apply(item, ())
            # an SMT-LIB numeral: 0, or ASCII digits not starting with 0
            if sexpr.isascii() and sexpr.isdigit() and (sexpr == "0" or sexpr[0] != "0"):
                return IntLit(int(sexpr))
            raise CommandError(f"unknown symbol {sexpr!r}")
        if not sexpr:
            raise CommandError("empty term")
        head, *rest = sexpr
        try:
            if head not in ("forall", "exists"):
                return self._apply_head(head, [self.parse_term(a, scope) for a in rest])
            if len(rest) != 2 or not isinstance(rest[0], list):
                raise CommandError(f"malformed {head}")
            bound = []
            inner = dict(scope)
            for binder in rest[0]:
                if not (isinstance(binder, list) and len(binder) == 2):
                    raise CommandError(f"malformed binder {binder!r}")
                if not isinstance(binder[0], str):
                    raise CommandError(f"binder name {binder[0]!r} is not a symbol")
                var = Var(binder[0], _parse_sort(binder[1]))
                bound.append(var)
                inner[var.name] = var
            body = self.parse_term(rest[1], inner)
            return (Forall if head == "forall" else Exists)(bound, body)
        except (SortError, TermError) as err:
            raise CommandError(str(err))

    def _apply_head(self, head: SExpr, args: list[Term]) -> Term:
        if not isinstance(head, str):
            raise CommandError(f"malformed application head {head!r}")
        least, most = _OPERANDS.get(head, (0, inf))
        if not least <= len(args) <= most:
            raise CommandError(f"wrong number of operands for {head}: {len(args)}")
        if head == "+":
            return _balanced_sum(args)
        if head == "-":
            if len(args) == 1:
                return Neg(args[0])
            return Sub(args[0], _balanced_sum(args[1:]))
        if head == "distinct":
            return mk_and(
                Cmp(CmpOp.NE, a, b) for i, a in enumerate(args) for b in args[i + 1 :]
            )
        if head in _CMP_OPS:
            return mk_and(Cmp(_CMP_OPS[head], a, b) for a, b in zip(args, args[1:]))
        if head == "not":
            return Not(args[0])
        if head == "and":
            return mk_and(args)
        if head == "or":
            return mk_or(args)
        if head == "=>":
            return mk_implies(args[:-1], args[-1])
        item = self.session.declared.get(head)
        if isinstance(item, FunctionSymbol):
            return Apply(item, args)
        raise CommandError(f"unknown function {head!r}")

    # -- commands ------------------------------------------------------------------

    def handle(self, command: SExpr) -> Optional[str]:
        """Execute one command; returns the response text (None for silence)."""
        if not isinstance(command, list) or not command:
            raise CommandError("malformed command")
        head = command[0]
        if head in ("set-logic", "set-option", "set-info"):
            return None
        if head == "declare-fun":
            if len(command) != 4 or not isinstance(command[2], list):
                raise CommandError("malformed declare-fun")
            return self._declare(command[1], command[2], command[3])
        if head == "declare-const":
            if len(command) != 3:
                raise CommandError("malformed declare-const")
            return self._declare(command[1], [], command[2])
        if head == "assert":
            if len(command) != 2:
                raise CommandError("malformed assert")
            term = self.parse_term(command[1], {})
            if not term.sort.is_bool:
                raise CommandError("asserted term is not Boolean")
            self.session.assert_formula(term)
            return None
        if head == "check-sat":
            return self.session.check_sat()
        if head == "get-value":
            if len(command) != 2 or not isinstance(command[1], list):
                raise CommandError("malformed get-value")
            return self._get_value(command[1])
        if head == "get-model":
            return model_to_sexpr(self._model(), list(self.session.declared.values()))
        if head == "reset":
            self._reset()
            return None
        if head == "exit":
            raise SystemExit(0)
        raise CommandError(f"unsupported command {head!r}")

    def _declare(self, name: SExpr, arg_sorts: list, result: SExpr) -> None:
        if not isinstance(name, str):
            raise CommandError("malformed declaration name")
        if name in self.session.declared:
            raise CommandError(f"symbol {name!r} already declared")
        if not arg_sorts:
            item: Union[Const, FunctionSymbol] = Const(name, _parse_sort(result))
        else:
            item = FunctionSymbol(
                name, [_parse_sort(s) for s in arg_sorts], _parse_sort(result)
            )
        self.session.declare(item)
        return None

    def _model(self) -> Model:
        try:
            return self.session.extract_model()
        except SessionUsageError as err:
            raise CommandError(str(err))

    def _get_value(self, queries: list) -> str:
        terms = [self.parse_term(q, {}) for q in queries]
        model = self._model()
        pairs = []
        for query, term in zip(queries, terms):
            # each value is paired with the term as the client sent it
            try:
                value = evaluate(term, model)
            except EvaluationError as err:
                raise CommandError(f"cannot evaluate {sexpr_to_text(query)}: {err}")
            pairs.append(f"({sexpr_to_text(query)} {value_to_sexpr(value)})")
        return "(" + " ".join(pairs) + ")"


def serve(instream, outstream) -> int:
    server = SmtServer()
    buffer = ""
    for line in instream:
        buffer += line
        if not balanced(buffer):
            continue
        try:
            commands = read_sexprs(buffer)
        except RecursionError:
            commands = [SmtParseError("command nested too deeply")]
        buffer = ""
        for command in commands:
            try:
                if isinstance(command, SmtParseError):
                    raise CommandError(str(command))
                response = server.handle(command)
            except CommandError as err:
                response = f'(error "{err}")'
            except RecursionError:  # parse_term and evaluate recurse
                response = '(error "command nested too deeply")'
            except SystemExit:
                return 0
            if response is not None:
                print(response, file=outstream, flush=True)
    return 0


def main() -> int:
    return serve(sys.stdin, sys.stdout)


if __name__ == "__main__":
    raise SystemExit(main())
