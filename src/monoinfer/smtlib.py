"""SMT-LIB2 serialization: term emission, s-expression reading, and model parsing.

Emission is a pure function of its input: identical declarations and
assertions produce byte-identical scripts, which the golden-file tests pin.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

from .model import FunctionTable, Model, Value, default_output
from .terms import (
    Add,
    And,
    Apply,
    BoolLit,
    Cmp,
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
    Var,
    iter_subterms,
)


class SmtParseError(ValueError):
    """Malformed SMT-LIB2 text (script, value response, or model response)."""


# -- emission ------------------------------------------------------------------


def sort_to_sexpr(sort: Sort) -> str:
    return "Bool" if sort.is_bool else "Int"


def _int_literal(value: int) -> str:
    return str(value) if value >= 0 else f"(- {-value})"


def term_to_sexpr(term: Term) -> str:
    match term:
        case IntLit(value=v):
            return _int_literal(v)
        case BoolLit(value=v):
            return "true" if v else "false"
        case Const(name=name) | Var(name=name):
            return name
        case Apply(func=f, args=args):
            if not args:
                return f.name
            return "(" + " ".join([f.name] + [term_to_sexpr(a) for a in args]) + ")"
        case Add(lhs=l, rhs=r):
            return f"(+ {term_to_sexpr(l)} {term_to_sexpr(r)})"
        case Sub(lhs=l, rhs=r):
            return f"(- {term_to_sexpr(l)} {term_to_sexpr(r)})"
        case Neg(arg=a):
            return f"(- {term_to_sexpr(a)})"
        case Cmp(op=op, lhs=l, rhs=r):
            return f"({op.value} {term_to_sexpr(l)} {term_to_sexpr(r)})"
        case Not(arg=a):
            return f"(not {term_to_sexpr(a)})"
        case And(args=args):
            return "(and " + " ".join(term_to_sexpr(a) for a in args) + ")"
        case Or(args=args):
            return "(or " + " ".join(term_to_sexpr(a) for a in args) + ")"
        case Implies(lhs=l, rhs=r):
            return f"(=> {term_to_sexpr(l)} {term_to_sexpr(r)})"
        case Forall(bound=bound, body=body) | Exists(bound=bound, body=body):
            word = "forall" if isinstance(term, Forall) else "exists"
            binders = " ".join(f"({v.name} {sort_to_sexpr(v.sort)})" for v in bound)
            return f"({word} ({binders}) {term_to_sexpr(body)})"
        case _:
            raise SmtParseError(f"cannot serialize node {type(term).__name__}")


def declaration_to_sexpr(item: Union[Const, FunctionSymbol]) -> str:
    if isinstance(item, Const):
        return f"(declare-fun {item.name} () {sort_to_sexpr(item.sort)})"
    args = " ".join(sort_to_sexpr(s) for s in item.arg_sorts)
    return f"(declare-fun {item.name} ({args}) {sort_to_sexpr(item.result_sort)})"


def collect_declarations(
    assertions: Iterable[Term],
) -> list[Union[Const, FunctionSymbol]]:
    """Constants and function symbols in first-occurrence order (args before
    the application that uses them, a postorder read that skips repeats)."""
    seen: dict[Union[Const, FunctionSymbol], None] = {}
    visited: set[Term] = set()

    def visit(t: Term) -> None:
        if t in visited:
            return
        visited.add(t)
        for c in t.children():
            visit(c)
        if isinstance(t, Const):
            seen.setdefault(t)
        elif isinstance(t, Apply):
            seen.setdefault(t.func)

    for a in assertions:
        visit(a)
    return list(seen)


def select_logic(assertions: Sequence[Term]) -> str:
    """UF for pure-Boolean content, UFLIA otherwise."""
    for a in assertions:
        for t in iter_subterms(a):
            if t.sort.is_int:
                return "UFLIA"
    return "UF"


def emit_smtlib(
    declarations: Sequence[Union[Const, FunctionSymbol]],
    assertions: Sequence[Term],
) -> str:
    lines = [
        f"(set-logic {select_logic(assertions)})",
        "(set-option :produce-models true)",
    ]
    for decl in declarations:
        lines.append(declaration_to_sexpr(decl))
    for a in assertions:
        lines.append(f"(assert {term_to_sexpr(a)})")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


def emit_script(assertions: Sequence[Term]) -> str:
    """Convenience wrapper: declarations collected from the assertions themselves."""
    return emit_smtlib(collect_declarations(assertions), assertions)


# -- s-expression reading ------------------------------------------------------

SExpr = Union[str, list]


def tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in "()":
            tokens.append(ch)
            i += 1
        elif ch.isspace():
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch == "|":
            j = text.find("|", i + 1)
            if j < 0:
                raise SmtParseError("unterminated quoted symbol")
            tokens.append(text[i + 1 : j])
            i = j + 1
        elif ch == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 1
            if j >= n:
                raise SmtParseError("unterminated string literal")
            tokens.append(text[i : j + 1])
            i = j + 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "();":
                j += 1
            tokens.append(text[i:j])
            i = j
    return tokens


def parse_sexprs(text: str) -> list[SExpr]:
    """All top-level s-expressions in `text`."""
    tokens = tokenize(text)
    out: list[SExpr] = []
    pos = 0

    def read() -> SExpr:
        nonlocal pos
        if pos >= len(tokens):
            raise SmtParseError("unexpected end of input")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            items = []
            while pos < len(tokens) and tokens[pos] != ")":
                items.append(read())
            if pos >= len(tokens):
                raise SmtParseError("unbalanced parenthesis")
            pos += 1
            return items
        if tok == ")":
            raise SmtParseError("unexpected ')'")
        return tok

    while pos < len(tokens):
        out.append(read())
    return out


def balanced(text: str) -> bool:
    """True if the text holds >= 0 complete s-expressions (used by the REPL reader)."""
    depth = 0
    in_quote = False
    for ch in text:
        if ch == "|":
            in_quote = not in_quote
        elif not in_quote:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth < 0:
                    return False
    return depth == 0 and not in_quote


# -- value / model response parsing --------------------------------------------


def parse_value_sexpr(sexpr: SExpr) -> Value:
    if sexpr == "true":
        return True
    if sexpr == "false":
        return False
    if isinstance(sexpr, str):
        try:
            return int(sexpr)
        except ValueError as err:
            raise SmtParseError(f"expected a ground value, got {sexpr!r}") from err
    if isinstance(sexpr, list) and len(sexpr) == 2 and sexpr[0] == "-":
        return -parse_value_sexpr(sexpr[1])
    raise SmtParseError(f"expected a ground value, got {sexpr!r}")


def parse_get_value_response(text: str) -> list[Value]:
    """Values from a `(get-value ...)` response, in query order."""
    exprs = parse_sexprs(text)
    if len(exprs) != 1 or not isinstance(exprs[0], list):
        raise SmtParseError(f"malformed get-value response: {text!r}")
    values = []
    for pair in exprs[0]:
        if not isinstance(pair, list) or len(pair) != 2:
            raise SmtParseError(f"malformed get-value pair: {pair!r}")
        values.append(parse_value_sexpr(pair[1]))
    return values


class UnsupportedModelError(SmtParseError):
    """Model body outside the nested-ite-over-argument-equalities fragment."""

    def __init__(self, message: str, raw: str):
        super().__init__(f"{message}\nraw model text:\n{raw}")
        self.raw = raw


def _parse_ite_chain(
    body: SExpr, arg_names: list[str], raw: str
) -> tuple[dict[tuple[Value, ...], Value], Value]:
    """Flatten nested (ite <cond> <value> <rest>) into (table, default).

    Conditions must be conjunctions of equalities pinning every argument.
    """
    rows: dict[tuple[Value, ...], Value] = {}

    def parse_cond(cond: SExpr) -> tuple[Value, ...]:
        eqs: list[SExpr]
        if isinstance(cond, list) and cond and cond[0] == "and":
            eqs = cond[1:]
        else:
            eqs = [cond]
        assigned: dict[str, Value] = {}
        for e in eqs:
            if not (isinstance(e, list) and len(e) == 3 and e[0] == "="):
                raise UnsupportedModelError(f"unsupported ite condition {e!r}", raw)
            lhs, rhs = e[1], e[2]
            if isinstance(lhs, str) and lhs in arg_names:
                assigned[lhs] = parse_value_sexpr(rhs)
            elif isinstance(rhs, str) and rhs in arg_names:
                assigned[rhs] = parse_value_sexpr(lhs)
            else:
                raise UnsupportedModelError(f"unsupported equality {e!r}", raw)
        if set(assigned) != set(arg_names):
            raise UnsupportedModelError(
                f"ite condition does not pin all arguments: {cond!r}", raw
            )
        return tuple(assigned[a] for a in arg_names)

    node = body
    while isinstance(node, list) and node and node[0] == "ite":
        if len(node) != 4:
            raise UnsupportedModelError(f"malformed ite {node!r}", raw)
        point = parse_cond(node[1])
        try:
            rows.setdefault(point, parse_value_sexpr(node[2]))
        except SmtParseError as err:
            raise UnsupportedModelError(str(err), raw) from err
        node = node[3]
    try:
        default = parse_value_sexpr(node)
    except SmtParseError as err:
        raise UnsupportedModelError(str(err), raw) from err
    return rows, default


def parse_model_response(text: str) -> Model:
    """Reconstruct a Model from a `(get-model)` response.

    Constant definitions become constant values; function bodies given as
    nested if-then-else chains over argument equalities are flattened into a
    (table, default) pair.  Anything outside that fragment raises
    UnsupportedModelError with the raw text preserved.
    """
    exprs = parse_sexprs(text)
    if len(exprs) != 1 or not isinstance(exprs[0], list):
        raise SmtParseError(f"malformed get-model response: {text!r}")
    items = exprs[0]
    if items and items[0] == "model":  # older solvers prefix the list
        items = items[1:]
    constants: dict[str, Value] = {}
    functions: dict[str, FunctionTable] = {}
    for item in items:
        if not (isinstance(item, list) and len(item) == 5 and item[0] == "define-fun"):
            raise UnsupportedModelError(f"unsupported model item {item!r}", text)
        _, name, params, _result_sort, body = item
        if not isinstance(params, list):
            raise UnsupportedModelError(f"malformed parameter list in {name}", text)
        if not params:
            constants[name] = parse_value_sexpr(body)
        else:
            arg_names = []
            for p in params:
                if not (isinstance(p, list) and len(p) == 2):
                    raise UnsupportedModelError(f"malformed parameter {p!r}", text)
                arg_names.append(p[0])
            rows, default = _parse_ite_chain(body, arg_names, text)
            functions[name] = FunctionTable(rows, default)
    return Model(constants, functions)


def value_to_sexpr(value: Value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return _int_literal(value)


def model_to_sexpr(model: Model, signature: Sequence[Union[Const, FunctionSymbol]]) -> str:
    """Render a Model as a standard `get-model` response over the given signature."""
    lines = ["("]
    for item in signature:
        if isinstance(item, Const):
            value = model.constants.get(item.name, default_output(item.sort, ()))
            lines.append(
                f"  (define-fun {item.name} () {sort_to_sexpr(item.sort)} "
                f"{value_to_sexpr(value)})"
            )
        else:
            default = default_output(item.result_sort, ())
            table = model.functions.get(item.name, FunctionTable({}, default))
            if item.arity == 0:
                lines.append(
                    f"  (define-fun {item.name} () {sort_to_sexpr(item.result_sort)} "
                    f"{value_to_sexpr(table.lookup(()))})"
                )
                continue
            params = " ".join(
                f"(x!{i} {sort_to_sexpr(s)})" for i, s in enumerate(item.arg_sorts)
            )
            body = value_to_sexpr(table.default)
            for point in reversed(list(table.rows)):
                cond_parts = [
                    f"(= x!{i} {value_to_sexpr(v)})" for i, v in enumerate(point)
                ]
                cond = cond_parts[0] if len(cond_parts) == 1 else "(and " + " ".join(cond_parts) + ")"
                body = f"(ite {cond} {value_to_sexpr(table.rows[point])} {body})"
            lines.append(
                f"  (define-fun {item.name} ({params}) "
                f"{sort_to_sexpr(item.result_sort)} {body})"
            )
    lines.append(")")
    return "\n".join(lines)
