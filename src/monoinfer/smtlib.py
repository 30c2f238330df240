"""SMT-LIB2 serialization: term and model emission, s-expression reading, and
get-value response parsing.

Emission is a pure function of its input: `emit_script` declares what
`terms.collect_declarations` lists, so identical assertions produce
byte-identical scripts, which the golden-file tests pin.  The reader and
`term_to_sexpr` recurse, one frame per nesting level.
"""

from __future__ import annotations

from typing import Sequence, Union

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
    collect_declarations,
    iter_subterms,
)


class SmtParseError(ValueError):
    """Malformed SMT-LIB2 text (script or value response)."""


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


def select_logic(assertions: Sequence[Term]) -> str:
    """UF for pure-Boolean content, UFLIA otherwise."""
    for a in assertions:
        for t in iter_subterms(a):
            if t.sort.is_int:
                return "UFLIA"
    return "UF"


def emit_script(assertions: Sequence[Term]) -> str:
    """The script that declares the constants and function symbols of
    `assertions` in `collect_declarations` order, asserts each and checks."""
    lines = [
        f"(set-logic {select_logic(assertions)})",
        "(set-option :produce-models true)",
    ]
    for decl in collect_declarations(assertions):
        lines.append(declaration_to_sexpr(decl))
    for a in assertions:
        lines.append(f"(assert {term_to_sexpr(a)})")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


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
            tokens.append(text[i : j + 1])  # pipes kept: "|(|" is no parenthesis
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


def read_sexprs(text: str) -> list[Union[SExpr, SmtParseError]]:
    """All top-level s-expressions in `text`; a stray ')' reads as an
    SmtParseError in its place, so that a reader can report it and go on."""
    tokens = tokenize(text)
    out: list[Union[SExpr, SmtParseError]] = []
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
        return tok[1:-1] if tok.startswith("|") else tok

    while pos < len(tokens):
        if tokens[pos] == ")":
            out.append(SmtParseError("unexpected ')'"))
            pos += 1
        else:
            out.append(read())
    return out


def parse_sexprs(text: str) -> list[SExpr]:
    """All top-level s-expressions in `text`."""
    out: list[SExpr] = []
    for item in read_sexprs(text):
        if isinstance(item, SmtParseError):
            raise item
        out.append(item)
    return out


def balanced(text: str) -> bool:
    """True if the tokens of `text` close every '(' they open, so that it holds
    only complete s-expressions, perhaps with stray ')' among them; False
    inside an unterminated string or quoted symbol (used by the REPL readers)."""
    try:
        tokens = tokenize(text)
    except SmtParseError:
        return False
    depth = 0
    for tok in tokens:
        if tok == "(":
            depth += 1
        elif tok == ")" and depth:
            depth -= 1
    return depth == 0


def sexpr_to_text(sexpr: SExpr) -> str:
    """`sexpr` as text that reads back to it, a symbol that would not read as
    one token quoted as |...|."""
    if isinstance(sexpr, list):
        return "(" + " ".join(map(sexpr_to_text, sexpr)) + ")"
    if sexpr and (sexpr[0] == '"' or not any(c.isspace() or c in "();" for c in sexpr)):
        return sexpr
    return f"|{sexpr}|"


# -- get-value parsing and model rendering ------------------------------------


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
