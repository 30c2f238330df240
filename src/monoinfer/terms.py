"""Sorted terms, formulas, signatures and monotonicity specifications.

Terms are immutable, sort-checked at construction, and compare/hash
structurally, so syntactic deduplication (sets of terms, argument vectors)
needs no extra normalization.  Everything downstream -- the monotonicity
encodings, the inference translation, SMT-LIB emission and the internal
engine -- is built on this module.
"""

from __future__ import annotations

import enum
import functools
import re
from typing import Iterable, Iterator, Mapping, Optional, Sequence, TypeVar, Union

Value = Union[int, bool]

RESERVED_PREFIXES = ("!sk", "!aux")

_SYMBOL_RE = re.compile(r"[A-Za-z0-9~!@$%^&*_\-+=<>.?/]+")


class SortError(TypeError):
    """A term constructor was given operands of the wrong sort."""


class TermError(ValueError):
    """A structurally invalid term or specification."""


class SkolemizationError(TermError):
    """Existential quantifier found in a position skolemization cannot handle."""


class SortKind(enum.Enum):
    BOOL = "Bool"
    INT = "Int"


class Sort:
    """A term sort: Boolean, or Integer optionally carrying inclusive bounds.

    Bounds are metadata (used for domain constraints and finite expansion);
    two Int sorts with different bounds are still kind-compatible wherever a
    term of Int sort is expected.
    """

    __slots__ = ("kind", "bounds", "is_bool", "is_int", "_hash")

    def __init__(self, kind: SortKind, bounds: Optional[tuple[int, int]] = None):
        if bounds is not None:
            if kind is not SortKind.INT:
                raise SortError("only Integer sorts carry bounds")
            lo, hi = bounds
            if lo > hi:
                raise SortError(f"empty bounds interval ({lo}, {hi})")
            bounds = (int(lo), int(hi))
        self.kind = kind
        self.bounds = bounds
        self.is_bool = kind is SortKind.BOOL
        self.is_int = kind is SortKind.INT
        self._hash = hash((kind, bounds))

    @property
    def is_bounded(self) -> bool:
        """True if the sort has finitely many values (Bool, or Int with bounds)."""
        return self.is_bool or self.bounds is not None

    def values(self) -> list[Value]:
        """All values of a bounded sort, in order."""
        if self.is_bool:
            return [False, True]
        if self.bounds is None:
            raise TermError("unbounded Integer sort has no finite value list")
        lo, hi = self.bounds
        return list(range(lo, hi + 1))

    def size(self) -> int:
        """How many values a bounded sort has, without listing them."""
        if self.is_bool:
            return 2
        if self.bounds is None:
            raise TermError("unbounded Integer sort has no finite value list")
        return self.bounds[1] - self.bounds[0] + 1

    def same_kind(self, other: "Sort") -> bool:
        return self.kind is other.kind

    def __eq__(self, other):
        return (
            isinstance(other, Sort)
            and self.kind is other.kind
            and self.bounds == other.bounds
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.bounds is not None:
            return f"Int[{self.bounds[0]}..{self.bounds[1]}]"
        return self.kind.value


BOOL = Sort(SortKind.BOOL)
INT = Sort(SortKind.INT)


def bounded_int(lo: int, hi: int) -> Sort:
    return Sort(SortKind.INT, (lo, hi))


def check_symbol_name(name: str) -> str:
    """Reject empty, malformed, or reserved-prefix identifiers (user input path)."""
    if not name or not _SYMBOL_RE.fullmatch(name) or name[0].isdigit():
        raise TermError(f"invalid identifier {name!r}")
    for prefix in RESERVED_PREFIXES:
        if name.startswith(prefix):
            raise TermError(f"identifier {name!r} uses reserved prefix {prefix!r}")
    return name


class FunctionSymbol:
    """A (possibly 0-ary) function symbol of a signature."""

    __slots__ = ("name", "arg_sorts", "result_sort", "_hash")

    def __init__(self, name: str, arg_sorts: Sequence[Sort], result_sort: Sort):
        self.name = name
        self.arg_sorts = tuple(arg_sorts)
        self.result_sort = result_sort
        self._hash = hash((name, self.arg_sorts, result_sort))

    @property
    def arity(self) -> int:
        return len(self.arg_sorts)

    def __eq__(self, other):
        return (
            isinstance(other, FunctionSymbol)
            and self.name == other.name
            and self.arg_sorts == other.arg_sorts
            and self.result_sort == other.result_sort
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        args = ", ".join(map(repr, self.arg_sorts))
        return f"{self.name}({args}) -> {self.result_sort!r}"


class Term:
    """Base class for all term/formula nodes.

    Each node seals an immutable key of its fields at construction; equality
    and hashing are structural via that key (hash compared first).
    """

    __slots__ = ("sort", "_hash", "_key")

    sort: Sort

    def _seal(self, sort: Sort, *key) -> None:
        self.sort = sort
        self._key = key
        self._hash = hash((type(self),) + key)

    def __eq__(self, other):
        return self is other or (
            type(other) is type(self)
            and self._hash == other._hash
            and self._key == other._key
        )

    def __hash__(self):
        return self._hash

    def children(self) -> tuple["Term", ...]:
        return ()

    def __repr__(self):
        from .smtlib import term_to_sexpr

        return term_to_sexpr(self)


class IntLit(Term):
    __slots__ = ("value",)
    __match_args__ = ("value",)

    def __init__(self, value: int):
        self.value = int(value)
        self._seal(INT, self.value)


class BoolLit(Term):
    __slots__ = ("value",)
    __match_args__ = ("value",)

    def __init__(self, value: bool):
        self.value = bool(value)
        self._seal(BOOL, self.value)


TRUE = BoolLit(True)
FALSE = BoolLit(False)


class Const(Term):
    __slots__ = ("name",)
    __match_args__ = ("name", "sort")

    def __init__(self, name: str, sort: Sort):
        self.name = name
        self._seal(sort, name, sort)


class Var(Term):
    """A bound variable; must occur under a binder that declares it."""

    __slots__ = ("name",)
    __match_args__ = ("name", "sort")

    def __init__(self, name: str, sort: Sort):
        self.name = name
        self._seal(sort, name, sort)


class Apply(Term):
    __slots__ = ("func", "args")
    __match_args__ = ("func", "args")

    def __init__(self, func: FunctionSymbol, args: Sequence[Term]):
        args = tuple(args)
        if len(args) != func.arity:
            raise SortError(
                f"{func.name} expects {func.arity} arguments, got {len(args)}"
            )
        for i, (arg, want) in enumerate(zip(args, func.arg_sorts)):
            if not arg.sort.same_kind(want):
                raise SortError(
                    f"{func.name} argument {i + 1} has sort {arg.sort!r}, expected {want!r}"
                )
        self.func = func
        self.args = args
        self._seal(func.result_sort, func, args)

    def children(self):
        return self.args


def _require_int(term: Term, op: str) -> Term:
    if not term.sort.is_int:
        raise SortError(f"{op} requires Integer operands, got {term.sort!r}")
    return term


def _require_bool(term: Term, op: str) -> Term:
    if not term.sort.is_bool:
        raise SortError(f"{op} requires Boolean operands, got {term.sort!r}")
    return term


class Add(Term):
    __slots__ = ("lhs", "rhs")
    __match_args__ = ("lhs", "rhs")

    def __init__(self, lhs: Term, rhs: Term):
        self.lhs = _require_int(lhs, "+")
        self.rhs = _require_int(rhs, "+")
        self._seal(INT, lhs, rhs)

    def children(self):
        return (self.lhs, self.rhs)


class Sub(Term):
    __slots__ = ("lhs", "rhs")
    __match_args__ = ("lhs", "rhs")

    def __init__(self, lhs: Term, rhs: Term):
        self.lhs = _require_int(lhs, "-")
        self.rhs = _require_int(rhs, "-")
        self._seal(INT, lhs, rhs)

    def children(self):
        return (self.lhs, self.rhs)


class Neg(Term):
    __slots__ = ("arg",)
    __match_args__ = ("arg",)

    def __init__(self, arg: Term):
        self.arg = _require_int(arg, "unary -")
        self._seal(INT, arg)

    def children(self):
        return (self.arg,)


class CmpOp(enum.Enum):
    LE = "<="
    LT = "<"
    GE = ">="
    GT = ">"
    EQ = "="
    NE = "distinct"


_ORDER_OPS = (CmpOp.LE, CmpOp.LT, CmpOp.GE, CmpOp.GT)


class Cmp(Term):
    __slots__ = ("op", "lhs", "rhs")
    __match_args__ = ("op", "lhs", "rhs")

    def __init__(self, op: CmpOp, lhs: Term, rhs: Term):
        if not lhs.sort.same_kind(rhs.sort):
            raise SortError(
                f"comparison operands differ in sort: {lhs.sort!r} vs {rhs.sort!r}"
            )
        if op in _ORDER_OPS and not lhs.sort.is_int:
            raise SortError(
                f"{op.value} is only defined on Integer terms; "
                "use ordering_atom for Boolean ordering"
            )
        self.op = op
        self.lhs = lhs
        self.rhs = rhs
        self._seal(BOOL, op, lhs, rhs)

    def children(self):
        return (self.lhs, self.rhs)


class Not(Term):
    __slots__ = ("arg",)
    __match_args__ = ("arg",)

    def __init__(self, arg: Term):
        self.arg = _require_bool(arg, "not")
        self._seal(BOOL, arg)

    def children(self):
        return (self.arg,)


class _NaryBool(Term):
    __slots__ = ("args",)
    __match_args__ = ("args",)

    def __init__(self, args: Sequence[Term]):
        args = tuple(args)
        if len(args) < 2:
            raise TermError(f"{type(self).__name__} needs at least two operands")
        for a in args:
            if not a.sort.is_bool:
                _require_bool(a, type(self).__name__.lower())
        self.args = args
        self._seal(BOOL, args)

    def children(self):
        return self.args


class And(_NaryBool):
    __slots__ = ()


class Or(_NaryBool):
    __slots__ = ()


class Implies(Term):
    __slots__ = ("lhs", "rhs")
    __match_args__ = ("lhs", "rhs")

    def __init__(self, lhs: Term, rhs: Term):
        self.lhs = _require_bool(lhs, "=>")
        self.rhs = _require_bool(rhs, "=>")
        self._seal(BOOL, lhs, rhs)

    def children(self):
        return (self.lhs, self.rhs)


class _Quant(Term):
    __slots__ = ("bound", "body")
    __match_args__ = ("bound", "body")

    def __init__(self, bound: Sequence[Var], body: Term):
        bound = tuple(bound)
        if not bound:
            raise TermError("quantifier needs at least one bound variable")
        names = [v.name for v in bound]
        if len(set(names)) != len(names):
            raise TermError(f"duplicate bound variable in {names}")
        _require_bool(body, "quantifier body")
        inner = _binder_names(body)
        shadowed = inner.intersection(names)
        if shadowed:
            raise TermError(f"variable shadowing is forbidden: {sorted(shadowed)}")
        self.bound = bound
        self.body = body
        self._seal(BOOL, bound, body)

    def children(self):
        return (self.body,)


class Forall(_Quant):
    __slots__ = ()


class Exists(_Quant):
    __slots__ = ()


def _binder_names(term: Term) -> set[str]:
    names: set[str] = set()
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, _Quant):
            names.update(v.name for v in t.bound)
        stack.extend(t.children())
    return names


# -- convenience constructors -------------------------------------------------


def mk_and(args: Iterable[Term]) -> Term:
    """Conjunction that flattens trivial cases: 0 operands -> true, 1 -> itself."""
    args = list(args)
    if not args:
        return TRUE
    if len(args) == 1:
        return args[0]
    return And(args)


def mk_or(args: Iterable[Term]) -> Term:
    args = list(args)
    if not args:
        return FALSE
    if len(args) == 1:
        return args[0]
    return Or(args)


def mk_implies(antecedents: Sequence[Term], consequent: Term) -> Term:
    """Implication whose antecedent conjunction may be empty (yielding just the consequent)."""
    if not antecedents:
        return consequent
    return Implies(mk_and(antecedents), consequent)


def lit(value: Value) -> Term:
    return BoolLit(value) if isinstance(value, bool) else IntLit(value)


def ne(lhs: Term, rhs: Term) -> Term:
    return Cmp(CmpOp.NE, lhs, rhs)


def ordering_atom(lhs: Term, rhs: Term) -> Term:
    """`lhs <= rhs` in the sort's total order.

    Integer sorts use the arithmetic ordering; Boolean sorts use the
    propositional encoding of false < true, i.e. an implication.
    """
    if not lhs.sort.same_kind(rhs.sort):
        raise SortError(
            f"ordering_atom operands differ in sort: {lhs.sort!r} vs {rhs.sort!r}"
        )
    if lhs.sort.is_bool:
        return Implies(lhs, rhs)
    return Cmp(CmpOp.LE, lhs, rhs)


# -- monotonicity specifications ----------------------------------------------


class MonotonicitySpec:
    """Per-symbol disjoint index sets of monotone / anti-monotone arguments (1-based)."""

    def __init__(
        self,
        entries: Mapping[FunctionSymbol, tuple[Iterable[int], Iterable[int]]],
    ):
        table: dict[FunctionSymbol, tuple[frozenset[int], frozenset[int]]] = {}
        for func, (mono, anti) in entries.items():
            mono = frozenset(mono)
            anti = frozenset(anti)
            if mono & anti:
                raise TermError(
                    f"{func.name}: monotone and anti-monotone index sets overlap"
                )
            valid = range(1, func.arity + 1)
            if not mono <= set(valid) or not anti <= set(valid):
                raise TermError(
                    f"{func.name}: argument indices must lie in 1..{func.arity}"
                )
            table[func] = (mono, anti)
        self.entries = table

    def monotone(self, func: FunctionSymbol) -> frozenset[int]:
        return self.entries.get(func, (frozenset(), frozenset()))[0]

    def anti_monotone(self, func: FunctionSymbol) -> frozenset[int]:
        return self.entries.get(func, (frozenset(), frozenset()))[1]

    def constrained_indices(self, func: FunctionSymbol) -> frozenset[int]:
        mono, anti = self.entries.get(func, (frozenset(), frozenset()))
        return mono | anti

    def constrained_symbols(self) -> list[FunctionSymbol]:
        """Symbols with at least one constrained argument, in insertion order."""
        return [f for f, (m, a) in self.entries.items() if m or a]

    def __contains__(self, func: FunctionSymbol) -> bool:
        return func in self.entries

    def __eq__(self, other):
        return isinstance(other, MonotonicitySpec) and other.entries == self.entries

    def __repr__(self):
        parts = [
            f"{f.name}: ({sorted(m)}, {sorted(a)})" for f, (m, a) in self.entries.items()
        ]
        return "MonotonicitySpec{" + ", ".join(parts) + "}"


# -- argument vectors ----------------------------------------------------------

ArgVector = tuple[Term, ...]


def subst_at(vector: ArgVector, index: int, value: Term) -> ArgVector:
    """The vector that agrees with `vector` everywhere except position `index` (1-based)."""
    if not 1 <= index <= len(vector):
        raise IndexError(f"position {index} out of range 1..{len(vector)}")
    old = vector[index - 1]
    if not old.sort.same_kind(value.sort):
        raise SortError(
            f"replacement sort {value.sort!r} does not match component sort {old.sort!r}"
        )
    return vector[: index - 1] + (value,) + vector[index:]


_Arg = TypeVar("_Arg")


@functools.lru_cache(maxsize=1024)
def antecedent_plan(
    arity: int, mono: frozenset[int], anti: frozenset[int]
) -> tuple[tuple[str, int, bool], ...]:
    """The monotonicity lemma's comparisons for one signature, in order, as
    (op, 0-based position, flipped): "<=" at each monotone position, then
    "<=" flipped (y_i <= x_i) at each anti-monotone one, then "=" at the rest."""
    signed = mono | anti
    return (
        *(("<=", i - 1, False) for i in sorted(mono)),
        *(("<=", i - 1, True) for i in sorted(anti)),
        *(("=", i, False) for i in range(arity) if i + 1 not in signed),
    )


def lemma_antecedent(
    xs: Sequence[_Arg], ys: Sequence[_Arg], mono: frozenset[int], anti: frozenset[int]
) -> list[tuple[str, _Arg, _Arg]]:
    """The comparisons (op, x, y) of the monotonicity lemma at argument
    vectors xs and ys, as `antecedent_plan` orders them.  It only reorders
    and pairs its inputs, so the vectors may hold argument Terms or their
    grounded forms."""
    return [
        (op, ys[i], xs[i]) if flipped else (op, xs[i], ys[i])
        for op, i, flipped in antecedent_plan(len(xs), mono, anti)
    ]


# -- structural utilities ------------------------------------------------------


def iter_subterms(term: Term) -> Iterator[Term]:
    """Preorder traversal of all subterms, quantified bodies included."""
    stack = [term]
    while stack:
        t = stack.pop()
        yield t
        stack.extend(reversed(t.children()))


def collect_declarations(
    assertions: Iterable[Term],
) -> list[Union[Const, FunctionSymbol]]:
    """Constants and function symbols in first-occurrence order: a postorder
    read that lists an application's arguments before its symbol and skips
    repeated subterms.  The walk keeps its own stack, an application's symbol
    pushed below its arguments; only `Term.__eq__`, which its visited set
    calls on two equal terms built apart, recurses."""
    out: list[Union[Const, FunctionSymbol]] = []
    visited: set[Union[Term, FunctionSymbol]] = set()
    stack: list[Union[Term, FunctionSymbol]] = list(assertions)[::-1]
    while stack:
        t = stack.pop()
        if t in visited:
            continue
        visited.add(t)
        kind = type(t)
        if kind is Apply:
            stack.append(t.func)
            stack.extend(t.args[::-1])
        elif kind is Const or kind is FunctionSymbol:
            out.append(t)
        else:
            stack.extend(t.children()[::-1])
    return out


def is_quantifier_free(term: Term) -> bool:
    return not any(isinstance(t, _Quant) for t in iter_subterms(term))


def substitute(term: Term, mapping: Mapping[Var, Term]) -> Term:
    """Capture-avoiding substitution of bound variables by terms.

    Shadowing is forbidden at construction, so a binder never re-binds a
    mapped variable; the binder case only drops mappings defensively.
    """
    if not mapping:
        return term

    def walk(t: Term, mapping: Mapping[Var, Term]) -> Term:
        match t:
            case Var():
                return mapping.get(t, t)
            case IntLit() | BoolLit() | Const():
                return t
            case Apply(func=f, args=args):
                return Apply(f, [walk(a, mapping) for a in args])
            case Add(lhs=l, rhs=r):
                return Add(walk(l, mapping), walk(r, mapping))
            case Sub(lhs=l, rhs=r):
                return Sub(walk(l, mapping), walk(r, mapping))
            case Neg(arg=a):
                return Neg(walk(a, mapping))
            case Cmp(op=op, lhs=l, rhs=r):
                return Cmp(op, walk(l, mapping), walk(r, mapping))
            case Not(arg=a):
                return Not(walk(a, mapping))
            case And(args=args):
                return And([walk(a, mapping) for a in args])
            case Or(args=args):
                return Or([walk(a, mapping) for a in args])
            case Implies(lhs=l, rhs=r):
                return Implies(walk(l, mapping), walk(r, mapping))
            case Forall(bound=bound, body=body) | Exists(bound=bound, body=body):
                inner = {v: s for v, s in mapping.items() if v not in bound}
                new_body = walk(body, inner) if inner else body
                return type(t)(bound, new_body)
            case _:
                raise TermError(f"substitute: unhandled node {type(t).__name__}")

    return walk(term, dict(mapping))


class NameSupply:
    """Deterministic source of fresh `!sk<n>` constant names.

    Confine one supply to a single encoding query; reserved prefixes are
    rejected from user signatures, so fresh names cannot collide with them.
    """

    def __init__(self, avoid: Iterable[str] = ()):
        self._next = 0
        self._avoid = set(avoid)

    def fresh(self, sort: Sort) -> Const:
        while True:
            name = f"!sk{self._next}"
            self._next += 1
            if name not in self._avoid:
                self._avoid.add(name)
                return Const(name, sort)


def skolemize(term: Term, supply: Optional[NameSupply] = None) -> Term:
    """Replace positively-occurring existentials by fresh constants.

    Exactly one fresh constant is introduced per bound variable of each
    eliminated binder.  Existentials in negative positions, or under a
    universal quantifier, signal an encoding bug and are rejected.
    """
    if not any(isinstance(t, Exists) for t in iter_subterms(term)):
        return term
    if supply is None:
        supply = NameSupply(avoid=[d.name for d in collect_declarations([term])])

    def walk(t: Term, positive: bool) -> Term:
        match t:
            case Exists(bound=bound, body=body):
                if not positive:
                    raise SkolemizationError(
                        "existential quantifier in negative position"
                    )
                mapping = {v: supply.fresh(v.sort) for v in bound}
                return walk(substitute(body, mapping), positive)
            case Forall(bound=bound, body=body):
                if any(isinstance(s, Exists) for s in iter_subterms(body)):
                    raise SkolemizationError(
                        "existential quantifier under a universal binder"
                    )
                return t
            case Not(arg=a):
                return Not(walk(a, not positive))
            case Implies(lhs=l, rhs=r):
                return Implies(walk(l, not positive), walk(r, positive))
            case And(args=args):
                return And([walk(a, positive) for a in args])
            case Or(args=args):
                return Or([walk(a, positive) for a in args])
            case _:
                return t

    return walk(term, True)
