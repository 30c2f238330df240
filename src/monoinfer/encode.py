"""The four monotonicity-handling strategies, plus model monotonization.

Two quantified encodings turn the specification into universal axioms (one
per constrained argument, or one aggregated axiom per symbol).  The
instantiation-based encodings exploit locality: ground instances of the
aggregated axiom at pairs of application argument vectors occurring in the
formula suffice for equisatisfiability.  Both read one index of the
formula's applications, built in a single traversal.  The eager encoding
asserts every instance up front; the lazy loop values the applications
on each candidate model the session extracts and builds a lemma only for a
pair that model violates.

Monotonization replaces each constrained symbol's table by a MonotoneTable,
whose lookup is the monotone completion of its rows, so a monotonized model
is a plain Model and `model.evaluate` values terms under it.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from .model import (
    FunctionTable,
    Model,
    Value,
    ValueVector,
    default_output,
    evaluate_with,
)
from .session import UNKNOWN, UNSAT, SolverSession, SolverVerdict
from .terms import (
    Apply,
    ArgVector,
    Cmp,
    CmpOp,
    Forall,
    FunctionSymbol,
    Implies,
    MonotonicitySpec,
    Term,
    TermError,
    Var,
    is_quantifier_free,
    iter_subterms,
    mk_and,
    mk_implies,
    ordering_atom,
    subst_at,
)


class Strategy(enum.Enum):
    QUANT_INDIVIDUAL = "quantified-individual"
    QUANT_AGGREGATED = "quantified-aggregated"
    INST_EAGER = "instantiated-eager"
    INST_LAZY = "instantiated-lazy"


@dataclass
class EncodedProblem:
    formula: Term  # conjunction root
    lemma_count: int
    strategy: Strategy


class EncodingError(TermError):
    """Monotonicity specification incompatible with the formula/strategy."""


def _application_index(
    formula: Term, spec: MonotonicitySpec
) -> dict[FunctionSymbol, list[Apply]]:
    """The distinct applications of each constrained symbol, in one traversal.

    Symbols are ordered by first application in the formula, then the
    remaining constrained symbols by name; applications are deduplicated
    syntactically, in first-occurrence (left-to-right preorder) order.  This
    order fixes the emission order reproduced by the golden files.
    """
    constrained = set(spec.constrained_symbols())
    index: dict[FunctionSymbol, dict[Apply, None]] = {}
    for t in iter_subterms(formula):
        if isinstance(t, Apply) and t.func in constrained:
            index.setdefault(t.func, {}).setdefault(t)
    for func in sorted(constrained.difference(index), key=lambda f: f.name):
        index[func] = {}
    return {func: list(apps) for func, apps in index.items()}


def _bound_vars(func: FunctionSymbol, prefix: str) -> list[Var]:
    # reserved "!aux" namespace prevents capture of user constants
    return [
        Var(f"!aux_{prefix}{i + 1}", s) for i, s in enumerate(func.arg_sorts)
    ]


def encode_quant_individual(formula: Term, spec: MonotonicitySpec) -> EncodedProblem:
    """One universally quantified constraint per constrained argument:
    for every i in f's monotone (anti-monotone) set,
    forall x, y: x_i <= y -> f(x) <= f(x[i := y])  (>= for anti-monotone)."""
    conjuncts = [formula]
    count = 0
    for func in _application_index(formula, spec):
        xs = _bound_vars(func, "x")
        x_vec: ArgVector = tuple(xs)
        for i in sorted(spec.constrained_indices(func)):
            y = Var("!aux_y", func.arg_sorts[i - 1])
            lhs = Apply(func, x_vec)
            rhs = Apply(func, subst_at(x_vec, i, y))
            if i in spec.monotone(func):
                body = Implies(ordering_atom(xs[i - 1], y), ordering_atom(lhs, rhs))
            else:
                body = Implies(ordering_atom(xs[i - 1], y), ordering_atom(rhs, lhs))
            conjuncts.append(Forall(xs + [y], body))
            count += 1
    return EncodedProblem(mk_and(conjuncts), count, Strategy.QUANT_INDIVIDUAL)


def _aggregated_body(
    func: FunctionSymbol,
    spec: MonotonicitySpec,
    xs: Sequence[Term],
    ys: Sequence[Term],
) -> Term:
    """The aggregated implication over argument vectors xs, ys:
    (/\\ mono x_i <= y_i) /\\ (/\\ anti y_i <= x_i) /\\ (/\\ rest x_i = y_i)
    -> f(xs) <= f(ys)."""
    mono = spec.monotone(func)
    anti = spec.anti_monotone(func)
    antecedent: list[Term] = []
    for i in sorted(mono):
        antecedent.append(ordering_atom(xs[i - 1], ys[i - 1]))
    for i in sorted(anti):
        antecedent.append(ordering_atom(ys[i - 1], xs[i - 1]))
    for i in range(1, func.arity + 1):
        if i not in mono and i not in anti:
            antecedent.append(Cmp(CmpOp.EQ, xs[i - 1], ys[i - 1]))
    consequent = ordering_atom(Apply(func, tuple(xs)), Apply(func, tuple(ys)))
    return mk_implies(antecedent, consequent)


def encode_quant_aggregated(formula: Term, spec: MonotonicitySpec) -> EncodedProblem:
    """One aggregated universal constraint per constrained symbol."""
    conjuncts = [formula]
    count = 0
    for func in _application_index(formula, spec):
        xs = _bound_vars(func, "x")
        ys = _bound_vars(func, "y")
        body = _aggregated_body(func, spec, xs, ys)
        conjuncts.append(Forall(xs + ys, body))
        count += 1
    return EncodedProblem(mk_and(conjuncts), count, Strategy.QUANT_AGGREGATED)


def monotonicity_lemma(
    func: FunctionSymbol,
    t: ArgVector,
    s: ArgVector,
    spec: MonotonicitySpec,
) -> Term:
    """Ground instance of the aggregated implication at argument vectors (t, s)."""
    if len(t) != func.arity or len(s) != func.arity:
        raise EncodingError(f"argument vectors must have arity {func.arity}")
    return _aggregated_body(func, spec, t, s)


def ground_lemmas(formula: Term, spec: MonotonicitySpec) -> list[Term]:
    """All ordered-pair ground lemmas for applications occurring in the
    formula, in emission order.  The diagonal is dropped: the lemma at
    (t, t) is valid."""
    return [
        monotonicity_lemma(func, t.args, s.args, spec)
        for func, apps in _application_index(formula, spec).items()
        for t, s in itertools.permutations(apps, 2)
    ]


def eager_lemma_count(formula: Term, spec: MonotonicitySpec) -> int:
    index = _application_index(formula, spec)
    return sum(len(apps) * (len(apps) - 1) for apps in index.values())


def encode_eager(formula: Term, spec: MonotonicitySpec) -> EncodedProblem:
    """Assert every ground monotonicity lemma up front (equisatisfiable with
    the quantified encoding by locality).  Requires a quantifier-free input."""
    if not is_quantifier_free(formula):
        raise EncodingError("eager instantiation requires a quantifier-free formula")
    lemmas = ground_lemmas(formula, spec)
    return EncodedProblem(mk_and([formula] + lemmas), len(lemmas), Strategy.INST_EAGER)


def encode(formula: Term, spec: MonotonicitySpec, strategy: Strategy) -> EncodedProblem:
    """The formula `solve` asserts under a strategy.  Lazy keeps the base
    formula, with the eager lemma count as the bound on its candidates."""
    if strategy is Strategy.QUANT_INDIVIDUAL:
        return encode_quant_individual(formula, spec)
    if strategy is Strategy.QUANT_AGGREGATED:
        return encode_quant_aggregated(formula, spec)
    if strategy is Strategy.INST_EAGER:
        return encode_eager(formula, spec)
    return EncodedProblem(formula, eager_lemma_count(formula, spec), strategy)


# -- solving and the lazy loop --------------------------------------------------

TIMEOUT_REASON = "timeout"


def _check(session: SolverSession) -> Optional[SolverVerdict]:
    """check-sat; the verdict on unsat or unknown, None on sat."""
    answer = session.check_sat()
    if answer == UNSAT:
        return SolverVerdict.unsat()
    if answer == UNKNOWN:
        return SolverVerdict.unknown(session.unknown_reason or "solver returned unknown")
    return None


def _sat(session: SolverSession) -> SolverVerdict:
    try:
        return SolverVerdict.sat(session.extract_model())
    except TimeoutError:
        return SolverVerdict.unknown(TIMEOUT_REASON)


def solve(
    encoded: EncodedProblem,
    spec: MonotonicitySpec,
    session: SolverSession,
    stats: Optional[LazyRunStats] = None,
) -> SolverVerdict:
    """Solve an encoded problem through a session: the lazy loop for the
    lazy strategy, one assert/check/extract for the others."""
    if encoded.strategy is Strategy.INST_LAZY:
        return solve_lazy(encoded.formula, spec, session, stats)
    session.assert_formula(encoded.formula)
    verdict = _check(session)
    return verdict if verdict is not None else _sat(session)


# a lemma candidate: the symbol and the positions of its two applications
# in the application index
Pair = tuple[FunctionSymbol, int, int]


def _violated_pairs(
    index: Mapping[FunctionSymbol, Sequence[Apply]],
    spec: MonotonicitySpec,
    model: Model,
    asserted: set[Pair],
) -> list[Pair]:
    """The pairs (f, i, j) whose lemma the model falsifies, in emission order:
    application i precedes application j in the specification order while
    its result is larger (False < True).  Each application's point is valued
    once and its result read from f's table at that point; pairs in
    `asserted` are skipped.  A pair whose numeral arguments break the order
    breaks it on values too, so it is never flagged."""
    out = []
    leaf = model.leaf_value
    for func, apps in index.items():
        if len(apps) < 2:
            continue
        table = model.table(func)
        mono, anti = spec.monotone(func), spec.anti_monotone(func)
        points = []
        for app in apps:
            point = tuple(evaluate_with(a, leaf) for a in app.args)
            points.append((point, table.lookup(point)))
        for (i, (p, p_out)), (j, (q, q_out)) in itertools.permutations(enumerate(points), 2):
            if p_out > q_out and (func, i, j) not in asserted and _dominates(p, q, mono, anti):
                out.append((func, i, j))
    return out


def _lemma(
    index: Mapping[FunctionSymbol, Sequence[Apply]], spec: MonotonicitySpec, pair: Pair
) -> Term:
    func, i, j = pair
    return monotonicity_lemma(func, index[func][i].args, index[func][j].args, spec)


def violated_lemmas(formula: Term, spec: MonotonicitySpec, model: Model) -> set[Term]:
    """Candidate lemmas falsified by the model (antecedent holds, consequent
    fails under the sort's order).  The model must value every constant the
    candidates' arguments mention and hold a table for every constrained
    symbol applied twice."""
    index = _application_index(formula, spec)
    return {_lemma(index, spec, pair) for pair in _violated_pairs(index, spec, model, set())}


@dataclass
class LazyRunStats:
    check_sat_calls: int = 0
    asserted_lemmas: list[Term] = field(default_factory=list)


def solve_lazy(
    formula: Term,
    spec: MonotonicitySpec,
    session: SolverSession,
    stats: Optional[LazyRunStats] = None,
) -> SolverVerdict:
    """Lazy instantiation: assert the formula, then repeatedly extract a
    model, find the ground lemmas it violates, and assert them, until either
    no lemma is violated (sat, with that model) or the solver reports unsat.

    The applications are indexed once from the formula (the set never
    grows); each candidate model values them once, and a lemma Term is built
    only for a violated pair.  Every round asserts at least one new lemma,
    so the loop terminates within (eager lemma count + 1) checks.
    """
    if not is_quantifier_free(formula):
        raise EncodingError("lazy instantiation requires a quantifier-free formula")
    if stats is None:
        stats = LazyRunStats()
    index = _application_index(formula, spec)
    session.assert_formula(formula)
    asserted: set[Pair] = set()
    while True:
        verdict = _check(session)
        stats.check_sat_calls += 1
        if verdict is not None:
            return verdict
        verdict = _sat(session)
        if not verdict.is_sat:
            return verdict
        violated = _violated_pairs(index, spec, verdict.model, asserted)
        if not violated:
            return verdict
        for pair in violated:
            lemma = _lemma(index, spec, pair)
            session.assert_formula(lemma)
            stats.asserted_lemmas.append(lemma)
        asserted.update(violated)


# -- model monotonization ---------------------------------------------------------


class MonotonizationError(ValueError):
    """The base model violates a ground lemma (it was not a model of the
    eager encoding), so its table cannot be reproduced monotonically."""


class MonotoneTable(FunctionTable):
    """A finite table completed into a globally monotone total function.

    `lookup(x)` is the largest output among the rows whose points x
    dominates in the specification order given by the symbol's monotone
    and anti-monotone sets, or the default when x dominates none.  With no
    signed argument this is the plain lookup.
    """

    def __init__(
        self,
        rows: Mapping[ValueVector, Value],
        default: Value,
        mono: frozenset[int],
        anti: frozenset[int],
    ):
        super().__init__(rows, default)
        self.mono = mono
        self.anti = anti

    def lookup(self, args: ValueVector) -> Value:
        mono, anti = self.mono, self.anti
        return max(
            (out for point, out in self.rows.items() if _dominates(point, args, mono, anti)),
            default=self.default,
        )


def _dominates(
    p: ValueVector, q: ValueVector, mono: frozenset[int], anti: frozenset[int]
) -> bool:
    """p precedes q in the specification order given by a symbol's monotone
    and anti-monotone index sets: p_i <= q_i on monotone arguments,
    q_i <= p_i on anti-monotone ones, equality elsewhere."""
    for i, (a, b) in enumerate(zip(p, q), start=1):
        if i in mono:
            if a > b:
                return False
        elif i in anti:
            if b > a:
                return False
        elif a != b:
            return False
    return True


def monotonize_model(base: Model, spec: MonotonicitySpec) -> Model:
    """Complete the finite tables of a model into globally monotone functions.

    Each constrained symbol's table becomes a MonotoneTable (a symbol with
    no table gets empty rows); constants and other tables are kept.  The
    default is the minimum row output, else the domain minimum.  Raises
    MonotonizationError if a row cannot be reproduced, which happens
    exactly when the base model violates some ground lemma.
    """
    functions = dict(base.functions)
    for func in spec.entries:
        table = base.functions.get(func.name)
        rows = table.rows if table is not None else {}
        completed = MonotoneTable(
            rows,
            default_output(func.result_sort, rows.values()),
            spec.monotone(func),
            spec.anti_monotone(func),
        )
        for point, out in rows.items():
            best = completed.lookup(point)
            if best != out:
                raise MonotonizationError(
                    f"{func.name}{point} maps to {out} but a dominated point "
                    f"forces at least {best}; base model violates a ground lemma"
                )
        functions[func.name] = completed
    return Model(base.constants, functions)
