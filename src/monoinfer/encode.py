"""The four monotonicity-handling strategies, plus model monotonization.

Two quantified encodings turn the specification into universal axioms (one
per constrained argument, or one aggregated axiom per symbol).  The
instantiation-based encodings exploit locality: ground instances of the
aggregated axiom at pairs of application argument vectors occurring in the
formula suffice for equisatisfiability.  The eager encoding asserts all of
them up front; the lazy loop asserts only those violated by successive
candidate models.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from .engine import EngineUnsupported
from .model import (
    EvaluationError,
    Model,
    Value,
    ValueVector,
    default_output,
    evaluate_with,
)
from .session import UNKNOWN, UNSAT, SolverProcessError, SolverSession, SolverVerdict
from .terms import (
    Apply,
    ArgVector,
    BoolLit,
    Cmp,
    CmpOp,
    Const,
    Forall,
    FunctionSymbol,
    Implies,
    IntLit,
    MonotonicitySpec,
    Term,
    TermError,
    Var,
    applications_in_order,
    is_quantifier_free,
    iter_subterms,
    mk_and,
    mk_implies,
    ordering_atom,
    subst_at,
    symbols_in_order,
)


class Strategy(enum.Enum):
    QUANT_INDIVIDUAL = "quantified-individual"
    QUANT_AGGREGATED = "quantified-aggregated"
    INST_EAGER = "instantiated-eager"
    INST_LAZY = "instantiated-lazy"


QUANTIFIED_STRATEGIES = (Strategy.QUANT_INDIVIDUAL, Strategy.QUANT_AGGREGATED)
INSTANTIATED_STRATEGIES = (Strategy.INST_EAGER, Strategy.INST_LAZY)


@dataclass
class EncodedProblem:
    formula: Term  # conjunction root
    lemma_count: int
    strategy: Strategy


class EncodingError(TermError):
    """Monotonicity specification incompatible with the formula/strategy."""


def _check_spec(spec: MonotonicitySpec) -> None:
    for func in spec.entries:
        if not func.uninterpreted:
            raise EncodingError(f"constrained symbol {func.name} is interpreted")


def _spec_symbols(formula: Term, spec: MonotonicitySpec) -> list[FunctionSymbol]:
    """Constrained symbols, ordered by first application in the formula, then
    remaining specification entries by name (determinism for emission)."""
    constrained = set(spec.constrained_symbols())
    ordered = [f for f in symbols_in_order(formula) if f in constrained]
    rest = sorted(constrained.difference(ordered), key=lambda f: f.name)
    return ordered + rest


def _bound_vars(func: FunctionSymbol, prefix: str) -> list[Var]:
    # reserved "!aux" namespace prevents capture of user constants
    return [
        Var(f"!aux_{prefix}{i + 1}", s) for i, s in enumerate(func.arg_sorts)
    ]


def encode_quant_individual(formula: Term, spec: MonotonicitySpec) -> EncodedProblem:
    """One universally quantified constraint per constrained argument:
    for every i in f's monotone (anti-monotone) set,
    forall x, y: x_i <= y -> f(x) <= f(x[i := y])  (>= for anti-monotone)."""
    _check_spec(spec)
    conjuncts = [formula]
    count = 0
    for func in _spec_symbols(formula, spec):
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
    _check_spec(spec)
    conjuncts = [formula]
    count = 0
    for func in _spec_symbols(formula, spec):
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


def lemma_is_vacuous(func: FunctionSymbol, t: ArgVector, s: ArgVector, spec: MonotonicitySpec) -> bool:
    """True if the lemma antecedent folds to false on numeral comparisons alone."""
    mono = spec.monotone(func)
    anti = spec.anti_monotone(func)
    for i in range(1, func.arity + 1):
        a, b = t[i - 1], s[i - 1]
        if isinstance(a, IntLit) and isinstance(b, IntLit):
            av, bv = a.value, b.value
        elif isinstance(a, BoolLit) and isinstance(b, BoolLit):
            av, bv = a.value, b.value
        else:
            continue
        if i in mono:
            holds = av <= bv
        elif i in anti:
            holds = bv <= av
        else:
            holds = av == bv
        if not holds:
            return True
    return False


@dataclass
class LemmaInstance:
    func: FunctionSymbol
    t: ArgVector
    s: ArgVector
    term: Term


def lemma_instances(formula: Term, spec: MonotonicitySpec) -> list[LemmaInstance]:
    """All ordered-pair ground lemmas for applications occurring in the formula.

    Pairs are ordered and the diagonal is dropped (the lemma at (t, t) is
    valid); applications are deduplicated syntactically, in first-occurrence
    order, which fixes the emission order reproduced by the golden files.
    """
    _check_spec(spec)
    out: list[LemmaInstance] = []
    for func in _spec_symbols(formula, spec):
        apps = applications_in_order(formula, func)
        for t, s in itertools.permutations(apps, 2):
            out.append(LemmaInstance(func, t, s, monotonicity_lemma(func, t, s, spec)))
    return out


def eager_lemma_count(formula: Term, spec: MonotonicitySpec) -> int:
    total = 0
    for func in spec.constrained_symbols():
        n = len(applications_in_order(formula, func))
        total += n * (n - 1)
    return total


def encode_eager(formula: Term, spec: MonotonicitySpec) -> EncodedProblem:
    """Assert every ground monotonicity lemma up front (equisatisfiable with
    the quantified encoding by locality).  Requires a quantifier-free input."""
    if not is_quantifier_free(formula):
        raise EncodingError("eager instantiation requires a quantifier-free formula")
    instances = lemma_instances(formula, spec)
    conjuncts = [formula] + [inst.term for inst in instances]
    return EncodedProblem(mk_and(conjuncts), len(instances), Strategy.INST_EAGER)


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


AppKey = tuple[FunctionSymbol, ArgVector]


def _applications(instances: Sequence[LemmaInstance]) -> dict[AppKey, Apply]:
    apps: dict[AppKey, Apply] = {}
    for inst in instances:
        for args in (inst.t, inst.s):
            if (inst.func, args) not in apps:
                apps[inst.func, args] = Apply(inst.func, args)
    return apps


def _leaves(apps: Mapping[AppKey, Apply]) -> list[Term]:
    """The constants and applications whose values fix every application's
    argument vector and result (`f(c1 + 5, 0)` needs `c1` and itself)."""
    seen: dict[Term, None] = {}
    for app in apps.values():
        for t in iter_subterms(app):
            if isinstance(t, (Const, Apply)):
                seen.setdefault(t)
    return list(seen)


def _violated(
    pending: Sequence[LemmaInstance],
    spec: MonotonicitySpec,
    apps: Mapping[AppKey, Apply],
    values: Mapping[Term, Value],
) -> list[LemmaInstance]:
    """The candidates the values falsify: t precedes s in the specification
    order while f(t) > f(s) (False < True).  Each application is valued once."""

    def leaf(term: Term) -> Value:
        if term not in values:
            raise EvaluationError(f"no value for {term!r}")
        return values[term]

    points = {
        key: (
            tuple(
                a.value if isinstance(a, (IntLit, BoolLit)) else evaluate_with(a, leaf)
                for a in app.args
            ),
            leaf(app),
        )
        for key, app in apps.items()
    }
    orders = {
        func: (spec.monotone(func), spec.anti_monotone(func))
        for func in {inst.func for inst in pending}
    }
    out = []
    for inst in pending:
        t_point, t_out = points[inst.func, inst.t]
        s_point, s_out = points[inst.func, inst.s]
        if t_out > s_out and _dominates(t_point, s_point, *orders[inst.func]):
            out.append(inst)
    return out


def violated_lemmas(
    formula: Term,
    spec: MonotonicitySpec,
    valuation: Mapping[Term, Value],
) -> set[Term]:
    """Candidate lemmas falsified by the valuation (antecedent holds, consequent
    fails under the sort's order).  The valuation must cover every constant
    and application the candidates' arguments and results mention."""
    instances = lemma_instances(formula, spec)
    violated = _violated(instances, spec, _applications(instances), valuation)
    return {inst.term for inst in violated}


@dataclass
class LazyRunStats:
    check_sat_calls: int = 0
    asserted_lemmas: list[Term] = field(default_factory=list)
    iterations: int = 0


def solve_lazy(
    formula: Term,
    spec: MonotonicitySpec,
    session: SolverSession,
    stats: Optional[LazyRunStats] = None,
) -> SolverVerdict:
    """Lazy instantiation: assert the formula, then repeatedly pull a model,
    collect the lemmas it violates, and assert them, until either no lemma is
    violated (sat) or the solver reports unsat.

    The candidate set is precomputed once from the formula (it never grows);
    lemmas whose antecedent folds to false are pruned from the candidates
    since no model can violate them.  Terminates within (eager lemma count
    + 1) satisfiability checks.
    """
    if not is_quantifier_free(formula):
        raise EncodingError("lazy instantiation requires a quantifier-free formula")
    if stats is None:
        stats = LazyRunStats()
    candidates = [
        inst
        for inst in lemma_instances(formula, spec)
        if not lemma_is_vacuous(inst.func, inst.t, inst.s, spec)
    ]
    apps = _applications(candidates)
    leaves = _leaves(apps)
    session.assert_formula(formula)
    pending = list(candidates)
    while True:
        verdict = _check(session)
        stats.check_sat_calls += 1
        if verdict is not None:
            return verdict
        if not pending:
            return _sat(session)
        try:
            values = session.value_of(leaves)
        except TimeoutError:
            return SolverVerdict.unknown(TIMEOUT_REASON)
        except (EvaluationError, EngineUnsupported, SolverProcessError) as err:
            # the backend cannot value one of the leaves
            return SolverVerdict.unknown(f"model value query failed: {err}")
        violated = _violated(pending, spec, apps, dict(zip(leaves, values)))
        if not violated:
            return _sat(session)
        for inst in violated:
            session.assert_formula(inst.term)
            stats.asserted_lemmas.append(inst.term)
        violated_set = {id(v) for v in violated}
        pending = [inst for inst in pending if id(inst) not in violated_set]
        stats.iterations += 1


# -- model monotonization ---------------------------------------------------------


class MonotonizationError(ValueError):
    """The base model violates a ground lemma (it was not a model of the
    eager encoding), so its table cannot be reproduced monotonically."""


@dataclass
class MonotoneModel:
    """A model completed into globally monotone total functions.

    For each symbol, the completed function maps x to the maximum table
    output over table points dominated by x in the specification order, or
    to the default (minimum table output, else the domain minimum) when no
    point is dominated.
    """

    base: Model
    spec: MonotonicitySpec
    tables: dict[str, list[tuple[ValueVector, Value]]]
    defaults: dict[str, Value]

    def evaluate(self, func: FunctionSymbol, args: ValueVector) -> Value:
        args = tuple(args)
        entries = self.tables.get(func.name)
        if entries is None:
            table = self.base.functions.get(func.name)
            if table is None:
                raise MonotonizationError(f"no table for symbol {func.name}")
            return table.lookup(args)
        mono, anti = self.spec.monotone(func), self.spec.anti_monotone(func)
        return max(
            (out for point, out in entries if _dominates(point, args, mono, anti)),
            default=self.defaults[func.name],
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


def monotonize_model(base: Model, spec: MonotonicitySpec) -> MonotoneModel:
    """Complete the finite tables of a model into globally monotone functions.

    Raises MonotonizationError if a table value cannot be reproduced, which
    happens exactly when the base model violates some ground lemma.
    """
    tables: dict[str, list[tuple[ValueVector, Value]]] = {}
    defaults: dict[str, Value] = {}
    for func in spec.entries:
        table = base.functions.get(func.name)
        rows = dict(table.rows) if table is not None else {}
        entries = list(rows.items())
        default = default_output(func.result_sort, rows.values())
        tables[func.name] = entries
        defaults[func.name] = default
        mono, anti = spec.monotone(func), spec.anti_monotone(func)
        for point, out in rows.items():
            best = max(
                (o for p, o in entries if _dominates(p, point, mono, anti)),
                default=default,
            )
            if best != out:
                raise MonotonizationError(
                    f"{func.name}{point} maps to {out} but a dominated point "
                    f"forces at least {best}; base model violates a ground lemma"
                )
    return MonotoneModel(base, spec, tables, defaults)
