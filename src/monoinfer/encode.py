"""The four monotonicity-handling strategies, plus model monotonization.

Two quantified encodings turn the specification into universal axioms (one
per constrained argument, or one aggregated axiom per symbol).  The
instantiation-based encodings exploit locality: ground instances of the
aggregated axiom at pairs of application argument vectors occurring in the
formula suffice for equisatisfiability.  Both read one index of the
formula's applications, built in a single traversal.  The eager encoding
asserts every instance up front.  The lazy strategy asserts the lemma of
each pair a candidate model breaks (`model.broken_pairs`): in the engine's
theory rounds, within one check-sat, where the session accepts the
specification's signs (`SolverSession.check_lemmas_in_search`, the
in-process engine), else in a loop over the models the session extracts.
Both strategies hand a lemma to the session as its two
applications (`SolverSession.assert_lemma`); a lemma Term is built only
where text is needed: for an external solver, and in `encode_eager` and
`ground_lemmas`, which `--emit-smt2` writes.  The lemma Terms of one
`ground_lemmas` call share their parts: each consequent compares the
pair's own applications, and each distinct antecedent comparison is one
Term, held by every lemma that uses it.

Monotonization replaces each constrained symbol's table by a MonotoneTable,
whose lookup is the monotone completion of its rows, so a monotonized model
is a plain Model and `model.evaluate` values terms under it.  Over a finite
grid, `MonotoneTable.grid_outputs` materializes the same completion without
a per-point scan: it writes the rows, in ascending output order, onto the
up-cubes of grid points that dominate them.
"""

from __future__ import annotations

import bisect
import enum
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional, Sequence

from .model import (
    FunctionTable,
    Model,
    Value,
    ValueVector,
    broken_pairs,
    default_output,
    dominates,
    evaluate_with,
)
from .session import TIMEOUT, UNKNOWN, UNSAT, SolverSession, SolverVerdict
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
    lemma_antecedent,
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
    spec: MonotonicitySpec,
    t: Apply,
    s: Apply,
    atoms: Optional[dict[tuple[str, Term, Term], Term]] = None,
) -> Term:
    """The aggregated implication between two applications t = f(xs) and
    s = f(ys) of one symbol:
    (/\\ mono x_i <= y_i) /\\ (/\\ anti y_i <= x_i) /\\ (/\\ rest x_i = y_i)
    -> t <= s.
    Each antecedent atom is taken from `atoms`, keyed on its comparison, and
    stored there when missing, so lemmas built with one table share it."""
    mono, anti = spec.monotone(t.func), spec.anti_monotone(t.func)
    if atoms is None:
        atoms = {}
    antecedent: list[Term] = []
    for key in lemma_antecedent(t.args, s.args, mono, anti):
        atom = atoms.get(key)
        if atom is None:
            op, x, y = key
            atom = ordering_atom(x, y) if op == "<=" else Cmp(CmpOp.EQ, x, y)
            atoms[key] = atom
        antecedent.append(atom)
    return mk_implies(antecedent, ordering_atom(t, s))


def encode_quant_aggregated(formula: Term, spec: MonotonicitySpec) -> EncodedProblem:
    """One aggregated universal constraint per constrained symbol."""
    conjuncts = [formula]
    count = 0
    for func in _application_index(formula, spec):
        xs = _bound_vars(func, "x")
        ys = _bound_vars(func, "y")
        body = _aggregated_body(spec, Apply(func, xs), Apply(func, ys))
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
    return _aggregated_body(spec, Apply(func, t), Apply(func, s))


def lemma_pairs(formula: Term, spec: MonotonicitySpec) -> Iterator[tuple[Apply, Apply]]:
    """The ordered pairs (t, s) of applications of one constrained symbol
    occurring in the formula, in emission order.  The diagonal is dropped:
    the lemma at (t, t) is valid."""
    for apps in _application_index(formula, spec).values():
        yield from itertools.permutations(apps, 2)


def ground_lemmas(formula: Term, spec: MonotonicitySpec) -> list[Term]:
    """The lemma of every pair of `lemma_pairs`, in emission order, equal to
    `monotonicity_lemma` at the pair's argument vectors.  The consequent
    compares the pair's own applications, and each distinct antecedent
    comparison is one Term shared by every lemma that uses it."""
    atoms: dict[tuple[str, Term, Term], Term] = {}
    return [_aggregated_body(spec, t, s, atoms) for t, s in lemma_pairs(formula, spec)]


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
    """The formula `solve` asserts under a strategy.  Both instantiated
    strategies keep the base formula, with the eager lemma count: `solve`
    asserts the lemmas at application pairs, with no lemma Term."""
    if strategy is Strategy.QUANT_INDIVIDUAL:
        return encode_quant_individual(formula, spec)
    if strategy is Strategy.QUANT_AGGREGATED:
        return encode_quant_aggregated(formula, spec)
    if strategy is Strategy.INST_EAGER and not is_quantifier_free(formula):
        raise EncodingError("eager instantiation requires a quantifier-free formula")
    return EncodedProblem(formula, eager_lemma_count(formula, spec), strategy)


# -- solving and the lazy loop --------------------------------------------------

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
        return SolverVerdict.unknown(TIMEOUT)


def solve(
    encoded: EncodedProblem,
    spec: MonotonicitySpec,
    session: SolverSession,
    stats: Optional[LazyRunStats] = None,
) -> SolverVerdict:
    """Solve an encoded problem through a session: the lazy loop for the
    lazy strategy, one assert/check/extract for the others.  Eager asserts
    every ordered application pair's lemma after the base formula, in
    emission order."""
    if encoded.strategy is Strategy.INST_LAZY:
        return solve_lazy(encoded.formula, spec, session, stats)
    session.assert_formula(encoded.formula)
    if encoded.strategy is Strategy.INST_EAGER:
        for t, s in lemma_pairs(encoded.formula, spec):
            session.assert_lemma(t, s, spec)
    verdict = _check(session)
    return verdict if verdict is not None else _sat(session)


def _violated_pairs(
    index: Mapping[FunctionSymbol, Sequence[Apply]],
    spec: MonotonicitySpec,
    model: Model,
    asserted: set[tuple[Apply, Apply]],
) -> list[tuple[Apply, Apply]]:
    """The application pairs (t, s) whose lemma the model falsifies, in
    emission order: each symbol's `broken_pairs`, with each application's
    point valued once and its result read from the symbol's table at that
    point, less the pairs in `asserted`.  A pair whose numeral arguments
    break the order breaks it on values too, so it is never flagged."""
    out = []
    leaf = model.leaf_value
    for func, apps in index.items():
        if len(apps) < 2:
            continue
        table = model.table(func)
        valued = []
        for app in apps:
            point = tuple(evaluate_with(a, leaf) for a in app.args)
            valued.append((app, point, table.lookup(point)))
        broken = broken_pairs(valued, spec.monotone(func), spec.anti_monotone(func))
        out += [pair for pair in broken if pair not in asserted]
    return out


@dataclass
class LazyRunStats:
    check_sat_calls: int = 0
    # the application pairs (t, s) whose lemma was asserted, in order
    asserted_lemmas: list[tuple[Apply, Apply]] = field(default_factory=list)


def solve_lazy(
    formula: Term,
    spec: MonotonicitySpec,
    session: SolverSession,
    stats: Optional[LazyRunStats] = None,
) -> SolverVerdict:
    """Lazy instantiation: assert the formula, then repeatedly extract a
    model, find the ground lemmas it violates, and assert them, until either
    no lemma is violated (sat, with that model) or the solver reports unsat.

    A session that checks the lemmas in its own search
    (`check_lemmas_in_search`) runs those rounds inside one check-sat and
    logs the pairs it grounds into `stats.asserted_lemmas`.  Otherwise the
    applications are indexed once from the formula (the set never grows);
    each candidate model values them once, and only a violated pair's lemma
    is asserted, through `session.assert_lemma`.  Every round asserts at
    least one new lemma, so the loop terminates within (eager lemma count
    + 1) checks.
    """
    if not is_quantifier_free(formula):
        raise EncodingError("lazy instantiation requires a quantifier-free formula")
    if stats is None:
        stats = LazyRunStats()
    in_search = session.check_lemmas_in_search(spec, stats.asserted_lemmas)
    session.assert_formula(formula)
    if in_search:
        stats.check_sat_calls += 1
        verdict = _check(session)
        return verdict if verdict is not None else _sat(session)
    index = _application_index(formula, spec)
    asserted: set[tuple[Apply, Apply]] = set()
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
        for t, s in violated:
            session.assert_lemma(t, s, spec)
        stats.asserted_lemmas += violated
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
            (out for point, out in self.rows.items() if dominates(point, args, mono, anti)),
            default=self.default,
        )

    def grid_outputs(self, axes: Sequence[Sequence[Value]]) -> list[Value]:
        """`lookup` at every point of the grid whose i-th coordinate ranges
        over the ascending values `axes[i]`, in row-major order (the order
        of `itertools.product(*axes)`).

        Every point starts at the default.  Then, in ascending output order,
        each row writes its output onto its up-cube: the box of grid points
        that dominate its point.  The last write at a point is the largest
        output among the rows the point dominates, which is `lookup`.  A row
        off the grid has a smaller, possibly empty, box.
        """
        sizes = [len(values) for values in axes]
        strides = [math.prod(sizes[i + 1 :]) for i in range(len(sizes))]
        outputs = [self.default] * math.prod(sizes)
        for point, out in sorted(self.rows.items(), key=lambda row: row[1]):
            box = [self._up_range(i, p, axes[i - 1]) for i, p in enumerate(point, start=1)]
            if any(lo >= hi for lo, hi in box):
                continue
            # merge trailing axes while the box spans them whole: under each
            # prefix of the axes before j, the box is then one run [lo, hi)
            j, lo, hi = len(axes), 0, 1
            while j and (lo, hi) == (0, strides[j - 1]):
                j -= 1
                lo, hi = box[j][0] * strides[j], box[j][1] * strides[j]
            bases = [0]
            for (a, b), stride in zip(box[:j], strides):
                bases = [base + k * stride for base in bases for k in range(a, b)]
            run = [out] * (hi - lo)
            for base in bases:
                outputs[base + lo : base + hi] = run
        return outputs

    def _up_range(self, i: int, p: Value, values: Sequence[Value]) -> tuple[int, int]:
        """The range [lo, hi) of positions in `values` whose value dominates
        coordinate i's value p."""
        if i in self.mono:
            return bisect.bisect_left(values, p), len(values)
        if i in self.anti:
            return 0, bisect.bisect_right(values, p)
        k = bisect.bisect_left(values, p)
        return (k, k + 1) if k < len(values) and values[k] == p else (0, 0)


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
        mono, anti = spec.monotone(func), spec.anti_monotone(func)
        completed = MonotoneTable(
            rows, default_output(func.result_sort, rows.values()), mono, anti
        )
        for point, out in rows.items():
            # a row is reproduced unless a row it dominates has a larger output
            if any(o > out and dominates(q, point, mono, anti) for q, o in rows.items()):
                best = completed.lookup(point)
                raise MonotonizationError(
                    f"{func.name}{point} maps to {out} but a dominated point "
                    f"forces at least {best}; base model violates a ground lemma"
                )
        functions[func.name] = completed
    return Model(base.constants, functions)
