"""The built-in decision engine.

Decides ground formulas over Bool and Int with uninterpreted functions by
grounding to CNF: uninterpreted applications become opaque unknowns, integer
atoms are normalized to difference constraints (x - y <= k), and a CDCL SAT
core is run in a lazy theory loop against the difference-constraint checker
and one rule: each round grounds the monotonicity lemma of every ordered
pair of one symbol's applications whose points a candidate model orders
while their results decrease (`model.broken_pairs`).  A round values each
point from the application's grounded argument forms (`Engine.app_args`,
kept when the application is first grounded) against the SAT model, with no
walk over argument terms.  A symbol's signs are those a session handed in
(`lemma_signs`, the lazy strategy in-process), else none, and then the
lemma is Ackermann congruence.  An application of
an unsigned symbol caught again in a later round is tied to every
application of its symbol: congruence is symmetric, so a tie builds one
antecedent and adds both ways, and each ordered pair is grounded once.
A signed symbol whose argument forms and result are all Boolean literals
is checked inside the search instead (`_SearchLemmas`, the SAT solver's
theory hook): at each propagation fixpoint its touched applications are
compared, and a broken pair's lemma is grounded at the trail where it
breaks, as an implication or a conflict, so the search never re-descends
from level 0 for it and the full-model pass finds none of its pairs.
Unsigned (congruence), order-encoded and difference-logic symbols keep
the rounds at full models: the same check over them, conflict-only, took
the multivalued benchmark's median lazy operation from 68 to 89 ms and
slowed its eager and quantified ones too.
Universal quantifiers are
expanded finitely when every binder sort is Boolean or a bounded integer
interval, within an instantiation budget that counts the full product of
the binder domains.  Where the body is an implication, each
antecedent conjunct over binders and literals alone is tabulated once, and
assignment prefixes are extended up to each binder where such a conjunct
ends, so a prefix that falsifies one is dropped before any assignment
extending it is formed.  An instance takes
its applications from one table per engine (`Engine.instance_apps`, keyed
on symbol and argument values), so an application that several instances
or axioms share is built once (hash-consing).
Expansion, and a conjunction between its conjuncts, stop at the deadline
they are given.  Every conjunction gate (And, and Or and Implies as negated
conjunctions, integer equality, order ladder comparisons inside a formula)
comes from `Engine._and` and every equivalence from `Engine._iff_gate`; both
fold constant and repeated operands, so only what stays open costs a SAT
variable.  A gate is defined in both directions, so its inputs force it: gate
variables are not SAT decision variables, and the search branches only on
constants, application results, ladder and atom variables.  A monotonicity
lemma becomes one clause over its antecedent and consequent literals, whether
it arrives as a Term (`assert_term`) or as its two applications
(`assert_lemma`, its antecedent from `terms.lemma_antecedent` over the
same argument forms, stopping at the first comparison that folds to
false).  Where that clause's last literal, or a bare asserted
atom, would compare two order-encoded nodes, `Engine._add_le_clause` adds
the comparison's order-encoding clauses instead, one per value of its right
node, with no gate.  One recursive method, `Engine.ground`, turns a term into its literal
or linear form, in a fixed order that numbers the SAT variables: an
application's node before its arguments, the right operand of `>=` and `>`
before the left.

The engine grounds and searches; it does not build models.  Nothing is
declared ahead: a constant gets its SAT variable, ladder or difference-logic
node where grounding first meets it, and is recorded there in
`Engine.declared`, the dict a session passes in, as is a function symbol
once an application's arguments are grounded.  Only what grounding skips, a
consequent dropped at a false antecedent literal and a quantifier before its
expansion, is walked with `terms.collect_declarations`.  A name recorded as
two different items raises `Redeclared`.  After a sat answer, `Engine.value`
values any application or constant, and `Engine.app_points` groups each
symbol's applications by their point in that answer, which is all a session
needs to tabulate a Model.  A constant that no assertion grounded (declared
but unused, or met only in a lemma dropped for a false antecedent
literal: in its consequent or, under `assert_lemma`, in a comparison after
that literal) is unconstrained and takes its sort's least value.

Fragment limits (anything outside raises EngineUnsupported rather than
risking a wrong verdict):
  - linear atoms must reduce to at most two unit-coefficient unknowns;
  - quantifiers must have finitely bounded binder sorts and positive
    polarity (negative or existential binders are rejected; callers
    skolemize first);
  - expansion over a bounded box is always sound for unsat; for sat it
    assumes ground integer terms are constrained to the same box, which
    the inference encodings guarantee via their bounds constraints.

Semantics note: an unknown whose sort carries small bounds is interpreted
intrinsically as ranging over that interval (its unary ladder admits no
other value).  This coincides with standard integer semantics for every
formula this package emits, because the encoders always assert the bounds
explicitly; hand-built formulas that rely on a bounded-sorted constant
taking out-of-range values are outside the supported fragment.
"""

from __future__ import annotations

import itertools
import time
from operator import itemgetter
from typing import Callable, Optional, Sequence, Union

from . import sat
from .difflogic import ZERO, DiffConstraint, solve_difference_constraints
from .model import Value, broken_pairs, default_output, evaluate_with
from .sat import SatSolver
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
    Sub,
    Term,
    Var,
    collect_declarations,
    iter_subterms,
    lemma_antecedent,
    lit as value_lit,
    substitute,
)

Node = Union[tuple[str, str], tuple[str, Apply]]
# a grounded term: a Boolean term's literal, or an integer term's linear
# form ({node: coefficient}, constant)
Form = Union[int, tuple[dict[Node, int], int]]


class EngineUnsupported(Exception):
    """Input outside the engine's decidable fragment."""


class Redeclared(Exception):
    """One name grounded as two different constants or function symbols."""


MAX_QUANTIFIER_INSTANCES = 1 << 16
MAX_THEORY_ROUNDS = 1 << 20
# bounded-sort unknowns with ranges up to this size are unary (order)
# encoded straight into SAT; larger or unbounded ones go to the
# difference-logic theory
MAX_ORDER_ENCODING_RANGE = 64

# an integer comparison l op r as a - b <= offset
_AS_DIFFERENCE = {
    CmpOp.LE: lambda l, r: (l, r, 0),
    CmpOp.LT: lambda l, r: (l, r, -1),
    CmpOp.GE: lambda l, r: (r, l, 0),
    CmpOp.GT: lambda l, r: (r, l, -1),
}


# comparisons that hold between a term and itself
_REFLEXIVE = (CmpOp.LE, CmpOp.GE, CmpOp.EQ)


class Engine:
    """One incremental solving context (assertions are cumulative)."""

    def __init__(self, declared: Optional[dict[str, Union[Const, FunctionSymbol]]] = None):
        # each constant and function symbol grounded, by name
        self.declared = {} if declared is None else declared
        self.sat = SatSolver()
        self.true_var = self.sat.new_var()
        self.sat.add_clause([self.true_var])
        self.atom_var: dict[tuple, int] = {}  # (x, y, k) meaning x - y <= k
        self.atom_pairs: dict[tuple, list[tuple[int, int]]] = {}
        self.theory_rounds = 0
        self.bool_unknowns: dict[Node, int] = {}
        # compound term, ("ladder", x, y, k), ("iff", a, b) or ("inteq", a, b)
        # -> its literal, folded constants included
        self.gate_cache: dict[Union[Term, tuple], int] = {}
        self.apps_by_symbol: dict[str, list[Apply]] = {}
        self.app_node: dict[Apply, Node] = {}
        self.app_args: dict[Apply, tuple[Form, ...]] = {}  # its arguments' forms
        self._caught: set[Apply] = set()  # applications in a broken pair
        # the ordered pairs (t, s) whose congruence t <= s the rounds grounded
        self._congruent: set[tuple[Apply, Apply]] = set()
        # per constrained symbol, its monotone and anti-monotone index sets;
        # its broken pairs are logged, in grounding order
        self.lemma_signs: dict[str, tuple[frozenset[int], frozenset[int]]] = {}
        self.lemma_log: list[tuple[Apply, Apply]] = []
        # per symbol, its applications grouped by point in the last model
        self.app_points: dict[str, dict[tuple[Value, ...], list[Apply]]] = {}
        self.node_bounds: dict[Node, Optional[tuple[int, int]]] = {}
        self.order_vars: dict[Node, dict[int, int]] = {}  # node -> {j: var for x >= j}
        self.quant_instances = 0
        # (symbol, argument values) -> the one instance application there
        self.instance_apps: dict[tuple, Apply] = {}
        self._int_values: dict[Node, int] = {}

    # -- variable/atom allocation -------------------------------------------------

    def _bool_var(self, key: Node) -> int:
        var = self.bool_unknowns.get(key)
        if var is None:
            var = self.sat.new_var()
            self.bool_unknowns[key] = var
        return var

    def _register_int_node(self, node: Node, bounds: Optional[tuple[int, int]]) -> None:
        """Record an integer unknown; small bounded ranges get a full unary
        ladder (x >= j variables with chain clauses) at registration."""
        if node in self.node_bounds:
            return
        if bounds is not None and bounds[1] - bounds[0] > MAX_ORDER_ENCODING_RANGE:
            bounds = None
        self.node_bounds[node] = bounds
        if bounds is None:
            return
        lo, hi = bounds
        ladder: dict[int, int] = {}
        prev = None
        for j in range(lo + 1, hi + 1):
            var = self.sat.new_var()
            ladder[j] = var
            if prev is not None:
                self.sat.add_clause([-var, prev])  # x >= j implies x >= j-1
            prev = var
        self.order_vars[node] = ladder

    def _ge_lit(self, node: Node, j: int) -> int:
        """Literal for x >= j on an order-encoded node."""
        lo, hi = self.node_bounds[node]  # type: ignore[misc]
        if j <= lo:
            return self.true_var
        if j > hi:
            return -self.true_var
        return self.order_vars[node][j]

    def _ladder_steps(self, x: Node, y: Node, k: int) -> list[list[int]]:
        """x - y <= k over order-encoded nodes as one disjunction per value v
        of y:  (y >= v+1) or not (x >= v+k+1),  i.e. (y <= v) -> (x <= v+k)
        (Tamura et al., "Compiling finite linear CSP into SAT", 2009).  A
        step with v + k + 1 above x's upper bound holds trivially and is
        left out."""
        ylo, yhi = self.node_bounds[y]  # type: ignore[misc]
        xhi = self.node_bounds[x][1]  # type: ignore[index]
        return [
            [self._ge_lit(y, v + 1), -self._ge_lit(x, v + k + 1)]
            for v in range(ylo, min(yhi, xhi - k - 1) + 1)
        ]

    def _ladder_le_lit(self, x: Node, y: Node, k: int) -> int:
        """Literal for x - y <= k over order-encoded nodes, where it stands
        in a gate: each step of `_ladder_steps` is a negated and-gate, and
        the steps are conjoined.  In a clause position `_add_le_clause`
        adds the steps as clauses instead."""
        key = ("ladder", x, y, k)
        lit = self.gate_cache.get(key)
        if lit is None:
            lit = self.gate_cache[key] = self._and([
                -self._and([-a, -b]) for a, b in self._ladder_steps(x, y, k)
            ])
        return lit

    def _atom_lit(self, x: Optional[Node], y: Optional[Node], k: int) -> int:
        """Literal for the atom x - y <= k (None stands for the zero node)."""
        if x is None and y is None:
            return self.true_var if 0 <= k else -self.true_var
        xn = x if x is not None else ZERO
        yn = y if y is not None else ZERO
        key = (xn, yn, k)
        var = self.atom_var.get(key)
        if var is None:
            var = self.sat.new_var()
            self.atom_var[key] = var
            # initial phase = truth under the all-zero valuation, so default
            # assignments start out theory-consistent
            self.sat.phase[var] = k >= 0
            self._pair_lemmas(xn, yn, k, var)
        return var

    def _pair_lemmas(self, x: Node, y: Node, k: int, var: int) -> None:
        """Static binary lemmas against existing atoms on the same node pair.

        Same direction: the tighter bound implies the looser one.  Opposite
        direction: two bounds may be jointly infeasible (mutex) or jointly
        un-negatable (at least one holds).  These catch all length-2 cycles
        eagerly, leaving only longer cycles to the lazy theory loop.
        """
        same = self.atom_pairs.setdefault((x, y), [])
        for k2, var2 in same:
            if k < k2:
                self.sat.add_clause([-var, var2])
            else:
                self.sat.add_clause([-var2, var])
        same.append((k, var))
        for k2, var2 in self.atom_pairs.get((y, x), ()):
            if k + k2 < 0:
                self.sat.add_clause([-var, -var2])
            if k + k2 >= -1:
                self.sat.add_clause([var, var2])

    # -- grounding ---------------------------------------------------------------------

    def ground(self, term: Term) -> Form:
        """A Boolean ground term's literal, or an integer ground term's
        linear form ({node: coefficient}, constant).  Only And, Or and
        Implies literals are cached on the term, so the cache is read after
        the other cases, which come in the order the workloads meet them
        most."""
        match term:
            case Apply():
                node = self.app_node.get(term)
                if node is None:
                    # the node first, then the arguments, whose forms value
                    # the application's table point and ground any lemma it
                    # joins; then it joins its symbol's list
                    node = self.app_node[term] = ("a", term)
                    if term.sort.is_bool:
                        self._bool_var(node)
                    else:
                        self._register_int_node(node, term.sort.bounds)
                    self.app_args[term] = tuple([self.ground(arg) for arg in term.args])
                    self._declare(term.func)
                    self.apps_by_symbol.setdefault(term.func.name, []).append(term)
                return self.bool_unknowns[node] if term.sort.is_bool else ({node: 1}, 0)
            case Const():
                self._declare(term)
                node = ("c", term.name)
                if term.sort.is_bool:
                    return self._bool_var(node)
                self._register_int_node(node, term.sort.bounds)
                return {node: 1}, 0
            case IntLit(value=v):
                return {}, v
            case BoolLit(value=v):
                return self.true_var if v else -self.true_var
            case Cmp(op=op, lhs=l, rhs=r):
                if l.sort.is_bool:
                    iff = self._iff_gate(self.ground(l), self.ground(r))
                    return iff if op is CmpOp.EQ else -iff
                if op in _AS_DIFFERENCE:
                    lhs, rhs, offset = _AS_DIFFERENCE[op](l, r)
                    left, right = self.ground(lhs), self.ground(rhs)
                    return self._le_lit(*self._difference(left, right, offset))
                both = self._int_eq_lit(l, r)
                return both if op is CmpOp.EQ else -both
            case Not(arg=a):
                return -self.ground(a)
            case Add(lhs=l, rhs=r):
                cl, kl = self.ground(l)
                cr, kr = self.ground(r)
                return _merge(cl, cr, 1), kl + kr
            case Sub(lhs=l, rhs=r):
                cl, kl = self.ground(l)
                cr, kr = self.ground(r)
                return _merge(cl, cr, -1), kl - kr
            case Neg(arg=a):
                ca, ka = self.ground(a)
                return {n: -c for n, c in ca.items()}, -ka
            case _ if (cached := self.gate_cache.get(term)) is not None:
                return cached
            case And(args=args):
                lit = self._and([self.ground(a) for a in args])
            case Or(args=args):
                lit = -self._and([-self.ground(a) for a in args])
            case Implies(lhs=l, rhs=r):
                lit = -self._and_not(self.ground(l), self.ground(r))
            case Forall() | Exists():
                raise EngineUnsupported(
                    "quantifier in a non-positive position; skolemize first"
                )
            case Var(name=name):
                raise EngineUnsupported(f"free variable {name} in ground context")
            case _:
                raise EngineUnsupported(f"unsupported term {type(term).__name__}")
        self.gate_cache[term] = lit
        return lit

    def _declare(self, item: Union[Const, FunctionSymbol]) -> None:
        known = self.declared.setdefault(item.name, item)
        if known is not item and known != item:
            raise Redeclared(f"conflicting redeclaration of {item.name}")

    def _declare_skipped(self, term: Term) -> None:
        """Declare the constants and symbols in `term`, which grounding skips."""
        for item in collect_declarations([term]):
            self._declare(item)

    def _is_laddered(self, node: Optional[Node]) -> bool:
        return self.node_bounds.get(node) is not None

    def _difference(
        self, left: Form, right: Form, offset: int
    ) -> tuple[Optional[Node], Optional[Node], int]:
        """left - right <= offset, over two grounded linear forms, normalized
        to x - y <= k over registered nodes, None standing for the zero node."""
        (cl, kl), (cr, kr) = left, right
        coeffs = _merge(cl, cr, -1)
        x = y = None
        for node, c in coeffs.items():
            if c == 1 and x is None:
                x = node
            elif c == -1 and y is None:
                y = node
            elif c != 0:
                raise EngineUnsupported(
                    "integer atom outside the difference fragment "
                    f"(coefficients {sorted(v for v in coeffs.values() if v != 0)})"
                )
        return x, y, offset + kr - kl

    def _le_lit(self, x: Optional[Node], y: Optional[Node], k: int) -> int:
        """Literal for x - y <= k, None standing for the zero node."""
        lx, ly = self._is_laddered(x), self._is_laddered(y)
        if lx and ly:
            return self._ladder_le_lit(x, y, k)
        if lx and y is None:  # x <= k
            return -self._ge_lit(x, k + 1)
        if ly and x is None:  # y >= -k
            return self._ge_lit(y, -k)
        if lx or ly:
            raise EngineUnsupported(
                "atom mixes a small-bounded unknown with an unbounded one"
            )
        return self._atom_lit(x, y, k)

    def _add_le_clause(self, negs: list[int], lhs: Term, rhs: Term, offset: int = 0) -> None:
        """Add the clause negs or (lhs - rhs <= offset).  Between two
        order-encoded nodes that is one clause per step of `_ladder_steps`,
        with no gate and no SAT variable; otherwise one clause over its
        literal."""
        x, y, k = self._difference(self.ground(lhs), self.ground(rhs), offset)
        if self._is_laddered(x) and self._is_laddered(y):
            for step in self._ladder_steps(x, y, k):
                self.sat.add_clause(negs + step)
        else:
            self.sat.add_clause(negs + [self._le_lit(x, y, k)])

    def _add_clause(self, negs: list[int], last: Term) -> None:
        """Add the clause negs or `last`; an integer <=, <, >= or > goes
        through `_add_le_clause`."""
        if isinstance(last, Cmp) and last.op in _AS_DIFFERENCE and not last.lhs.sort.is_bool:
            self._add_le_clause(negs, *_AS_DIFFERENCE[last.op](last.lhs, last.rhs))
        else:
            self.sat.add_clause(negs + [self.ground(last)])

    # -- uninterpreted applications ----------------------------------------------

    def _ground_broken_pairs(self) -> bool:
        """Ground each pair the current model breaks; False if it breaks none.

        Each symbol's `model.broken_pairs`, under its signs in `lemma_signs`
        (then logged) or with every argument unsigned, are grounded one way
        by `assert_lemma`.  Each round is a full SAT re-descent, so an
        application of an unsigned symbol caught again (one over unknown
        arguments can meet a new point every round) is tied to every
        application of its symbol (`_tie`, both ways on one antecedent) at
        once.

        The rounds end: a broken pair has its points ordered, so no
        antecedent literal is false at level 0, and its results out of
        order, so it was never grounded; a grounded pair holds in every
        later model.  Each round grounds a new pair, and pairs are finite.
        A tie would repeat the way a broken pair was grounded, or a tie
        made from its other application's side, so the unsigned ways
        grounded are kept in `_congruent` and each is grounded once."""
        broken = False
        caught: dict[Apply, None] = {}
        unsigned = (frozenset(), frozenset())
        read = self._form_value
        for name, apps in self.apps_by_symbol.items():
            by_point = self.app_points[name] = {}
            valued = []
            for app in apps:
                point = tuple(map(read, self.app_args[app]))
                by_point.setdefault(point, []).append(app)
                valued.append((app, point, self.value(app)))
            signs = self.lemma_signs.get(name, unsigned)
            for t, s in broken_pairs(valued, *signs):
                self.assert_lemma(t, s, *signs)
                broken = True
                if signs is unsigned:
                    caught[t] = caught[s] = None
                    self._congruent.add((t, s))
                else:
                    self.lemma_log.append((t, s))
        for app in caught:
            if app in self._caught:
                for other in self.apps_by_symbol[app.func.name]:
                    if other is not app:
                        self._tie(app, other)
        self._caught.update(caught)
        return broken

    # -- Tseitin ----------------------------------------------------------------------

    def _and(self, lits: list[int]) -> int:
        """Literal equivalent to the conjunction of `lits`.  True operands drop
        out; a false operand or a complementary pair gives false; a lone open
        operand is returned as it is.  Only two or more open operands make a
        gate g, with [-g, l] per operand and [g, -l...]."""
        t = self.true_var
        open_lits: dict[int, None] = {}
        for l in lits:
            if l == -t or -l in open_lits:
                return -t
            if l != t:
                open_lits[l] = None
        if len(open_lits) < 2:
            return next(iter(open_lits), t)
        g = self.sat.new_var(decide=False)
        for l in open_lits:
            self.sat.add_clause([-g, l])
        self.sat.add_clause([g] + [-l for l in open_lits])
        return g

    def _iff_gate(self, la: int, lb: int) -> int:
        """Literal equivalent to (la <-> lb), folding a constant or repeated
        operand."""
        t = self.true_var
        if abs(la) == abs(lb):
            return t if la == lb else -t
        if abs(lb) == t:
            la, lb = lb, la
        if abs(la) == t:
            return lb if la == t else -lb
        key = ("iff", la, lb) if la <= lb else ("iff", lb, la)
        g = self.gate_cache.get(key)
        if g is None:
            g = self.gate_cache[key] = self.sat.new_var(decide=False)
            self.sat.add_clause([-g, -la, lb])
            self.sat.add_clause([-g, la, -lb])
            self.sat.add_clause([g, la, lb])
            self.sat.add_clause([g, -la, -lb])
        return g

    def _and_not(self, x: int, y: int) -> int:
        """x and not y, the negation of x -> y, cached on the literal pair."""
        key = ("andnot", x, y)
        if key not in self.gate_cache:
            self.gate_cache[key] = self._and([x, -y])
        return self.gate_cache[key]

    def _int_eq_lit(self, l: Term, r: Term) -> int:
        """Literal for l = r, one gate that r = l shares: cached on the term
        pair either way round, so neither bound is built twice."""
        both = self.gate_cache.get(("inteq", l, r))
        if both is None:
            both = self._int_eq_of(self.ground(l), self.ground(r))
            self.gate_cache[("inteq", l, r)] = self.gate_cache[("inteq", r, l)] = both
        return both

    def _int_eq_of(self, left: Form, right: Form) -> int:
        """Literal for the equality of two linear forms: the conjunction of
        its two bounds, cached on their unordered literal pair."""
        a1 = self._le_lit(*self._difference(left, right, 0))
        a2 = self._le_lit(*self._difference(right, left, 0))
        key = ("inteq", a1, a2) if a1 <= a2 else ("inteq", a2, a1)
        both = self.gate_cache.get(key)
        if both is None:
            both = self.gate_cache[key] = self._and([a1, a2])
        return both

    # -- assertion ---------------------------------------------------------------------

    def _forall_instance_count(self, term: Forall) -> int:
        count = 1
        for v in term.bound:
            if not v.sort.is_bounded:
                raise EngineUnsupported(
                    f"quantified variable {v.name} has an unbounded sort"
                )
            count *= v.sort.size()
        return count

    def _precheck_expansion_budget(self, args: tuple[Term, ...]) -> None:
        """Refuse an over-budget conjunction before grounding any of it."""
        total = self.quant_instances
        for a in args:
            if isinstance(a, Forall):
                total += self._forall_instance_count(a)
        _check_expansion_budget(total)

    def assert_term(self, term: Term, deadline: Optional[float] = None) -> None:
        """Ground `term` as clauses.  A conjunction between its conjuncts and
        quantifier expansion between its instances poll `deadline` and raise
        TimeoutError once it has passed, leaving the rest ungrounded."""
        match term:
            case BoolLit(value=True):
                return
            case BoolLit(value=False):
                self.sat.ok = False
                return
            case And(args=args):
                self._precheck_expansion_budget(args)
                for a in args:
                    if deadline is not None and time.monotonic() > deadline:
                        raise TimeoutError("grounding passed the deadline")
                    self.assert_term(a, deadline)
            case Forall():
                self._declare_skipped(term)
                self._expand_forall(term, deadline)
            case Exists():
                raise EngineUnsupported("existential quantifier; skolemize first")
            case Implies(lhs=l, rhs=r):
                if not self._assert_implies(l.args if isinstance(l, And) else (l,), r):
                    self._declare_skipped(r)
            case Or(args=args):
                self.sat.add_clause([self.ground(a) for a in args])
            case _:
                self._add_clause([], term)

    def _assert_implies(self, antecedent: Sequence[Term], consequent: Term) -> bool:
        """One clause for the conjunction `antecedent` implying `consequent`,
        flattening a consequent implication (lemma shape).  A conjunct grounded
        before (a lemma atom that other lemmas share) is read from `gate_cache`.
        False when a false antecedent literal drops the consequent ungrounded."""
        cached = self.gate_cache.get
        negs = [-(cached(a) or self.ground(a)) for a in antecedent]
        if self.true_var in negs:
            return False
        if isinstance(consequent, Implies):
            negs.append(-self.ground(consequent.lhs))
            consequent = consequent.rhs
        self._add_clause(negs, consequent)
        return True

    def assert_lemma(
        self, t: Apply, s: Apply, mono: frozenset[int], anti: frozenset[int]
    ) -> None:
        """Ground the lemma at two applications of one symbol as the clause
        `assert_term` makes of its Term: its antecedent (`_lemma_negs`), then
        f(t) <= f(s).  An argument in neither `mono` nor `anti` is compared
        by equality, so with both empty the lemma both ways is congruence
        at (t, s), which `_tie` grounds on one antecedent."""
        negs = self._lemma_negs(t, s, mono, anti)
        if negs is not None:
            self._lemma_clause(negs, t, s)

    def _lemma_negs(
        self, t: Apply, s: Apply, mono: frozenset[int], anti: frozenset[int]
    ) -> Optional[list[int]]:
        """The negated literals of the lemma's `terms.lemma_antecedent`
        comparisons at (t, s), or None at the first comparison that folds
        to false (two unequal constants, say), whose clause holds a true
        literal.  The comparisons are read off the two applications'
        argument forms (`app_args`), so no argument term is walked again.
        Where an application is one no assertion grounded, the arguments
        are grounded comparison by comparison, in the order `assert_term`
        grounds the Term, and the application is registered only if the
        consequent is grounded."""
        forms = self.app_args.get(t), self.app_args.get(s)
        if None in forms:
            ground = self.ground
            comparisons = (
                (op, ground(x), ground(y))
                for op, x, y in lemma_antecedent(t.args, s.args, mono, anti)
            )
        else:
            comparisons = lemma_antecedent(*forms, mono, anti)
        true = self.true_var
        negs = []
        for op, x, y in comparisons:
            if isinstance(x, int):  # Boolean literals
                neg = self._and_not(x, y) if op == "<=" else -self._iff_gate(x, y)
            elif op == "<=":
                neg = -self._le_lit(*self._difference(x, y, 0))
            else:
                neg = -self._int_eq_of(x, y)
            if neg == true:
                return None
            negs.append(neg)
        return negs

    def _tie(self, t: Apply, s: Apply) -> None:
        """Congruence at (t, s) both ways, t <= s then s <= t, leaving out a
        way `_congruent` holds, on the one antecedent they share: each
        argument equality is symmetric, so its literal is the same either
        way round."""
        ways = [way for way in ((t, s), (s, t)) if way not in self._congruent]
        if not ways:
            return
        self._congruent.update(ways)
        negs = self._lemma_negs(t, s, frozenset(), frozenset())
        if negs is not None:
            for a, b in ways:
                self._lemma_clause(negs, a, b)

    def _lemma_clause(self, negs: list[int], t: Apply, s: Apply) -> None:
        """The lemma's clause on its antecedent `negs`: f(t) <= f(s)."""
        if t.sort.is_bool:
            self.sat.add_clause(negs + [-self.ground(t), self.ground(s)])
        else:
            self._add_le_clause(negs, t, s)

    def _expand_forall(self, term: Forall, deadline: Optional[float]) -> None:
        """Ground every instance of `term` in product order; the budget counts
        the full product.  An implication body's antecedent conjuncts over
        binders and literals alone (guards) are tabulated once.  Assignment
        prefixes are extended up to each position where a guard ends, and a
        prefix that falsifies such a guard is dropped unextended, since every
        instance it leads to holds a true literal in its clause.  A survivor
        grounds only the other conjuncts and the consequent, which makes the
        clause its whole instance makes, built by `_instance_of`."""
        self.quant_instances += self._forall_instance_count(term)
        _check_expansion_budget(self.quant_instances)
        bound, body = term.bound, term.body
        domains = [v.sort.values() for v in bound]
        # per binder position, the guards ending there: (sub-tuple key, satisfying keys)
        guards: list[list[tuple[itemgetter, set]]] = [[] for _ in bound]
        rest: list[Term] = []
        if isinstance(body, Implies):
            for conjunct in body.lhs.args if isinstance(body.lhs, And) else (body.lhs,):
                positions = _binder_positions(conjunct, bound)
                if not positions:
                    rest.append(conjunct)
                    continue
                binders = [bound[i] for i in positions]
                # itemgetter gives a bare value for one position; keying each
                # sub-tuple by the getter of its own positions matches that
                sub_key = itemgetter(*range(len(positions)))
                table = {
                    sub_key(sub)
                    for sub in itertools.product(*(domains[i] for i in positions))
                    if evaluate_with(
                        substitute(conjunct, dict(zip(binders, map(value_lit, sub)))),
                        self.value,
                    )
                }
                guards[positions[-1]].append((itemgetter(*positions), table))
        # extend the prefixes up to each position where a guard ends (and the
        # last), then keep those its guards admit
        combos: list[tuple] = [()]
        start = 0
        for end, ending in enumerate(guards):
            if ending or end == len(bound) - 1:
                tails = list(itertools.product(*domains[start:end + 1]))
                combos = [combo + tail for combo in combos for tail in tails]
                start = end + 1
                for key, table in ending:
                    combos = [combo for combo in combos if key(combo) in table]
        if isinstance(body, Implies):
            antecedent = [self._instance_of(c, bound) for c in rest]
            consequent = self._instance_of(body.rhs, bound)
            # a reflexive consequent at one grounded application, such as
            # f(p) <= f(p), holds and grounds nothing new: with no other
            # conjunct its instance adds nothing
            reflexive = not rest and (
                isinstance(body.rhs, Implies)
                or isinstance(body.rhs, Cmp) and body.rhs.op in _REFLEXIVE
            )
        else:
            whole = self._instance_of(body, bound)
        for combo in combos:
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError("quantifier expansion passed the deadline")
            if isinstance(body, Implies):
                instance = consequent(combo)
                if reflexive and instance.lhs is instance.rhs and instance.lhs in self.app_node:
                    continue
                self._assert_implies([c(combo) for c in antecedent], instance)
            else:
                self.assert_term(whole(combo), deadline)

    def _instance_of(self, term: Term, bound: tuple[Var, ...]) -> Callable[[tuple], Term]:
        """A function from an assignment of `bound` (its values, in binder
        order) to `term` with each binder replaced by its value's literal,
        as `terms.substitute` gives it.  Each application over a binder comes
        from `instance_apps`, keyed on its symbol and its arguments' values
        (an argument that is no binder or literal keys as its own instance),
        so one that several instances or axioms share is built once.  A Cmp
        or an Implies is rebuilt around its operands' instances, a term with
        no binder is kept, and anything else goes to `substitute`."""
        if not any(t in bound for t in iter_subterms(term) if isinstance(t, Var)):
            return lambda combo: term
        match term:
            case Var():
                i = bound.index(term)
                return lambda combo: value_lit(combo[i])
            case Apply(func=f, args=args):
                table = self.instance_apps
                # per argument: its binder's position, or its instance function
                parts = [bound.index(a) if a in bound else self._instance_of(a, bound) for a in args]

                def build(combo):
                    key = (f, tuple([
                        combo[p] if isinstance(p, int) else _key_value(p(combo)) for p in parts
                    ]))
                    app = table.get(key)
                    if app is None:
                        app = table[key] = Apply(f, [
                            v if isinstance(v, Term) else value_lit(v) for v in key[1]
                        ])
                    return app
                return build
            case Cmp(op=op, lhs=l, rhs=r):
                lhs, rhs = self._instance_of(l, bound), self._instance_of(r, bound)
                return lambda combo: Cmp(op, lhs(combo), rhs(combo))
            case Implies(lhs=l, rhs=r):
                lhs, rhs = self._instance_of(l, bound), self._instance_of(r, bound)
                return lambda combo: Implies(lhs(combo), rhs(combo))
            case _:
                return lambda combo: substitute(term, dict(zip(bound, map(value_lit, combo))))

    # -- solving -----------------------------------------------------------------------

    def check(self, deadline: Optional[float] = None) -> str:
        """SAT search, difference-logic check and the pass over application
        pairs, in rounds until a model breaks no pair; `theory_rounds`
        counts every round.  The lemmas of the symbols `_SearchLemmas`
        takes are checked inside each search, so the pass finds none of
        theirs."""
        theory = _SearchLemmas.of(self)
        for _ in range(MAX_THEORY_ROUNDS):
            result = self.sat.solve(deadline, theory)
            if result != sat.SAT:
                return result
            constraints = []
            model = self.sat.model
            for (x, y, k), var in self.atom_var.items():
                if model[var] > 0:
                    constraints.append(DiffConstraint(x, y, k, tag=var))
                else:
                    constraints.append(DiffConstraint(y, x, -k - 1, tag=-var))
            values, cycle = solve_difference_constraints(constraints)
            self.theory_rounds += 1
            if cycle is not None:
                self.sat.add_clause(sorted({-c.tag for c in cycle}))
            else:
                assert values is not None
                self._int_values = {n: v for n, v in values.items() if n != ZERO}
                if not self._ground_broken_pairs():
                    return sat.SAT
            if deadline is not None and time.monotonic() > deadline:
                return sat.UNKNOWN
        return sat.UNKNOWN

    # -- valuation -------------------------------------------------------------------

    def value(self, term: Const | Apply) -> Value:
        """Evaluator leaf over the current answer: a Boolean node's SAT
        variable, an integer node's `_node_value`.  Every application it
        meets is grounded; a constant that no assertion grounded is
        unconstrained and takes its sort's least value."""
        node = ("c", term.name) if isinstance(term, Const) else self.app_node[term]
        if node not in self.node_bounds and node not in self.bool_unknowns:
            return default_output(term.sort, ())
        if term.sort.is_bool:
            return self._form_value(self.bool_unknowns[node])
        return self._node_value(node)

    def _node_value(self, node: Node) -> int:
        """A registered integer node's value in the current answer: the
        highest true step of its order ladder, else its difference-logic
        value."""
        bounds = self.node_bounds[node]
        if bounds is None:
            return self._int_values.get(node, 0)
        lo, hi = bounds
        ladder = self.order_vars[node]
        model = self.sat.model
        for j in range(hi, lo, -1):
            if model[ladder[j]] > 0:
                return j
        return lo

    def _form_value(self, form: Form) -> Value:
        """A grounded term's value in the current answer, which is what
        `evaluate_with(term, self.value)` gives: a literal's truth in the
        SAT model (its gates are defined both ways), or a linear form summed
        over its nodes' values."""
        if isinstance(form, int):
            model = self.sat.model
            return model[form] > 0 if form > 0 else model[-form] < 0
        coeffs, k = form
        for node, c in coeffs.items():
            k += c * self._node_value(node)
        return k


class _SearchLemmas:
    """The theory hook that checks the monotonicity lemmas of the symbols in
    `lemma_signs` whose argument forms and result are all Boolean literals,
    at each propagation fixpoint of the SAT search.

    Each application's point is a bit mask, bit i set when argument i is
    true, cached with its validity stamp: the variable of the highest level
    among those it read, so the point holds while that variable is
    assigned.  An application whose argument or result literal was assigned
    since the last call is touched: its point is refreshed, then compared
    with every other complete point of its symbol.  The lemma at (t, s) is
    grounded (`Engine.assert_lemma`) where t's point dominates s's and
    either f(t) is true while f(s) is not, or f(s) is false while f(t) is
    not: its clause then implies a literal or is falsified, and the pass
    stops at the first falsified clause.  Each pair is grounded once and
    logged to `lemma_log`."""

    def __init__(self, engine: Engine, names: list[str]) -> None:
        self.engine = engine
        self.sat = engine.sat
        self.apps: list[Apply] = []
        self.symbol: list[int] = []  # per application, its symbol's index
        self.args: list[tuple[tuple[int, int, int], ...]] = []  # (var, sign, bit)
        self.result: list[int] = []  # the result's variable
        self.point: list[Optional[int]] = []
        self.stamp: list[int] = []
        self.members: list[list[int]] = []  # per symbol, its applications
        # per symbol: the bits of its monotone, anti-monotone and other
        # arguments, and its signs for `assert_lemma`
        self.masks: list[tuple[int, int, int]] = []
        self.signs: list[tuple[frozenset[int], frozenset[int]]] = []
        self.touching: dict[int, list[int]] = {}  # literal -> applications
        self.pending: dict[int, None] = {}
        self.grounded: set[tuple[int, int]] = set()
        for name in names:
            mono, anti = engine.lemma_signs[name]
            members = []
            for app in engine.apps_by_symbol[name]:
                i = len(self.apps)
                self.apps.append(app)
                self.symbol.append(len(self.members))
                args = tuple(
                    (abs(lit), 1 if lit > 0 else -1, 1 << k)
                    for k, lit in enumerate(engine.app_args[app])
                )
                self.args.append(args)
                self.result.append(engine.bool_unknowns[engine.app_node[app]])
                self.point.append(None)
                self.stamp.append(engine.true_var)
                for var in {var for var, _, _ in args} | {self.result[i]}:
                    self.touching.setdefault(var, []).append(i)
                    self.touching.setdefault(-var, []).append(i)
                members.append(i)
            arity = engine.apps_by_symbol[name][0].func.arity
            bits = [sum(1 << (k - 1) for k in ks) for ks in (mono, anti)]
            self.masks.append((*bits, ((1 << arity) - 1) & ~(bits[0] | bits[1])))
            self.signs.append((mono, anti))
            self.members.append(members)

    @classmethod
    def of(cls, engine: Engine) -> Optional[Callable[[list[int]], None]]:
        """The hook over the engine's qualifying symbols, or None."""
        names = [
            name
            for name in engine.lemma_signs
            if len(apps := engine.apps_by_symbol.get(name, ())) > 1
            and apps[0].sort.is_bool
            and all(isinstance(form, int) for app in apps for form in engine.app_args[app])
        ]
        return cls(engine, names) if names else None

    def __call__(self, fresh: list[int]) -> None:
        touching, pending = self.touching, self.pending
        for lit in fresh:
            apps = touching.get(lit)
            if apps:
                for i in apps:
                    pending[i] = None
        for i in pending:
            self._refresh(i)
        for i in list(pending):
            if not self._compare(i):
                return  # stopped at a conflict; i stays touched
            del pending[i]

    def _refresh(self, i: int) -> None:
        assign, level = self.sat.assign, self.sat.level
        point = 0
        top = self.engine.true_var
        top_level = 0
        for var, sign, bit in self.args[i]:
            value = assign[var]
            if not value:
                self.point[i] = None
                return
            if value == sign:
                point |= bit
            if level[var] > top_level:
                top, top_level = var, level[var]
        self.point[i] = point
        self.stamp[i] = top

    def _compare(self, i: int) -> bool:
        """Ground the lemma of each pair of i and another application of its
        symbol that the trail breaks or that would imply; False when a
        grounded clause is falsified, or its grounding backtracked."""
        p = self.point[i]
        if p is None:
            return True
        assign, point, stamp, result = self.sat.assign, self.point, self.stamp, self.result
        sym = self.symbol[i]
        mono, anti, equal = self.masks[sym]
        out = assign[result[i]]
        for j in self.members[sym]:
            q = point[j]
            if j == i or q is None or not assign[stamp[j]]:
                continue
            other = assign[result[j]]
            # the one way round the results can break: (i, j) when f(i) is
            # true or f(j) false, else (j, i)
            if out > 0 or (not out and other < 0):
                if other > 0 or p & ~q & mono or q & ~p & anti or (p ^ q) & equal:
                    continue
                pair = (i, j)
            elif other >= 0 and (out or other > 0):
                if q & ~p & mono or p & ~q & anti or (p ^ q) & equal:
                    continue
                pair = (j, i)
            else:
                continue
            if pair in self.grounded:
                continue
            if not self._ground(pair):
                return False
            out = assign[result[i]]
        return True

    def _ground(self, pair: tuple[int, int]) -> bool:
        """Ground one pair's lemma; False when its clause is falsified or
        the grounding backtracked.  The applications whose literals it
        implied are refreshed, so a point whose stamp is assigned is never
        stale within a call: a variable it read may have been unassigned
        and is now implied again."""
        sat = self.sat
        self.grounded.add(pair)
        t, s = self.apps[pair[0]], self.apps[pair[1]]
        self.engine.lemma_log.append((t, s))
        mark, head = len(sat.trail), sat.theory_head
        self.engine.assert_lemma(t, s, *self.signs[self.symbol[pair[0]]])
        if sat.conflict is not None or sat.theory_head < head or not sat.ok:
            return False
        for lit in sat.trail[mark:]:
            for k in self.touching.get(lit, ()):
                self._refresh(k)
        return True


def _check_expansion_budget(total: int) -> None:
    if total > MAX_QUANTIFIER_INSTANCES:
        raise EngineUnsupported(
            f"quantifier expansion budget exceeded "
            f"({total} > {MAX_QUANTIFIER_INSTANCES})"
        )


def _binder_positions(term: Term, bound: tuple[Var, ...]) -> list[int]:
    """Positions in `bound` of the binders `term` mentions, or none when it
    holds a Const, an Apply, a quantifier or a Var bound elsewhere."""
    subterms = list(iter_subterms(term))
    for t in subterms:
        if isinstance(t, (Const, Apply, Forall, Exists)):
            return []
        if isinstance(t, Var) and t not in bound:
            return []
    return [i for i, v in enumerate(bound) if v in subterms]


def _key_value(term: Term) -> Union[Value, Term]:
    """An instance argument's part of its application's key: a literal's
    value, else the argument itself."""
    return term.value if isinstance(term, (IntLit, BoolLit)) else term


def _merge(a: dict[Node, int], b: dict[Node, int], sign: int) -> dict[Node, int]:
    out = dict(a)
    for node, coeff in b.items():
        out[node] = out.get(node, 0) + sign * coeff
    return out
