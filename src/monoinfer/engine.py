"""The built-in decision engine.

Decides ground formulas over Bool and Int with uninterpreted functions by
grounding to CNF: uninterpreted applications become opaque unknowns, integer
atoms are normalized to difference constraints (x - y <= k), and a CDCL SAT
core is run in a lazy theory loop against the difference-constraint checker
and one rule: each round grounds the monotonicity lemma of every ordered
pair of one symbol's applications whose points a candidate model orders
while their results decrease (`model.broken_pairs`).  A symbol's signs are
those a session handed in (`lemma_signs`, the lazy strategy in-process),
else none, and then the lemma is Ackermann congruence.  An application of
an unsigned symbol caught again in a later round is tied to every
application of its symbol.  Universal quantifiers are
expanded finitely when every binder sort is Boolean or a bounded integer
interval, within an instantiation budget that counts the full product of
the binder domains.  Where the body is an implication, each
antecedent conjunct over binders and literals alone is tabulated once, and an
assignment that falsifies one is skipped before its instance is built.
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
(`assert_lemma`, its antecedent from `terms.lemma_antecedent`).  Where that
clause's last literal, or a bare asserted atom, would compare two
order-encoded nodes, `Engine._add_le_clause` adds the comparison's
order-encoding clauses instead, one per value of its right node, with no
gate.  One recursive method, `Engine.ground`, turns a term into its literal
or linear form, in a fixed order that numbers the SAT variables: an
application's node before its arguments, the right operand of `>=` and `>`
before the left.

The engine grounds and searches; it does not build models.  Nothing is
declared ahead: a constant gets its SAT variable, ladder or difference-logic
node where grounding first meets it.  After a sat answer, `Engine.value`
values any application or constant, and `Engine.app_points` groups each
symbol's applications by their point in that answer, which is all a session
needs to tabulate a Model.  A constant that no assertion grounded (declared
but unused, or only in the consequent of a lemma whose antecedent folds to
false) is unconstrained and takes its sort's least value.

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
from typing import Optional, Sequence, Union

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
    Implies,
    IntLit,
    Neg,
    Not,
    Or,
    Sub,
    Term,
    Var,
    iter_subterms,
    lemma_antecedent,
    lit as value_lit,
    substitute,
)

Node = Union[tuple[str, str], tuple[str, Apply]]


class EngineUnsupported(Exception):
    """Input outside the engine's decidable fragment."""


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


class Engine:
    """One incremental solving context (assertions are cumulative)."""

    def __init__(self):
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
        self._caught: set[Apply] = set()  # applications in a broken pair
        # per constrained symbol, its monotone and anti-monotone index sets;
        # its broken pairs are logged, in grounding order
        self.lemma_signs: dict[str, tuple[frozenset[int], frozenset[int]]] = {}
        self.lemma_log: list[tuple[Apply, Apply]] = []
        # per symbol, its applications grouped by point in the last model
        self.app_points: dict[str, dict[tuple[Value, ...], list[Apply]]] = {}
        self.node_bounds: dict[Node, Optional[tuple[int, int]]] = {}
        self.order_vars: dict[Node, dict[int, int]] = {}  # node -> {j: var for x >= j}
        self.quant_instances = 0
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
        (Tamura et al., "Compiling finite linear CSP into SAT", 2009)."""
        ylo, yhi = self.node_bounds[y]  # type: ignore[misc]
        return [
            [self._ge_lit(y, v + 1), -self._ge_lit(x, v + k + 1)]
            for v in range(ylo, yhi + 1)
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

    def ground(self, term: Term) -> Union[int, tuple[dict[Node, int], int]]:
        """A Boolean ground term's literal, or an integer ground term's
        linear form ({node: coefficient}, constant).  Only And, Or and
        Implies literals are cached on the term, so the cache is read after
        the other cases, which come in the order the workloads meet them
        most."""
        match term:
            case Apply():
                node = self.app_node.get(term)
                if node is None:
                    # the node first, then the arguments, whose unknowns
                    # value the application's table point and any pair it
                    # joins; then it joins its symbol's list
                    node = self.app_node[term] = ("a", term)
                    if term.sort.is_bool:
                        self._bool_var(node)
                    else:
                        self._register_int_node(node, term.sort.bounds)
                    for arg in term.args:
                        self.ground(arg)
                    self.apps_by_symbol.setdefault(term.func.name, []).append(term)
                return self.bool_unknowns[node] if term.sort.is_bool else ({node: 1}, 0)
            case Const():
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
                    return self._diff_le_lit(*_AS_DIFFERENCE[op](l, r))
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

    def _is_laddered(self, node: Optional[Node]) -> bool:
        return self.node_bounds.get(node) is not None

    def _difference(
        self, lhs: Term, rhs: Term, offset: int
    ) -> tuple[Optional[Node], Optional[Node], int]:
        """lhs - rhs <= offset normalized to x - y <= k over registered
        nodes, None standing for the zero node."""
        cl, kl = self.ground(lhs)
        cr, kr = self.ground(rhs)
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

    def _diff_le_lit(self, lhs: Term, rhs: Term, offset: int = 0) -> int:
        """Literal asserting lhs - rhs <= offset."""
        return self._le_lit(*self._difference(lhs, rhs, offset))

    def _add_le_clause(self, negs: list[int], lhs: Term, rhs: Term, offset: int = 0) -> None:
        """Add the clause negs or (lhs - rhs <= offset).  Between two
        order-encoded nodes that is one clause per step of `_ladder_steps`,
        with no gate and no SAT variable; otherwise one clause over its
        literal."""
        x, y, k = self._difference(lhs, rhs, offset)
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
        arguments can meet a new point every round) is grounded against
        every application of its symbol, both ways, at once.

        The rounds end without a record of grounded pairs: a broken pair has
        its points ordered, so no antecedent literal is false at level 0,
        and its results out of order, so it was never grounded; a grounded
        pair holds in every later model.  Each round grounds a new pair, and
        pairs are finite; a repeated pair only repeats its clauses."""
        broken = False
        caught: dict[Apply, None] = {}
        unsigned = (frozenset(), frozenset())
        for name, apps in self.apps_by_symbol.items():
            by_point = self.app_points[name] = {}
            valued = []
            for app in apps:
                point = tuple(evaluate_with(a, self.value) for a in app.args)
                by_point.setdefault(point, []).append(app)
                valued.append((app, point, self.value(app)))
            signs = self.lemma_signs.get(name, unsigned)
            for t, s in broken_pairs(valued, *signs):
                self.assert_lemma(t, s, *signs)
                broken = True
                if signs is unsigned:
                    caught[t] = caught[s] = None
                else:
                    self.lemma_log.append((t, s))
        for app in caught:
            if app in self._caught:
                for other in self.apps_by_symbol[app.func.name]:
                    if other is not app:
                        self.assert_lemma(app, other, *unsigned)
                        self.assert_lemma(other, app, *unsigned)
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
        pair either way round, so neither bound is built twice, and on the
        unordered literal pair of its bounds."""
        both = self.gate_cache.get(("inteq", l, r))
        if both is None:
            a1 = self._diff_le_lit(l, r, 0)
            a2 = self._diff_le_lit(r, l, 0)
            key = ("inteq", a1, a2) if a1 <= a2 else ("inteq", a2, a1)
            both = self.gate_cache.get(key)
            if both is None:
                both = self.gate_cache[key] = self._and([a1, a2])
            self.gate_cache[("inteq", l, r)] = self.gate_cache[("inteq", r, l)] = both
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
                self._expand_forall(term, deadline)
            case Exists():
                raise EngineUnsupported("existential quantifier; skolemize first")
            case Implies(lhs=l, rhs=r):
                self._assert_implies(l.args if isinstance(l, And) else (l,), r)
            case Or(args=args):
                self.sat.add_clause([self.ground(a) for a in args])
            case _:
                self._add_clause([], term)

    def _assert_implies(self, antecedent: Sequence[Term], consequent: Term) -> None:
        """One clause for the conjunction `antecedent` implying `consequent`,
        flattening a consequent implication (lemma shape); a false antecedent
        literal satisfies it, and then the consequent is never grounded."""
        negs = [-self.ground(a) for a in antecedent]
        if self.true_var in negs:
            return
        if isinstance(consequent, Implies):
            negs.append(-self.ground(consequent.lhs))
            consequent = consequent.rhs
        self._add_clause(negs, consequent)

    def assert_lemma(
        self, t: Apply, s: Apply, mono: frozenset[int], anti: frozenset[int]
    ) -> None:
        """Ground the lemma at two applications of one symbol as the clause
        `assert_term` makes of its Term: the negated literals of its
        `terms.lemma_antecedent` comparisons, then f(t) <= f(s).  An argument
        in neither `mono` nor `anti` is compared by equality, so with both
        empty the lemma both ways is congruence at (t, s)."""
        negs = []
        for op, x, y in lemma_antecedent(t.args, s.args, mono, anti):
            if x.sort.is_bool:
                lx, ly = self.ground(x), self.ground(y)
                negs.append(self._and_not(lx, ly) if op == "<=" else -self._iff_gate(lx, ly))
            else:
                negs.append(-(self._diff_le_lit(x, y) if op == "<=" else self._int_eq_lit(x, y)))
        if self.true_var in negs:
            return
        if t.sort.is_bool:
            self.sat.add_clause(negs + [-self.ground(t), self.ground(s)])
        else:
            self._add_le_clause(negs, t, s)

    def _expand_forall(self, term: Forall, deadline: Optional[float]) -> None:
        """Ground every instance of `term` in product order; the budget counts
        the full product.  An implication body's antecedent conjuncts over
        binders and literals alone are tabulated once, and an assignment that
        falsifies one is skipped unbuilt, since its clause holds a true
        literal; a survivor grounds only the other conjuncts and the
        consequent, which makes the clause its whole instance makes."""
        self.quant_instances += self._forall_instance_count(term)
        _check_expansion_budget(self.quant_instances)
        bound, body = term.bound, term.body
        domains = [[value_lit(val) for val in v.sort.values()] for v in bound]
        guards: list[tuple[itemgetter, set]] = []  # (sub-tuple key, satisfying keys)
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
                    if evaluate_with(substitute(conjunct, dict(zip(binders, sub))), self.value)
                }
                guards.append((itemgetter(*positions), table))
        for combo in itertools.product(*domains):
            if any(key(combo) not in table for key, table in guards):
                continue
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError("quantifier expansion passed the deadline")
            mapping = dict(zip(bound, combo))
            if isinstance(body, Implies):
                self._assert_implies(
                    [substitute(c, mapping) for c in rest], substitute(body.rhs, mapping)
                )
            else:
                self.assert_term(substitute(body, mapping), deadline)

    # -- solving -----------------------------------------------------------------------

    def check(self, deadline: Optional[float] = None) -> str:
        """SAT search, difference-logic check and the pass over application
        pairs, in rounds until a model breaks no pair; `theory_rounds`
        counts every round."""
        for _ in range(MAX_THEORY_ROUNDS):
            result = self.sat.solve(deadline)
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
        """Evaluator leaf over the current SAT model and order ladders.  Every
        application it meets is grounded; a constant that no assertion
        grounded is unconstrained and takes its sort's least value."""
        node = ("c", term.name) if isinstance(term, Const) else self.app_node[term]
        if node not in self.node_bounds and node not in self.bool_unknowns:
            return default_output(term.sort, ())
        if term.sort.is_bool:
            return self.sat.model[self.bool_unknowns[node]] > 0
        bounds = self.node_bounds.get(node)
        if bounds is None:
            return self._int_values.get(node, 0)
        lo, hi = bounds
        ladder = self.order_vars[node]
        model = self.sat.model
        for j in range(hi, lo, -1):
            if model[ladder[j]] > 0:
                return j
        return lo


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


def _merge(a: dict[Node, int], b: dict[Node, int], sign: int) -> dict[Node, int]:
    out = dict(a)
    for node, coeff in b.items():
        out[node] = out.get(node, 0) + sign * coeff
    return out
