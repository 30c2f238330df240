"""The built-in decision engine.

Decides ground formulas over Bool and Int with uninterpreted functions by
grounding to CNF: uninterpreted applications become opaque unknowns related
by Ackermann congruence constraints, integer atoms are normalized to
difference constraints (x - y <= k), and a CDCL SAT core is run in a lazy
theory loop against the difference-constraint checker.  Universal
quantifiers are expanded finitely when every binder sort is Boolean or a
bounded integer interval, within an instantiation budget.

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
from typing import Optional, Union

from . import sat
from .difflogic import ZERO, DiffConstraint, solve_difference_constraints
from .model import FunctionTable, Model, Value, default_output, evaluate_with
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
        self.gate_cache: dict[Term, int] = {}
        self.apps_by_symbol: dict[str, list[Apply]] = {}
        self.symbolic_apps: dict[str, list[Apply]] = {}
        self.ground_reps: dict[str, dict[tuple, Node]] = {}
        self.app_node: dict[Apply, Node] = {}
        self.declared_consts: dict[str, Const] = {}
        self.declared_funcs: dict[str, FunctionSymbol] = {}
        self.node_bounds: dict[Node, Optional[tuple[int, int]]] = {}
        self.order_vars: dict[Node, dict[int, int]] = {}  # node -> {j: var for x >= j}
        self.ladder_gates: dict[tuple, int] = {}
        self.quant_instances = 0
        self._int_values: dict[Node, int] = {}
        self._have_model = False
        self._model_cache: Optional[Model] = None

    # -- declarations -----------------------------------------------------------

    def declare_const(self, const: Const) -> None:
        self.declared_consts.setdefault(const.name, const)
        if const.sort.is_bool:
            self._bool_var(("c", const.name))
        else:
            self._register_int_node(("c", const.name), const.sort.bounds)

    def declare_function(self, func: FunctionSymbol) -> None:
        self.declared_funcs.setdefault(func.name, func)

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

    def _ladder_le_lit(self, x: Node, y: Optional[Node], k: int) -> int:
        """Literal for x - y <= k over order-encoded nodes (y may be absent).

        Built from  x <= y + k  <=>  for all v: (y <= v) -> (x <= v + k),
        with v ranging over y's domain; each conjunct is a binary clause over
        ladder literals, reified through an and-gate.
        """
        key = ("ladder", x, y, k)
        cached = self.ladder_gates.get(key)
        if cached is not None:
            return cached
        if y is None:
            lit = -self._ge_lit(x, k + 1)  # x <= k
        else:
            ylo, yhi = self.node_bounds[y]  # type: ignore[misc]
            conjuncts: list[int] = []
            feasible = True
            for v in range(ylo, yhi + 1):
                y_le_v = -self._ge_lit(y, v + 1)
                x_le_vk = -self._ge_lit(x, v + k + 1)
                if x_le_vk == self.true_var:
                    continue
                if y_le_v == self.true_var:
                    if x_le_vk == -self.true_var:
                        feasible = False
                        break
                    conjuncts.append(x_le_vk)
                elif x_le_vk == -self.true_var:
                    conjuncts.append(-y_le_v)
                else:
                    g = self.sat.new_var()
                    self.sat.add_clause([-g, -y_le_v, x_le_vk])
                    self.sat.add_clause([g, y_le_v])
                    self.sat.add_clause([g, -x_le_vk])
                    conjuncts.append(g)
            if not feasible:
                lit = -self.true_var
            elif not conjuncts:
                lit = self.true_var
            elif len(conjuncts) == 1:
                lit = conjuncts[0]
            else:
                g = self.sat.new_var()
                for c in conjuncts:
                    self.sat.add_clause([-g, c])
                self.sat.add_clause([g] + [-c for c in conjuncts])
                lit = g
        self.ladder_gates[key] = lit
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

    # -- linear forms ---------------------------------------------------------------

    def _linform(self, term: Term) -> tuple[dict[Node, int], int]:
        match term:
            case IntLit(value=v):
                return {}, v
            case Const(name=name):
                self.declare_const(term)
                return {("c", name): 1}, 0
            case Apply():
                node = self._register_app(term)
                return {node: 1}, 0
            case Add(lhs=l, rhs=r):
                cl, kl = self._linform(l)
                cr, kr = self._linform(r)
                return _merge(cl, cr, 1), kl + kr
            case Sub(lhs=l, rhs=r):
                cl, kl = self._linform(l)
                cr, kr = self._linform(r)
                return _merge(cl, cr, -1), kl - kr
            case Neg(arg=a):
                ca, ka = self._linform(a)
                return {n: -c for n, c in ca.items()}, -ka
            case Var(name=name):
                raise EngineUnsupported(f"free variable {name} in ground context")
            case _:
                raise EngineUnsupported(
                    f"non-linear or non-integer term {type(term).__name__}"
                )

    def _is_laddered(self, node: Node) -> bool:
        return self.node_bounds.get(node) is not None

    def _node_le_lit(self, a: Node, b: Node, k: int = 0) -> int:
        """Literal for a - b <= k over already-registered integer nodes."""
        la, lb = self._is_laddered(a), self._is_laddered(b)
        if la and lb:
            return self._ladder_le_lit(a, b, k)
        if not la and not lb:
            return self._atom_lit(a, b, k)
        raise EngineUnsupported(
            "atom mixes a small-bounded unknown with an unbounded one"
        )

    def _diff_le_lit(self, lhs: Term, rhs: Term, offset: int = 0) -> int:
        """Literal asserting lhs - rhs <= offset."""
        cl, kl = self._linform(lhs)
        cr, kr = self._linform(rhs)
        coeffs = _merge(cl, cr, -1)
        coeffs = {n: c for n, c in coeffs.items() if c != 0}
        k = offset + kr - kl
        if not coeffs:
            return self.true_var if 0 <= k else -self.true_var
        if len(coeffs) == 1:
            ((node, c),) = coeffs.items()
            if c == 1:  # node <= k
                if self._is_laddered(node):
                    return -self._ge_lit(node, k + 1)
                return self._atom_lit(node, None, k)
            if c == -1:  # node >= -k
                if self._is_laddered(node):
                    return self._ge_lit(node, -k)
                return self._atom_lit(None, node, k)
        elif len(coeffs) == 2:
            (n1, c1), (n2, c2) = coeffs.items()
            if c1 == -1 and c2 == 1:
                (n1, c1), (n2, c2) = (n2, c2), (n1, c1)
            if c1 == 1 and c2 == -1:  # n1 - n2 <= k
                return self._node_le_lit(n1, n2, k)
        raise EngineUnsupported(
            "integer atom outside the difference fragment "
            f"(coefficients {sorted(coeffs.values())})"
        )

    # -- uninterpreted applications ----------------------------------------------

    def _register_app(self, app: Apply) -> Node:
        node = self.app_node.get(app)
        if node is not None:
            return node
        node = ("a", app)
        self.app_node[app] = node
        self.declare_function(app.func)
        if app.func.result_sort.is_bool:
            self._bool_var(node)
        else:
            self._register_int_node(node, app.func.result_sort.bounds)
        # ground the arguments now: their unknowns are needed for congruence
        # pairs and for valuing the application's table point in models
        for arg in app.args:
            if arg.sort.is_bool:
                self.lit_of(arg)
            else:
                self._linform(arg)
        name = app.func.name
        key = _literal_arg_key(app)
        if key is not None:
            # fully-literal arguments: apps with different value keys can
            # never be congruent, so one representative per key suffices
            reps = self.ground_reps.setdefault(name, {})
            rep = reps.get(key)
            if rep is None:
                reps[key] = node
            else:
                self._assert_results_equal(app.func, node, rep)
            for other in self.symbolic_apps.get(name, ()):
                self._congruence(app, other, node, self.app_node[other])
        else:
            for other in self.apps_by_symbol.get(name, ()):
                self._congruence(app, other, node, self.app_node[other])
            self.symbolic_apps.setdefault(name, []).append(app)
        self.apps_by_symbol.setdefault(name, []).append(app)
        return node

    def _assert_results_equal(self, func: FunctionSymbol, na: Node, nb: Node) -> None:
        if func.result_sort.is_bool:
            va, vb = self._bool_var(na), self._bool_var(nb)
            self.sat.add_clause([-va, vb])
            self.sat.add_clause([va, -vb])
        else:
            self.sat.add_clause([self._node_le_lit(na, nb)])
            self.sat.add_clause([self._node_le_lit(nb, na)])

    def _congruence(self, a: Apply, b: Apply, na: Node, nb: Node) -> None:
        """Functional consistency: equal arguments force equal results."""
        antecedent: list[int] = []
        for arg_a, arg_b in zip(a.args, b.args):
            if arg_a == arg_b:
                continue
            if arg_a.sort.is_bool:
                la, lb = self.lit_of(arg_a), self.lit_of(arg_b)
                if la == lb:
                    continue
                antecedent.append(self._iff_gate(la, lb))
            else:
                le1 = self._diff_le_lit(arg_a, arg_b)
                le2 = self._diff_le_lit(arg_b, arg_a)
                antecedent.extend([le1, le2])
        pruned = []
        for l in antecedent:
            if l == -self.true_var:
                return  # arguments provably distinct; pair is vacuous
            if l != self.true_var:
                pruned.append(l)
        negated = [-l for l in pruned]
        if a.func.result_sort.is_bool:
            va, vb = self._bool_var(na), self._bool_var(nb)
            self.sat.add_clause(negated + [-va, vb])
            self.sat.add_clause(negated + [va, -vb])
        else:
            self.sat.add_clause(negated + [self._node_le_lit(na, nb)])
            self.sat.add_clause(negated + [self._node_le_lit(nb, na)])

    # -- Tseitin ----------------------------------------------------------------------

    def _gate(self, term: Term) -> Optional[int]:
        return self.gate_cache.get(term)

    def _new_gate(self, term: Term) -> int:
        var = self.sat.new_var()
        self.gate_cache[term] = var
        return var

    def _iff_gate(self, la: int, lb: int) -> int:
        """Variable equivalent to (la <-> lb)."""
        key = ("iff", la, lb) if la <= lb else ("iff", lb, la)
        cached = self.gate_cache.get(key)  # type: ignore[arg-type]
        if cached is not None:
            return cached
        g = self.sat.new_var()
        self.gate_cache[key] = g  # type: ignore[index]
        self.sat.add_clause([-g, -la, lb])
        self.sat.add_clause([-g, la, -lb])
        self.sat.add_clause([g, la, lb])
        self.sat.add_clause([g, -la, -lb])
        return g

    def lit_of(self, term: Term) -> int:
        """Literal equisatisfiably representing a Boolean-sorted ground term."""
        match term:
            case BoolLit(value=v):
                return self.true_var if v else -self.true_var
            case Const(name=name):
                self.declare_const(term)
                return self._bool_var(("c", name))
            case Apply():
                node = self._register_app(term)
                return self._bool_var(node)
            case Not(arg=a):
                return -self.lit_of(a)
            case Cmp():
                return self._cmp_lit(term)
            case And(args=args):
                cached = self._gate(term)
                if cached is not None:
                    return cached
                lits = [self.lit_of(a) for a in args]
                g = self._new_gate(term)
                for l in lits:
                    self.sat.add_clause([-g, l])
                self.sat.add_clause([g] + [-l for l in lits])
                return g
            case Or(args=args):
                cached = self._gate(term)
                if cached is not None:
                    return cached
                lits = [self.lit_of(a) for a in args]
                g = self._new_gate(term)
                for l in lits:
                    self.sat.add_clause([g, -l])
                self.sat.add_clause([-g] + lits)
                return g
            case Implies(lhs=l, rhs=r):
                cached = self._gate(term)
                if cached is not None:
                    return cached
                la, lb = self.lit_of(l), self.lit_of(r)
                g = self._new_gate(term)
                self.sat.add_clause([-g, -la, lb])
                self.sat.add_clause([g, la])
                self.sat.add_clause([g, -lb])
                return g
            case Forall() | Exists():
                raise EngineUnsupported(
                    "quantifier in a non-positive position; skolemize first"
                )
            case Var(name=name):
                raise EngineUnsupported(f"free variable {name} in ground context")
            case _:
                raise EngineUnsupported(f"non-Boolean node {type(term).__name__}")

    def _cmp_lit(self, term: Cmp) -> int:
        op, l, r = term.op, term.lhs, term.rhs
        if l.sort.is_bool:
            iff = self._iff_gate(self.lit_of(l), self.lit_of(r))
            return iff if op is CmpOp.EQ else -iff
        if op is CmpOp.LE:
            return self._diff_le_lit(l, r, 0)
        if op is CmpOp.LT:
            return self._diff_le_lit(l, r, -1)
        if op is CmpOp.GE:
            return self._diff_le_lit(r, l, 0)
        if op is CmpOp.GT:
            return self._diff_le_lit(r, l, -1)
        a1 = self._diff_le_lit(l, r, 0)
        a2 = self._diff_le_lit(r, l, 0)
        if a1 == self.true_var and a2 == self.true_var:
            both = self.true_var
        elif a1 == -self.true_var or a2 == -self.true_var:
            both = -self.true_var
        else:
            cached = self.gate_cache.get(("inteq", a1, a2))  # type: ignore[arg-type]
            if cached is not None:
                both = cached
            else:
                g = self.sat.new_var()
                self.gate_cache[("inteq", a1, a2)] = g  # type: ignore[index]
                self.sat.add_clause([-g, a1])
                self.sat.add_clause([-g, a2])
                self.sat.add_clause([g, -a1, -a2])
                both = g
        return both if op is CmpOp.EQ else -both

    # -- assertion ---------------------------------------------------------------------

    def _forall_instance_count(self, term: Forall) -> int:
        count = 1
        for v in term.bound:
            if not v.sort.is_bounded:
                raise EngineUnsupported(
                    f"quantified variable {v.name} has an unbounded sort"
                )
            count *= len(v.sort.values())
        return count

    def _precheck_expansion_budget(self, args: tuple[Term, ...]) -> None:
        """Refuse an over-budget conjunction before grounding any of it."""
        total = self.quant_instances
        for a in args:
            if isinstance(a, Forall):
                total += self._forall_instance_count(a)
        _check_expansion_budget(total)

    def assert_term(self, term: Term) -> None:
        self._have_model = False
        self._model_cache = None
        match term:
            case BoolLit(value=True):
                return
            case BoolLit(value=False):
                self.sat.ok = False
                return
            case And(args=args):
                self._precheck_expansion_budget(args)
                for a in args:
                    self.assert_term(a)
            case Forall():
                for instance in self._expand_forall(term):
                    self.assert_term(instance)
            case Exists():
                raise EngineUnsupported("existential quantifier; skolemize first")
            case Implies(lhs=l, rhs=r):
                # direct clause when the antecedent is a conjunction (lemma shape)
                if isinstance(l, And):
                    negs = [-self.lit_of(a) for a in l.args]
                else:
                    negs = [-self.lit_of(l)]
                self.sat.add_clause(negs + [self.lit_of(r)])
            case Or(args=args):
                self.sat.add_clause([self.lit_of(a) for a in args])
            case _:
                self.sat.add_clause([self.lit_of(term)])

    def _expand_forall(self, term: Forall) -> list[Term]:
        count = self._forall_instance_count(term)
        domains = [v.sort.values() for v in term.bound]
        self.quant_instances += count
        _check_expansion_budget(self.quant_instances)
        instances = []
        for combo in itertools.product(*domains):
            mapping = {v: value_lit(val) for v, val in zip(term.bound, combo)}
            instances.append(substitute(term.body, mapping))
        return instances

    # -- solving -----------------------------------------------------------------------

    def check(self, deadline: Optional[float] = None) -> str:
        self._model_cache = None
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
            if cycle is None:
                assert values is not None
                self._int_values = {n: v for n, v in values.items() if n != ZERO}
                self._have_model = True
                return sat.SAT
            conflict = sorted({-c.tag for c in cycle})
            self.sat.add_clause(conflict)
            if deadline is not None and time.monotonic() > deadline:
                return sat.UNKNOWN
        return sat.UNKNOWN

    # -- model extraction -----------------------------------------------------------

    def _node_int_value(self, node: Node) -> int:
        bounds = self.node_bounds.get(node)
        if bounds is not None:
            lo, hi = bounds
            ladder = self.order_vars[node]
            model = self.sat.model
            for j in range(hi, lo, -1):
                if model[ladder[j]] > 0:
                    return j
            return lo
        return self._int_values.get(node, 0)

    def _node_value(self, node: Node, sort) -> Value:
        if sort.is_bool:
            return self.sat.model[self.bool_unknowns[node]] > 0
        return self._node_int_value(node)

    def _leaf(self, term: Const | Apply) -> Value:
        """Evaluator leaf over the current SAT model and order ladders."""
        if isinstance(term, Const):
            if term.sort.is_bool:
                var = self.bool_unknowns.get(("c", term.name))
                return False if var is None else self.sat.model[var] > 0
            return self._node_int_value(("c", term.name))
        node = self.app_node.get(term)
        if node is not None:
            return self._node_value(node, term.sort)
        # unseen application: answer through the extracted table
        table = self.extract_model().functions.get(term.func.name)
        if table is None:
            return default_output(term.sort, ())
        return table.lookup(tuple(evaluate_with(a, self._leaf) for a in term.args))

    def evaluate(self, term: Term) -> Value:
        if not self._have_model:
            raise RuntimeError("no model available; call check() first")
        return evaluate_with(term, self._leaf)

    def extract_model(self) -> Model:
        if not self._have_model:
            raise RuntimeError("no model available; call check() first")
        if self._model_cache is not None:
            return self._model_cache
        constants: dict[str, Value] = {}
        for name, const in self.declared_consts.items():
            constants[name] = self._leaf(const)
        functions: dict[str, FunctionTable] = {}
        for fname, func in self.declared_funcs.items():
            rows: dict[tuple[Value, ...], Value] = {}
            for app in self.apps_by_symbol.get(fname, []):
                point = tuple(evaluate_with(a, self._leaf) for a in app.args)
                rows[point] = self._node_value(self.app_node[app], func.result_sort)
            functions[fname] = FunctionTable(
                rows, default_output(func.result_sort, rows.values())
            )
        self._model_cache = Model(constants, functions)
        return self._model_cache


def _check_expansion_budget(total: int) -> None:
    if total > MAX_QUANTIFIER_INSTANCES:
        raise EngineUnsupported(
            f"quantifier expansion budget exceeded "
            f"({total} > {MAX_QUANTIFIER_INSTANCES})"
        )


class _Symbolic(Exception):
    """Raised by the literal-folding leaf at any constant or application."""


def _symbolic_leaf(term: Term) -> Value:
    raise _Symbolic


def _literal_arg_key(app: Apply) -> Optional[tuple]:
    """The argument values when every argument folds from literals alone;
    None if any is symbolic."""
    try:
        return tuple(evaluate_with(arg, _symbolic_leaf) for arg in app.args)
    except _Symbolic:
        return None


def _merge(a: dict[Node, int], b: dict[Node, int], sign: int) -> dict[Node, int]:
    out = dict(a)
    for node, coeff in b.items():
        out[node] = out.get(node, 0) + sign * coeff
    return out
