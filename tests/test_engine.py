import itertools
import math
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sessions

from monoinfer import engine as engine_module
from monoinfer.difflogic import ZERO, DiffConstraint, solve_difference_constraints
from monoinfer.engine import Engine, EngineUnsupported
from monoinfer.model import broken_pairs, dominates, evaluate
from monoinfer.oracle import oracle_mono_sat
from monoinfer.sat import SatSolver
from monoinfer.session import InternalSession
from monoinfer.terms import (
    BOOL,
    INT,
    Add,
    And,
    Apply,
    BoolLit,
    Cmp,
    CmpOp,
    Const,
    Forall,
    FunctionSymbol,
    Implies,
    IntLit,
    MonotonicitySpec,
    Neg,
    Not,
    Or,
    Sub,
    Var,
    bounded_int,
    lit,
    mk_and,
    mk_or,
    ordering_atom,
    substitute,
)
from monoinfer.encode import (
    encode_eager,
    encode_quant_aggregated,
    encode_quant_individual,
    monotonicity_lemma,
    solve_lazy,
)
from monoinfer.network import encode_inference


# -- SAT core -------------------------------------------------------------------


def test_sat_simple_models():
    s = SatSolver()
    a, b = s.new_var(), s.new_var()
    s.add_clause([a, b])
    s.add_clause([-a, b])
    assert s.solve() == "sat"
    assert s.model[b] > 0


def test_sat_unsat_core_case():
    s = SatSolver()
    a, b = s.new_var(), s.new_var()
    s.add_clause([a, b])
    s.add_clause([a, -b])
    s.add_clause([-a, b])
    s.add_clause([-a, -b])
    assert s.solve() == "unsat"


def test_sat_incremental_clauses_after_solve():
    s = SatSolver()
    a, b = s.new_var(), s.new_var()
    s.add_clause([a])
    assert s.solve() == "sat"
    s.add_clause([-a, b])
    assert s.solve() == "sat"
    assert s.model[b] > 0
    s.add_clause([-b])
    assert s.solve() == "unsat"
    assert s.solve() == "unsat"  # sticky


def test_sat_pigeonhole_3_into_2():
    # 3 pigeons, 2 holes: var p(i,h) = 2*i + h + 1
    s = SatSolver()
    for _ in range(6):
        s.new_var()

    def v(i, h):
        return 2 * i + h + 1

    for i in range(3):
        s.add_clause([v(i, 0), v(i, 1)])
    for h in range(2):
        for i in range(3):
            for j in range(i + 1, 3):
                s.add_clause([-v(i, h), -v(j, h)])
    assert s.solve() == "unsat"


def test_sat_random_instances_against_brute_force():
    rng = random.Random(7)
    for _ in range(60):
        n_vars = rng.randint(3, 8)
        n_clauses = rng.randint(3, 24)
        clauses = []
        for _ in range(n_clauses):
            width = rng.randint(1, 3)
            clause = [
                rng.choice([1, -1]) * rng.randint(1, n_vars) for _ in range(width)
            ]
            clauses.append(clause)
        brute_sat = any(
            all(
                any((lit > 0) == bool(assignment >> (abs(lit) - 1) & 1) for lit in clause)
                for clause in clauses
            )
            for assignment in range(1 << n_vars)
        )
        s = SatSolver()
        for _ in range(n_vars):
            s.new_var()
        for clause in clauses:
            s.add_clause(clause)
        assert s.solve() == ("sat" if brute_sat else "unsat")


# -- difference constraints --------------------------------------------------------


def test_difference_feasible_chain():
    values, cycle = solve_difference_constraints(
        [
            DiffConstraint("x", "y", -1, tag=1),  # x <= y - 1
            DiffConstraint("y", "z", -1, tag=2),
            DiffConstraint("x", ZERO, 10, tag=3),
        ]
    )
    assert cycle is None
    assert values["x"] < values["y"] < values["z"]
    assert values[ZERO] == 0


def test_difference_negative_cycle_extraction():
    constraints = [
        DiffConstraint("x", "y", -1, tag=1),
        DiffConstraint("y", "z", -1, tag=2),
        DiffConstraint("z", "x", -1, tag=3),
    ]
    values, cycle = solve_difference_constraints(constraints)
    assert values is None
    assert {c.tag for c in cycle} == {1, 2, 3}


def test_difference_bounds_through_zero_node():
    values, cycle = solve_difference_constraints(
        [
            DiffConstraint("x", ZERO, 5, tag=1),  # x <= 5
            DiffConstraint(ZERO, "x", -3, tag=2),  # x >= 3
        ]
    )
    assert cycle is None
    assert 3 <= values["x"] <= 5


# -- engine over terms ----------------------------------------------------------------


def _check(assertions):
    engine = Engine()
    for a in assertions:
        engine.assert_term(a)
    return engine


def _session(assertions):
    session = InternalSession()
    for a in assertions:
        session.assert_formula(a)
    return session


def test_engine_unbounded_arithmetic_chain():
    x, y = Const("x", INT), Const("y", INT)
    session = _session(
        [
            Cmp(CmpOp.LT, x, y),
            Cmp(CmpOp.LT, y, Add(x, IntLit(2))),
        ]
    )
    assert session.check_sat() == "sat"
    model = session.extract_model()
    xv, yv = evaluate(x, model), evaluate(y, model)
    assert xv < yv < xv + 2


def test_engine_unsat_strict_cycle():
    x, y = Const("x", INT), Const("y", INT)
    engine = _check([Cmp(CmpOp.LT, x, y), Cmp(CmpOp.LT, y, x)])
    assert engine.check() == "unsat"


def test_engine_congruence_over_unbounded():
    f = FunctionSymbol("f", [INT], INT)
    x, y = Const("x", INT), Const("y", INT)
    engine = _check(
        [
            Cmp(CmpOp.EQ, x, y),
            Cmp(CmpOp.NE, Apply(f, (x,)), Apply(f, (y,))),
        ]
    )
    assert engine.check() == "unsat"


def test_engine_congruence_through_arithmetic():
    f = FunctionSymbol("f", [INT], INT)
    x = Const("x", INT)
    # f(x+1) and f(1+x) have syntactically different but equal arguments
    lhs = Apply(f, (Add(x, IntLit(1)),))
    rhs = Apply(f, (Add(IntLit(1), x),))
    engine = _check([Cmp(CmpOp.NE, lhs, rhs)])
    assert engine.check() == "unsat"


def test_engine_bounded_sorts_are_intervals():
    dom = bounded_int(0, 3)
    f = FunctionSymbol("f", [dom], dom)
    engine = _check([Cmp(CmpOp.EQ, Apply(f, (IntLit(0),)), IntLit(4))])
    assert engine.check() == "unsat"


def test_engine_bounded_congruence():
    dom = bounded_int(0, 2)
    f = FunctionSymbol("f", [dom], dom)
    u, v = Const("u", dom), Const("v", dom)
    engine = _check(
        [
            Cmp(CmpOp.EQ, u, v),
            Cmp(CmpOp.NE, Apply(f, (u,)), Apply(f, (v,))),
        ]
    )
    assert engine.check() == "unsat"


# -- congruence on demand ----------------------------------------------------------


def _input_clauses(engine):
    return len(engine.sat.clauses) - sum(engine.sat.is_learned)


def _one_result_per_point(engine):
    return all(
        len({engine.value(app) for app in group}) == 1
        for by_point in engine.app_points.values()
        for group in by_point.values()
    )


def test_engine_eager_fig1_needs_no_congruence(fig1):
    # the eager lemmas already make every update symbol functional: the
    # first model gives each point one result and check grounds nothing
    formula, spec = encode_inference(fig1)
    engine = _check([encode_eager(formula, spec).formula])
    clauses, variables = _input_clauses(engine), engine.sat.num_vars
    assert engine.check() == "sat"
    assert engine.theory_rounds == 1
    assert _one_result_per_point(engine)
    assert (_input_clauses(engine), engine.sat.num_vars) == (clauses, variables)


def test_engine_quant_aggregated_fig1_grounds_congruence(fig1):
    formula, spec = encode_inference(fig1)
    engine = _check([encode_quant_aggregated(formula, spec).formula])
    clauses = _input_clauses(engine)
    assert engine.check() == "sat"
    # order-encoded throughout, so every round after the first is a
    # congruence round, and its clauses stay
    assert engine.atom_var == {}
    assert engine.theory_rounds >= 2
    assert _input_clauses(engine) > clauses
    assert _one_result_per_point(engine)


def test_engine_grounds_every_broken_pair_of_a_point(monkeypatch):
    # f(x), f(y), f(z) must take results 0, 1 and 2, so x, y and z must be
    # distinct; the first model puts all three at one point
    dom = bounded_int(0, 2)
    f = FunctionSymbol("f", [dom], dom)
    args = [Const(n, dom) for n in "xyz"]
    assertions = [Cmp(CmpOp.EQ, Apply(f, (a,)), IntLit(i)) for i, a in enumerate(args)]
    results_per_point = []
    ground = Engine._ground_broken_pairs

    def spy(engine):
        broken = ground(engine)
        results_per_point.append(max(
            len({engine.value(app) for app in group})
            for group in engine.app_points["f"].values()
        ))
        return broken

    monkeypatch.setattr(Engine, "_ground_broken_pairs", spy)
    session = _session(assertions)
    assert session.check_sat() == "sat"
    assert results_per_point[0] == 3 and results_per_point[-1] == 1
    assert _one_result_per_point(session.engine)
    model = session.extract_model()
    assert all(evaluate(a, model) for a in assertions)
    assert sorted(evaluate(a, model) for a in args) == [0, 1, 2]


def test_engine_grounds_an_application_caught_again_against_its_whole_symbol():
    # g(x) is true only at one of 64 points, so a tie per round would let
    # the model move x through the points one round at a time
    g = FunctionSymbol("g", [BOOL] * 6, BOOL)
    target = (True, False, True, True, False, True)
    assertions = [Apply(g, tuple(Const(f"x{i}", BOOL) for i in range(6)))]
    for point in itertools.product((False, True), repeat=6):
        app = Apply(g, tuple(BoolLit(v) for v in point))
        assertions.append(app if point == target else Not(app))
    engine = _check(assertions)
    assert engine.check() == "sat"
    assert engine.theory_rounds <= 4
    assert tuple(engine.value(Const(f"x{i}", BOOL)) for i in range(6)) == target


def test_engine_mends_a_constrained_symbol_by_lemma_pairs(monkeypatch):
    # f is monotone and g unconstrained; the first model puts x and y at one
    # point, and u and v at one point
    dom = bounded_int(0, 2)
    f = FunctionSymbol("f", [dom], dom)
    g = FunctionSymbol("g", [dom], dom)
    x, y, u, v = (Const(name, dom) for name in "xyuv")
    fx, fy = Apply(f, (x,)), Apply(f, (y,))
    assertions = [
        Cmp(CmpOp.EQ, fx, IntLit(1)),
        Cmp(CmpOp.EQ, fy, IntLit(0)),
        Cmp(CmpOp.EQ, Apply(g, (u,)), IntLit(1)),
        Cmp(CmpOp.EQ, Apply(g, (v,)), IntLit(0)),
    ]
    signs = []
    assert_lemma = Engine.assert_lemma

    def spy(engine, t, s, mono, anti):
        signs.append((t.func, mono, anti))
        assert_lemma(engine, t, s, mono, anti)

    monkeypatch.setattr(Engine, "assert_lemma", spy)
    session = InternalSession()
    log = []
    assert session.check_lemmas_in_search(MonotonicitySpec({f: ({1}, set())}), log)
    for a in assertions:
        session.assert_formula(a)
    assert session.check_sat() == "sat"
    assert {func for func, _, _ in signs} == {f, g}
    assert {(mono, anti) for func, mono, anti in signs if func == f} == {
        (frozenset({1}), frozenset())
    }
    assert {(mono, anti) for func, mono, anti in signs if func == g} == {
        (frozenset(), frozenset())
    }
    assert log[0] == (fx, fy)
    assert {app.func for pair in log for app in pair} == {f}
    model = session.extract_model()
    assert all(evaluate(a, model) for a in assertions)
    assert evaluate(y, model) < evaluate(x, model)
    assert evaluate(u, model) != evaluate(v, model)


def _congruence_broken_in_every_model():
    f = FunctionSymbol("f", [INT], INT)
    x = Const("x", INT)
    return _check([Cmp(CmpOp.NE, Apply(f, (Add(x, IntLit(1)),)),
                       Apply(f, (Add(IntLit(1), x),)))])


def test_engine_deadline_bounds_congruence_rounds():
    import time

    # each round grounds the one pair in the direction its model breaks,
    # and the two directions leave no model, so no third round runs
    engine = _congruence_broken_in_every_model()
    assert engine.check() == "unsat"
    assert engine.theory_rounds == 2
    late = time.monotonic() - 1
    assert _congruence_broken_in_every_model().check(deadline=late) == "unknown"


@pytest.mark.parametrize("result", [BOOL, bounded_int(0, 3), INT], ids=str)
def test_congruence_is_the_unsigned_lemma_both_ways(result):
    # Boolean, order-encoded and difference-logic arguments, some folding to
    # constants or offsets
    dom = bounded_int(0, 3)
    f = FunctionSymbol("f", [BOOL, dom, INT], result)
    a, x, y, u, v = Const("a", BOOL), Const("x", dom), Const("y", dom), Const("u", INT), Const("v", INT)
    t = Apply(f, (a, x, u))
    s = Apply(f, (BoolLit(True), y, Add(v, IntLit(1))))
    base = Not(Cmp(CmpOp.EQ, t, s))
    engines = _check([base]), _check([base])
    engines[0].assert_lemma(t, s, frozenset(), frozenset())
    engines[0].assert_lemma(s, t, frozenset(), frozenset())
    unsigned = MonotonicitySpec({})
    engines[1].assert_term(monotonicity_lemma(f, t.args, s.args, unsigned))
    engines[1].assert_term(monotonicity_lemma(f, s.args, t.args, unsigned))
    assert engines[0].sat.num_vars == engines[1].sat.num_vars
    # the same input clauses, in the same order
    inputs = [
        [clause for clause, learned in zip(e.sat.clauses, e.sat.is_learned) if not learned]
        for e in engines
    ]
    assert inputs[0] == inputs[1]
    for e in engines:
        assert e.check() == "sat"
        for equal in [a, Cmp(CmpOp.EQ, x, y), Cmp(CmpOp.EQ, u, Add(v, IntLit(1)))]:
            e.assert_term(equal)
        assert e.check() == "unsat"


def _admits(engine, values):
    """Whether `engine` has no empty clause, and every input clause and
    level-0 unit holds, where each constant in `values` takes its value; the
    constants' variables and the true variable must be all there are."""
    truth = {engine.true_var: True}
    for c, v in values.items():
        node = ("c", c.name)
        if c.sort.is_bool:
            truth[engine.bool_unknowns[node]] = v
        else:
            truth.update({var: v >= j for j, var in engine.order_vars[node].items()})
    assert len(truth) == engine.sat.num_vars
    clauses = [c for c, learned in zip(engine.sat.clauses, engine.sat.is_learned) if not learned]
    clauses += [[unit] for unit in engine.sat.trail]
    return engine.sat.ok and all(any(truth[abs(q)] == (q > 0) for q in clause) for clause in clauses)


_COMPARE = {CmpOp.LE: operator.le, CmpOp.LT: operator.lt, CmpOp.GE: operator.ge, CmpOp.GT: operator.gt}


@pytest.mark.parametrize("ranges", [((0, 3), (1, 2)), ((0, 2), (0, 3))], ids=str)
def test_ladder_comparison_in_a_clause_is_its_order_encoding(ranges):
    # x - y op k as the consequent of an implication from p, and as a bare
    # atom: its clauses admit exactly the (x, y) that satisfy it, and every
    # (x, y) where p is false, with no SAT variable of their own
    x, y = Const("x", bounded_int(*ranges[0])), Const("y", bounded_int(*ranges[1]))
    p = Const("p", BOOL)
    for op, k in itertools.product(_COMPARE, range(-2, 3)):
        cmp = Cmp(op, Sub(x, y), IntLit(k))
        for assertion in (Implies(p, cmp), cmp):
            engine = Engine()
            engine.ground(p)
            engine.ground(x)
            engine.ground(y)
            before = engine.sat.num_vars
            engine.assert_term(assertion)
            assert engine.sat.num_vars == before
            values = itertools.product(x.sort.values(), y.sort.values(), (True, False))
            for xv, yv, pv in values:
                holds = _COMPARE[op](xv - yv, k) or (not pv and assertion != cmp)
                assert _admits(engine, {p: pv, x: xv, y: yv}) == holds, (op, k, xv, yv, pv)


def test_ground_makes_an_application_node_before_its_arguments():
    # the SAT variable numbering, and with it every search counter, follows
    # this order
    f, g = FunctionSymbol("f", [BOOL], BOOL), FunctionSymbol("g", [BOOL], BOOL)
    p = Const("p", BOOL)
    g_p = Apply(g, (p,))
    f_g_p = Apply(f, (g_p,))
    engine = Engine()
    engine.ground(f_g_p)
    var = engine.bool_unknowns
    assert var[("a", f_g_p)] < var[("a", g_p)] < var[("c", "p")]


def test_ground_lists_an_application_after_its_arguments():
    f = FunctionSymbol("f", [BOOL], BOOL)
    f_p = Apply(f, (Const("p", BOOL),))
    f_f_p = Apply(f, (f_p,))
    engine = Engine()
    engine.ground(f_f_p)
    assert engine.apps_by_symbol["f"] == [f_p, f_f_p]


def test_ground_registers_the_right_operand_of_ge_first():
    f = FunctionSymbol("f", [INT], bounded_int(0, 3))
    a, b = Apply(f, (IntLit(0),)), Apply(f, (IntLit(1),))
    engine = Engine()
    engine.ground(Cmp(CmpOp.GE, a, b))
    ladder_a, ladder_b = engine.order_vars[("a", a)], engine.order_vars[("a", b)]
    assert max(ladder_b.values()) < min(ladder_a.values())


def test_ground_caches_a_conjunction_on_its_term():
    p, q = Const("p", BOOL), Const("q", BOOL)
    engine = Engine()
    lit = engine.ground(And([p, q]))
    before = engine.sat.num_vars
    assert engine.ground(And([p, q])) == lit
    assert engine.sat.num_vars == before


def test_integer_equality_is_one_literal_either_way():
    dom = bounded_int(0, 3)
    engine = Engine()
    for x, y in [(Const("x", dom), Const("y", dom)), (Const("u", INT), Const("v", INT))]:
        vars_before = engine.sat.num_vars
        lit = engine.ground(Cmp(CmpOp.EQ, x, y))
        vars_after = engine.sat.num_vars
        assert engine.ground(Cmp(CmpOp.EQ, y, x)) == lit
        assert engine.sat.num_vars == vars_after > vars_before


_D = bounded_int(0, 2)
_SYMBOLS = [
    FunctionSymbol("f", [_D], _D),
    FunctionSymbol("g", [BOOL], _D),
    FunctionSymbol("h", [BOOL, BOOL], BOOL),
]
_C, _P, _Q = Const("c", _D), Const("p", BOOL), Const("q", BOOL)
_CD = Const("d", _D)
_SHAPES = [
    lambda a, b: And([a, b]),
    lambda a, b: Or([a, b, a]),
    lambda a, b: Implies(a, b),
    lambda a, b: Not(And([b, a])),
    lambda a, b: Cmp(CmpOp.EQ, a, b),
    lambda a, b: Cmp(CmpOp.NE, b, a),
]


def _nested(draw, leaves, depth):
    """And/Or/Implies/Not/=/distinct over `leaves`; the second operand is
    often the first again, its negation or a Boolean constant."""
    if depth == 0 or draw(st.booleans()):
        return draw(st.sampled_from(leaves))
    a = _nested(draw, leaves, depth - 1)
    if draw(st.booleans()):
        b = draw(st.sampled_from([a, Not(a), BoolLit(True), BoolLit(False)]))
    else:
        b = _nested(draw, leaves, depth - 1)
    return draw(st.sampled_from(_SHAPES))(a, b)


@st.composite
def _ground_uf_formula(draw):
    """2-5 applications of one or two symbols over Bool and 0..2 arguments;
    later applications may take earlier ones, or c + 1, as arguments.  A
    nested Boolean structure with constant, repeated and complementary
    operands joins the atoms."""
    symbols = draw(st.lists(st.sampled_from(_SYMBOLS), min_size=1, max_size=2,
                            unique_by=lambda f: f.name))
    ints = [_C, IntLit(0), IntLit(1), Add(_C, IntLit(1))]
    bools = [_P, _Q, BoolLit(True), Not(_P)]
    apps = []
    for _ in range(draw(st.integers(2, 5))):
        func = draw(st.sampled_from(symbols))
        app = Apply(func, [draw(st.sampled_from(ints if s.is_int else bools))
                           for s in func.arg_sorts])
        apps.append(app)
        (ints if app.sort.is_int else bools).append(app)
    atoms = [Cmp(CmpOp.LE, _C, IntLit(1))]  # keeps c + 1 inside the grid
    for app in apps:
        # mostly against another application, so results are pushed apart
        pool = ints if app.sort.is_int else bools
        rivals = [t for t in apps if t.sort.is_int == app.sort.is_int and t != app]
        other = draw(st.sampled_from(rivals if rivals and draw(st.booleans()) else pool))
        if app.sort.is_int:
            op = draw(st.sampled_from([CmpOp.EQ, CmpOp.NE, CmpOp.LE, CmpOp.LT]))
        else:
            op = draw(st.sampled_from([CmpOp.EQ, CmpOp.NE]))
        atoms.append(Cmp(op, app, other))
    if draw(st.booleans()):
        atoms[1:3] = [mk_or(atoms[1:3])]
    # shapes the engine folds, over c - d <= k with k in -4..4 while c - d
    # ranges over -2..2 (k is a sum of literals the oracle's grid holds)
    k = Add(IntLit(draw(st.integers(0, 2))), IntLit(draw(st.integers(0, 2))))
    ladder = Cmp(CmpOp.LE, Sub(_C, _CD), k if draw(st.booleans()) else Neg(k))
    atoms.append(_nested(draw, bools + [BoolLit(False), ladder], 3))
    return mk_and(atoms)


@settings(max_examples=300, deadline=None)
@given(_ground_uf_formula())
def test_engine_congruence_on_demand_agrees_with_oracle(formula):
    session = _session([formula])
    verdict = session.check_sat()
    assert verdict == oracle_mono_sat(formula, MonotonicitySpec({}), (0, 2))
    if verdict == "sat":
        assert evaluate(formula, session.extract_model())


@st.composite
def _valued_symbol(draw):
    """One symbol's (application, point, result) triples: points drawn with
    repeats from a few Boolean or 0..2 vectors, and disjoint signs."""
    coordinate = st.sampled_from([st.booleans(), st.integers(0, 2)])
    kinds = draw(st.lists(coordinate, min_size=1, max_size=4))
    pool = draw(st.lists(st.tuples(*kinds), min_size=1, max_size=4))
    points = draw(st.lists(st.sampled_from(pool), max_size=8))
    result = draw(st.sampled_from([st.booleans(), st.integers(0, 2)]))
    valued = [(f"t{k}", point, draw(result)) for k, point in enumerate(points)]
    signs = draw(st.lists(st.sampled_from("ma."), min_size=len(kinds), max_size=len(kinds)))
    mono = frozenset(i for i, sign in enumerate(signs, start=1) if sign == "m")
    anti = frozenset(i for i, sign in enumerate(signs, start=1) if sign == "a")
    return valued, mono, anti


@settings(max_examples=300, deadline=None)
@given(_valued_symbol())
def test_broken_pairs_is_the_filtered_permutations(symbol):
    valued, mono, anti = symbol
    assert broken_pairs(valued, mono, anti) == [
        (t, s)
        for (t, p, p_out), (s, q, q_out) in itertools.permutations(valued, 2)
        if p_out > q_out and dominates(p, q, mono, anti)
    ]


def test_folded_shapes_make_no_sat_variable():
    engine = Engine()
    p = engine.ground(_P)
    t, f = engine.true_var, -engine.true_var
    # grounding an atom registers the ladders of c and d, even one that folds
    assert engine.ground(Cmp(CmpOp.LE, Sub(_C, _CD), IntLit(2))) == t
    assert ("c", "c") in engine.order_vars and ("c", "d") in engine.order_vars
    before = engine.sat.num_vars
    TRUE, FALSE = BoolLit(True), BoolLit(False)
    folded = {
        Or([_P, FALSE, _P]): p,
        Implies(TRUE, _P): p,
        Cmp(CmpOp.EQ, _P, TRUE): p,
        Cmp(CmpOp.NE, FALSE, _P): p,
        And([_P, Not(_P)]): f,
        Cmp(CmpOp.LE, Sub(_C, _CD), IntLit(3)): t,
        Cmp(CmpOp.LE, Sub(_C, _CD), IntLit(-3)): f,
    }
    for term, lit in folded.items():
        assert engine.ground(term) == lit, term
    # a false antecedent satisfies a lemma: its consequent is not grounded
    f_c = Apply(_SYMBOLS[0], (_C,))
    engine.assert_term(Implies(And([_P, FALSE]), Cmp(CmpOp.EQ, f_c, IntLit(1))))
    assert engine.sat.num_vars == before
    assert not engine.apps_by_symbol


def test_only_input_unknowns_are_decision_variables(monkeypatch):
    engine = Engine()
    gates = set()

    def recording(make_gate):
        def wrapped(*args):
            before = engine.sat.num_vars
            lit = make_gate(*args)
            gates.update(range(before + 1, engine.sat.num_vars + 1))
            return lit
        return wrapped

    monkeypatch.setattr(engine, "_and", recording(engine._and))
    monkeypatch.setattr(engine, "_iff_gate", recording(engine._iff_gate))
    h = _SYMBOLS[2]
    f_c = Apply(_SYMBOLS[0], (_C,))
    x, y = Const("x", INT), Const("y", INT)
    engine.assert_term(Or([
        And([_P, Apply(h, (_Q, _P))]),
        Cmp(CmpOp.EQ, _P, _Q),
        Cmp(CmpOp.EQ, f_c, _CD),
        Cmp(CmpOp.LE, Sub(x, y), IntLit(2)),
    ]))
    inputs = {engine.true_var, *engine.bool_unknowns.values(), *engine.atom_var.values()}
    for ladder in engine.order_vars.values():
        inputs.update(ladder.values())
    assert gates and engine.atom_var and len(engine.order_vars) == 3
    assert gates | inputs == set(range(1, engine.sat.num_vars + 1))
    assert not any(engine.sat.decide[v] for v in gates)
    assert all(engine.sat.decide[v] for v in inputs)


@pytest.mark.parametrize("lazy", [False, True])
def test_engine_model_is_total_on_an_inference_instance(fig1, lazy):
    formula, spec = encode_inference(fig1)
    session = InternalSession()
    if lazy:
        assert solve_lazy(formula, spec, session).is_sat
    else:
        session.assert_formula(encode_eager(formula, spec).formula)
        assert session.check_sat() == "sat"
    sat = session.engine.sat
    assert len(sat.model) == sat.num_vars + 1 and 0 not in sat.model[1:]
    assert not all(sat.decide[1:])


def test_engine_boolean_structure():
    p, q = Const("p", BOOL), Const("q", BOOL)
    session = _session(
        [
            mk_or([p, q]),
            Implies(p, q),
            Not(And([p, q])),
        ]
    )
    assert session.check_sat() == "sat"
    model = session.extract_model()
    assert evaluate(q, model) is True and evaluate(p, model) is False


def test_engine_quantifier_expansion_bool():
    p = FunctionSymbol("p", [BOOL], BOOL)
    x = Var("x", BOOL)
    engine = _check(
        [
            Forall([x], Apply(p, (x,))),
            Not(Apply(p, (BoolLit(False),))),
        ]
    )
    assert engine.check() == "unsat"


def test_engine_quantifier_expansion_bounded_int():
    dom = bounded_int(0, 2)
    g = FunctionSymbol("g", [dom], dom)
    x = Var("x", dom)
    engine = _check(
        [
            Forall([x], Cmp(CmpOp.EQ, Apply(g, (x,)), IntLit(1))),
            Cmp(CmpOp.EQ, Apply(g, (IntLit(2),)), IntLit(0)),
        ]
    )
    assert engine.check() == "unsat"


def _term_expansion(engine, axiom):
    """Every instance of `axiom` as its own substituted Term, in product order."""
    for combo in itertools.product(*(v.sort.values() for v in axiom.bound)):
        engine.assert_term(substitute(axiom.body, {v: lit(x) for v, x in zip(axiom.bound, combo)}))


_D3 = bounded_int(0, 2)
_GUARDED = {
    "mono-anti": (FunctionSymbol("f", [_D3, _D3], _D3), ({1}, {2})),
    "mono-unsigned": (FunctionSymbol("f", [_D3, _D3], _D3), ({1}, set())),
    "anti-unsigned": (FunctionSymbol("f", [_D3, _D3], _D3), (set(), {2})),
    "boolean-arguments": (FunctionSymbol("h", [BOOL, BOOL, BOOL], BOOL), ({1}, {2})),
}


@pytest.mark.parametrize("encoder", [encode_quant_individual, encode_quant_aggregated])
@pytest.mark.parametrize("case", sorted(_GUARDED))
def test_guarded_expansion_grounds_what_the_term_expansion_grounds(case, encoder):
    func, signs = _GUARDED[case]
    spec = MonotonicitySpec({func: signs})
    args = [Const(f"a{i}", s) for i, s in enumerate(func.arg_sorts)]
    base = Not(Cmp(CmpOp.EQ, Apply(func, tuple(args)), Apply(func, tuple(reversed(args)))))
    axioms = [c for c in encoder(base, spec).formula.args if isinstance(c, Forall)]
    assert axioms
    guarded, by_term = _check([base]), _check([base])
    for axiom in axioms:
        guarded.assert_term(axiom)
        _term_expansion(by_term, axiom)
    assert guarded.sat.num_vars == by_term.sat.num_vars
    assert guarded.sat.clauses == by_term.sat.clauses
    assert guarded.sat.trail == by_term.sat.trail
    assert guarded.quant_instances == sum(
        math.prod(v.sort.size() for v in a.bound) for a in axioms
    )
    assert guarded.check() == by_term.check()


@pytest.mark.parametrize("c_value", [0, 1])
def test_guard_conjunct_over_a_constant_stays_in_the_instance(c_value):
    f = FunctionSymbol("f", [_D3], _D3)
    c = Const("c", bounded_int(0, 1))
    x, y = Var("x", _D3), Var("y", _D3)
    fx, fy = Apply(f, (x,)), Apply(f, (y,))
    # constrained only where x <= c: at c = 1 the pair (1, 2) is, and breaks
    axiom = Forall([x, y], Implies(And([ordering_atom(x, y), ordering_atom(x, c)]),
                                   ordering_atom(fx, fy)))
    base = [
        Cmp(CmpOp.EQ, c, IntLit(c_value)),
        Cmp(CmpOp.EQ, Apply(f, (IntLit(1),)), IntLit(2)),
        Cmp(CmpOp.EQ, Apply(f, (IntLit(2),)), IntLit(0)),
    ]
    guarded, by_term = _check(base), _check(base)
    guarded.assert_term(axiom)
    _term_expansion(by_term, axiom)
    assert guarded.quant_instances == 9
    verdicts = guarded.check(), by_term.check()
    assert verdicts == (("sat", "sat") if c_value == 0 else ("unsat", "unsat"))


def test_expansion_stops_at_the_deadline():
    import time

    f = FunctionSymbol("f", [_D3, _D3], _D3)
    axiom = encode_quant_aggregated(BoolLit(True), MonotonicitySpec({f: ({1}, {2})})).formula
    engine = Engine()
    vars_before = engine.sat.num_vars
    with pytest.raises(TimeoutError):
        engine.assert_term(axiom, deadline=time.monotonic() - 1)
    assert engine.sat.num_vars == vars_before


def test_conjunction_stops_at_the_deadline(monkeypatch):
    # the clock passes the deadline after the first conjunct's poll
    clock = itertools.count()
    monkeypatch.setattr(engine_module.time, "monotonic", lambda: next(clock))
    x, y, z = Const("x", INT), Const("y", INT), Const("z", INT)
    engine = Engine()
    with pytest.raises(TimeoutError):
        engine.assert_term(And([Cmp(CmpOp.LE, x, y), Cmp(CmpOp.LE, y, z)]), deadline=0.5)
    assert list(engine.atom_var) == [(("c", "x"), ("c", "y"), 0)]


def test_engine_rejects_unbounded_quantifier():
    g = FunctionSymbol("g", [INT], INT)
    x = Var("x", INT)
    engine = Engine()
    with pytest.raises(EngineUnsupported):
        engine.assert_term(Forall([x], Cmp(CmpOp.LE, Apply(g, (x,)), x)))


def test_engine_expansion_budget():
    dom = bounded_int(0, 3)
    g = FunctionSymbol("g", [dom] * 9, dom)
    xs = [Var(f"x{i}", dom) for i in range(9)]
    # 4^9 = 262,144 instances, beyond the shipped budget
    axiom = Forall(xs, Cmp(CmpOp.LE, Apply(g, tuple(xs)), IntLit(3)))
    engine = Engine()
    with pytest.raises(EngineUnsupported):
        engine.assert_term(axiom)


def test_engine_budget_prechecked_for_conjunctions():
    dom = bounded_int(0, 3)
    g = FunctionSymbol("g", [dom] * 9, dom)
    xs = [Var(f"x{i}", dom) for i in range(9)]
    # 4^9 = 262,144 instances, beyond the shipped budget
    axiom = Forall(xs, Cmp(CmpOp.LE, Apply(g, tuple(xs)), IntLit(3)))
    engine = Engine()
    with pytest.raises(EngineUnsupported):
        engine.assert_term(And([BoolLit(True), axiom]))
    assert engine.quant_instances == 0  # refused before grounding anything


def test_engine_rejects_nonlinear_coefficients():
    x = Const("x", INT)
    engine = Engine()
    with pytest.raises(EngineUnsupported):
        engine.assert_term(Cmp(CmpOp.LE, Add(x, x), IntLit(3)))


def test_engine_model_extraction_completeness():
    f = FunctionSymbol("f", [INT], INT)
    x = Const("x", INT)
    unused = Const("unused", INT)
    for session in sessions():
        with session:
            session.declare(unused)
            session.assert_formula(Cmp(CmpOp.EQ, Apply(f, (x,)), IntLit(3)))
            assert session.check_sat() == "sat"
            model = session.extract_model()
            assert "unused" in model.constants
            assert model.functions["f"].lookup((model.constants["x"],)) == 3


def test_engine_timeout_returns_unknown():
    import time

    dom = bounded_int(0, 1)
    f = FunctionSymbol("f", [dom] * 10, dom)
    xs = [Var(f"x{i}", dom) for i in range(10)]
    engine = Engine()
    engine.assert_term(Forall(xs, Cmp(CmpOp.LE, Apply(f, tuple(xs)), IntLit(1))))
    assert engine.check(deadline=time.monotonic() - 1) == "unknown"


# -- cross-validation against the brute-force structure enumerator ---------------------


def _random_mono_instance(rng):
    grid = (0, 1)
    g = FunctionSymbol("g", [INT], INT)
    c1, c2 = Const("a", INT), Const("b", INT)
    ints = [c1, c2, IntLit(0), IntLit(1), Apply(g, (c1,)), Apply(g, (c2,)),
            Apply(g, (IntLit(0),)), Apply(g, (IntLit(1),))]
    atoms = []
    for _ in range(rng.randint(2, 4)):
        op = rng.choice([CmpOp.LE, CmpOp.LT, CmpOp.EQ, CmpOp.NE])
        atoms.append(Cmp(op, rng.choice(ints), rng.choice(ints)))
    # keep every unknown inside the enumeration grid
    for c in (c1, c2):
        atoms.append(Cmp(CmpOp.LE, IntLit(0), c))
        atoms.append(Cmp(CmpOp.LE, c, IntLit(1)))
    for t in ints[4:]:
        atoms.append(Cmp(CmpOp.LE, IntLit(0), t))
        atoms.append(Cmp(CmpOp.LE, t, IntLit(1)))
    spec = MonotonicitySpec({g: ({1}, set()) if rng.random() < 0.7 else (set(), {1})})
    return mk_and(atoms), spec


def test_engine_agrees_with_structure_enumeration():
    rng = random.Random(11)
    for _ in range(40):
        phi, spec = _random_mono_instance(rng)
        expected = oracle_mono_sat(phi, spec, (0, 1))
        engine = Engine()
        engine.assert_term(encode_eager(phi, spec).formula)
        assert engine.check() == expected
