import random

import pytest

from monoinfer.difflogic import ZERO, DiffConstraint, solve_difference_constraints
from monoinfer.engine import Engine, EngineUnsupported
from monoinfer.model import evaluate
from monoinfer.oracle import oracle_mono_sat
from monoinfer.sat import SatSolver
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
    Not,
    Or,
    Var,
    bounded_int,
    mk_and,
    mk_or,
)
from monoinfer.encode import encode_eager


# -- SAT core -------------------------------------------------------------------


def test_sat_simple_models():
    s = SatSolver()
    a, b = s.new_var(), s.new_var()
    s.add_clause([a, b])
    s.add_clause([-a, b])
    assert s.solve() == "sat"
    assert s.model_value(b)


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
    assert s.model_value(b)
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


def test_engine_unbounded_arithmetic_chain():
    x, y = Const("x", INT), Const("y", INT)
    engine = _check(
        [
            Cmp(CmpOp.LT, x, y),
            Cmp(CmpOp.LT, y, Add(x, IntLit(2))),
        ]
    )
    assert engine.check() == "sat"
    xv, yv = engine.evaluate(x), engine.evaluate(y)
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


def test_engine_boolean_structure():
    p, q = Const("p", BOOL), Const("q", BOOL)
    engine = _check(
        [
            mk_or([p, q]),
            Implies(p, q),
            Not(And([p, q])),
        ]
    )
    assert engine.check() == "sat"
    assert engine.evaluate(q) is True and engine.evaluate(p) is False


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
    engine = Engine()
    engine.declare_const(unused)
    engine.assert_term(Cmp(CmpOp.EQ, Apply(f, (x,)), IntLit(3)))
    assert engine.check() == "sat"
    model = engine.extract_model()
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
