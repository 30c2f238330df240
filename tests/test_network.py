import itertools
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import free_vars, subterms
from monoinfer import network, terms
from monoinfer.encode import Strategy, encode, encode_eager, solve
from monoinfer.generate import PERTURBED, PLANTED, GeneratorParams, generate_instance
from monoinfer.model import FunctionTable, Model
from monoinfer.network import (
    FixedPointObservation,
    InferenceProblem,
    NetworkVariable,
    ProblemError,
    Regulation,
    Sign,
    UpdateFunctionTable,
    bounds_constraints,
    decode_solution,
    encode_inference,
    essentiality_constraint,
    fixed_point_constraint,
    verify_solution,
)
from monoinfer.oracle import OracleBudgetError, oracle_inference
from monoinfer.problemfile import ProblemParseError, parse_problem
from monoinfer.session import InternalSession
from monoinfer.terms import (
    BOOL,
    And,
    Apply,
    BoolLit,
    Cmp,
    CmpOp,
    Const,
    Exists,
    IntLit,
    Var,
    bounded_int,
    NameSupply,
    is_quantifier_free,
    iter_subterms,
    mk_and,
    skolemize,
)


def _bool_var(name):
    return NetworkVariable(name, BOOL)


def _fig1_vars(fig1):
    return {v.name: v for v in fig1.variables}


# -- structural validation ------------------------------------------------------


def test_problem_validation():
    a, b = _bool_var("a"), _bool_var("b")
    with pytest.raises(ProblemError):
        InferenceProblem([a, a], [], [])
    with pytest.raises(ProblemError):
        InferenceProblem([a], [Regulation(b, a)], [])
    with pytest.raises(ProblemError):
        InferenceProblem([a, b], [Regulation(a, b), Regulation(a, b)], [])
    with pytest.raises(ProblemError):
        FixedPointObservation.of([])
    with pytest.raises(ProblemError):
        FixedPointObservation.of([(a, 5)])
    n = NetworkVariable("n", bounded_int(0, 2))
    with pytest.raises(ProblemError):
        FixedPointObservation.of([(a, 1)])  # 1 == True, but not a Boolean
    with pytest.raises(ProblemError):
        FixedPointObservation.of([(n, True)])  # True == 1, but not an integer
    with pytest.raises(ProblemError):
        NetworkVariable("x", bounded_int(1, 3))  # integer domains start at 0


# -- signature ---------------------------------------------------------------------


def test_fig1_signature_arities(fig1):
    signature = fig1.signature
    arities = {f.name: f.arity for f in signature.values()}
    assert arities == {"f_a": 3, "f_b": 2, "f_c": 1}


def test_input_free_variable_gets_constant_symbol():
    a, b = _bool_var("a"), _bool_var("b")
    problem = InferenceProblem([a, b], [Regulation(a, b)], [])
    signature = problem.signature
    assert signature[a].arity == 0
    assert signature[b].arity == 1


def test_self_loop_only_arity_one():
    v = _bool_var("v")
    problem = InferenceProblem([v], [Regulation(v, v)], [])
    assert problem.signature[v].arity == 1


def test_regulator_order_follows_variable_list():
    a, b, c = (_bool_var(n) for n in "abc")
    problem = InferenceProblem(
        [a, b, c],
        [Regulation(c, b), Regulation(a, b)],
        [],
    )
    assert problem.regulators_of(b) == [a, c]


@pytest.mark.parametrize(
    "seed, params",
    [
        (9000 + i, GeneratorParams(30 + 5 * i, max_arity=8 + i, essential_ratio=0.25))
        for i in range(3)
    ]
    + [
        (1, GeneratorParams(n_vars=10, max_arity=3, domain_size=3, n_observations=3)),
        (2, GeneratorParams(n_vars=11, max_arity=2, domain_size=4, n_observations=3)),
    ],
)
def test_regulation_order_does_not_matter(seed, params):
    problem = generate_instance(seed, params)
    regulations = list(problem.regulations)
    random.Random(seed).shuffle(regulations)
    assert regulations != problem.regulations
    shuffled = InferenceProblem(problem.variables, regulations, problem.observations)
    for var in problem.variables:
        assert shuffled.regulators_of(var) == problem.regulators_of(var)
        incoming = [r for r in regulations if r.target == var]
        in_order = sorted(incoming, key=lambda r: problem.variables.index(r.source))
        assert shuffled.inputs[var] == problem.inputs[var] == tuple(in_order)
    formula, spec = encode_inference(problem)
    shuffled_formula, shuffled_spec = encode_inference(shuffled)
    assert shuffled_formula == formula
    assert shuffled_spec == spec
    assert list(shuffled_spec.entries) == list(spec.entries)
    tables = decode_solution(_solve_eager(problem), problem)
    shuffled_tables = decode_solution(_solve_eager(shuffled), shuffled)
    assert shuffled_tables == tables
    assert verify_solution(shuffled, shuffled_tables) == verify_solution(problem, tables)
    assert verify_solution(problem, tables).ok


# -- monotonicity specification -------------------------------------------------------


def test_fig1_monotonicity_spec(fig1):
    signature = fig1.signature
    spec = fig1.spec
    names = _fig1_vars(fig1)
    assert spec.monotone(signature[names["a"]]) == {3}
    assert spec.anti_monotone(signature[names["a"]]) == {2}
    assert spec.monotone(signature[names["b"]]) == {1, 2}
    assert spec.anti_monotone(signature[names["b"]]) == frozenset()
    assert spec.monotone(signature[names["c"]]) == {1}


def test_all_unknown_signs_unconstrained():
    a, b = _bool_var("a"), _bool_var("b")
    problem = InferenceProblem([a, b], [Regulation(a, b, Sign.UNKNOWN)], [])
    spec = problem.spec
    f_b = problem.signature[b]
    assert spec.constrained_indices(f_b) == frozenset()


def test_positive_self_loop_spec():
    v = _bool_var("v")
    problem = InferenceProblem([v], [Regulation(v, v, Sign.MONOTONE)], [])
    f_v = problem.signature[v]
    assert problem.spec.monotone(f_v) == {1}


# -- essentiality -----------------------------------------------------------------------


def test_essentiality_arity_one(fig1):
    names = _fig1_vars(fig1)
    eta = essentiality_constraint(fig1, names["c"], 1)
    assert isinstance(eta, Exists)
    assert [v.name for v in eta.bound] == ["x", "y"]
    assert isinstance(eta.body, Cmp) and eta.body.op is CmpOp.NE


def test_essentiality_middle_position(fig1):
    names = _fig1_vars(fig1)
    eta = essentiality_constraint(fig1, names["a"], 2)
    assert [v.name for v in eta.bound] == ["x", "y", "z1", "z3"]
    lhs, rhs = eta.body.lhs, eta.body.rhs
    assert isinstance(lhs, Apply) and isinstance(rhs, Apply)
    x, y, z1, z3 = eta.bound
    assert lhs.args == (z1, x, z3)
    assert rhs.args == (z1, y, z3)


def test_essentiality_boolean_source_instantiated():
    a, b = _bool_var("a"), _bool_var("b")
    problem = InferenceProblem([a, b], [Regulation(a, b, essential=True)], [])
    eta = essentiality_constraint(problem, b, 1)
    f_b = problem.signature[b]
    assert eta == Cmp(
        CmpOp.NE, Apply(f_b, (BoolLit(True),)), Apply(f_b, (BoolLit(False),))
    )
    # without simplification the binders remain
    eta_raw = essentiality_constraint(problem, b, 1, simplify=False)
    assert isinstance(eta_raw, Exists) and len(eta_raw.bound) == 2


def test_essentiality_requires_flag():
    a, b = _bool_var("a"), _bool_var("b")
    problem = InferenceProblem([a, b], [Regulation(a, b, essential=False)], [])
    with pytest.raises(ProblemError):
        essentiality_constraint(problem, b, 1)


# -- fixed points ------------------------------------------------------------------------


def test_fixed_point_fully_observed_is_ground(fig1):
    names = _fig1_vars(fig1)
    f3 = fig1.observations[2]
    tau = fixed_point_constraint(fig1, f3)
    assert is_quantifier_free(tau) and free_vars(tau) == set()
    signature = fig1.signature
    expected = And(
        [
            Cmp(
                CmpOp.EQ,
                Apply(signature[names["a"]], (IntLit(1), IntLit(2), IntLit(2))),
                IntLit(1),
            ),
            Cmp(
                CmpOp.EQ,
                Apply(signature[names["b"]], (IntLit(1), IntLit(2))),
                IntLit(2),
            ),
            Cmp(CmpOp.EQ, Apply(signature[names["c"]], (IntLit(2),)), IntLit(2)),
        ]
    )
    assert tau == expected


def test_fixed_point_partial_observation_shape(fig1):
    names = _fig1_vars(fig1)
    obs = FixedPointObservation.of([(names["a"], 0)])
    tau = fixed_point_constraint(fig1, obs)
    assert isinstance(tau, Exists)
    assert [v.name for v in tau.bound] == ["x_b", "x_c"]
    conjuncts = tau.body.args
    signature = fig1.signature
    x_b, x_c = tau.bound
    assert conjuncts[0] == Cmp(
        CmpOp.EQ, Apply(signature[names["a"]], (IntLit(0), x_b, x_c)), IntLit(0)
    )
    assert conjuncts[1] == Cmp(
        CmpOp.EQ, x_b, Apply(signature[names["b"]], (IntLit(0), x_c))
    )
    assert conjuncts[2] == Cmp(CmpOp.EQ, x_c, Apply(signature[names["c"]], (x_b,)))


def test_fixed_point_self_loop_single_variable():
    v = NetworkVariable("v", bounded_int(0, 1))
    problem = InferenceProblem(
        [v], [Regulation(v, v)], [FixedPointObservation.of([(v, 1)])]
    )
    tau = fixed_point_constraint(problem, problem.observations[0])
    f_v = problem.signature[v]
    assert tau == Cmp(CmpOp.EQ, Apply(f_v, (IntLit(1),)), IntLit(1))


def test_fixed_point_without_simplification_keeps_schema(fig1):
    f1 = fig1.observations[0]
    tau = fixed_point_constraint(fig1, f1, simplify=False)
    assert isinstance(tau, Exists) and len(tau.bound) == 3
    # n update equations plus one pin per observed variable
    assert len(tau.body.args) == 6


# -- bounds ---------------------------------------------------------------------------------


def test_bounds_cover_applications_and_skolems(fig1):
    formula, _ = encode_inference(fig1)
    bounds = bounds_constraints(formula)
    bounded_terms = {atom.rhs for atom in bounds if isinstance(atom.lhs, IntLit)}
    apps = {t for t in subterms(formula) if isinstance(t, Apply)}
    skolems = {t for t in subterms(formula) if isinstance(t, Const)}
    assert apps <= bounded_terms
    assert skolems <= bounded_terms
    for atom in bounds:
        assert isinstance(atom, Cmp) and atom.op is CmpOp.LE
        values = [t.value for t in (atom.lhs, atom.rhs) if isinstance(t, IntLit)]
        assert all(v in (0, 3) for v in values)


def test_bounds_empty_for_boolean_problem():
    a, b = _bool_var("a"), _bool_var("b")
    problem = InferenceProblem(
        [a, b],
        [Regulation(a, b, Sign.MONOTONE, essential=True)],
        [FixedPointObservation.of([(a, True), (b, False)])],
    )
    formula, _ = encode_inference(problem)
    assert bounds_constraints(formula) == []
    assert all(not t.sort.is_int for t in iter_subterms(formula))


def test_bounds_on_lone_skolem():
    v = NetworkVariable("v", bounded_int(0, 5))
    w = NetworkVariable("w", bounded_int(0, 5))
    problem = InferenceProblem(
        [v, w],
        [Regulation(v, w)],
        [FixedPointObservation.of([(w, 2)])],
    )
    formula, _ = encode_inference(problem)
    skolems = [t for t in subterms(formula) if isinstance(t, Const)]
    assert len(skolems) == 1
    bounds = [
        t
        for t in formula.args
        if isinstance(t, Cmp) and t.op is CmpOp.LE and skolems[0] in (t.lhs, t.rhs)
    ]
    assert len(bounds) == 2
    lows = [t for t in bounds if t.lhs == IntLit(0)]
    highs = [t for t in bounds if t.rhs == IntLit(5)]
    assert len(lows) == 1 and len(highs) == 1


# -- full encoding ------------------------------------------------------------------------------


def test_encode_inference_fig1_structure(fig1):
    formula, spec = encode_inference(fig1)
    assert is_quantifier_free(formula)
    assert free_vars(formula) == set()
    # six essentiality groups and three fixed-point groups lead the conjunction
    groups = formula.args[:9]
    assert all(g is not None for g in groups)
    ne_groups = [g for g in groups if isinstance(g, Cmp) and g.op is CmpOp.NE]
    and_groups = [g for g in groups if isinstance(g, And)]
    assert len(ne_groups) == 6 and len(and_groups) == 3


def _reference_encoding(problem, simplify):
    """`encode_inference`'s formula the long way: the quantified constraints,
    `skolemize` over their conjunction, then `bounds_constraints`."""
    constraints = [
        essentiality_constraint(problem, target, position, simplify)
        for target in problem.variables
        for position, reg in enumerate(problem.inputs[target], start=1)
        if reg.essential
    ]
    constraints += [
        fixed_point_constraint(problem, obs, simplify) for obs in problem.observations
    ]
    core = skolemize(mk_and(constraints), NameSupply())
    parts = list(core.args) if isinstance(core, And) else [core]
    return mk_and(parts + bounds_constraints(core))


def _partially_observed(problem, seed):
    """`problem` with each observation also drawn partial: every assignment
    kept with probability 1/2, and at least one."""
    rng = random.Random(seed)
    observations = []
    for obs in problem.observations:
        kept = [pair for pair in obs.assignments if rng.random() < 0.5]
        kept = tuple(kept) or obs.assignments[:1]
        observations.append(FixedPointObservation(kept, obs.name))
    return InferenceProblem(problem.variables, problem.regulations, observations)


def _identity_problems(fig1):
    yield fig1
    for seed, domain_size in itertools.product(range(3), (2, 3, 4)):
        for mode in (PLANTED, PERTURBED):
            params = GeneratorParams(
                n_vars=6,
                max_arity=3,
                domain_size=domain_size,
                essential_ratio=0.6,
                n_observations=2,
                mode=mode,
            )
            problem = generate_instance(seed, params)
            yield problem
            yield _partially_observed(problem, f"{seed}/{domain_size}/{mode}")
    # one partial observation and no essential regulation: the lone
    # constraint's conjuncts lead the formula, followed by the bounds
    yield _partially_observed(
        InferenceProblem(fig1.variables, [], fig1.observations[:1]), "lone"
    )


def test_encode_inference_equals_skolemized_reference(fig1, monkeypatch):
    problems = list(_identity_problems(fig1))
    expected = {
        (i, simplify): _reference_encoding(problem, simplify)
        for i, problem in enumerate(problems)
        for simplify in (True, False)
    }

    def spy(*args, **kwargs):
        raise AssertionError("encode_inference walked its formula")

    lone = expected[(len(problems) - 1, True)]
    assert any(isinstance(t, Const) and t.sort.bounds for t in iter_subterms(lone))
    # the encoder builds the skolemized formula and its bounds in one pass
    walks = [
        (network, "skolemize"),
        (terms, "skolemize"),
        (network, "bounds_constraints"),
        (network, "iter_subterms"),
        (terms, "iter_subterms"),
    ]
    for module, name in walks:
        monkeypatch.setattr(module, name, spy, raising=False)
    for (i, simplify), reference in expected.items():
        formula, spec = encode_inference(problems[i], simplify)
        assert formula == reference and repr(formula) == repr(reference)
        assert spec == problems[i].spec


def test_encode_inference_empty_constraints():
    a = _bool_var("a")
    problem = InferenceProblem([a], [Regulation(a, a)], [])
    formula, spec = encode_inference(problem)
    assert formula == BoolLit(True)
    session = InternalSession()
    session.assert_formula(encode_eager(formula, spec).formula)
    assert session.check_sat() == "sat"


def test_fully_observed_fixed_points_have_no_skolems():
    a, b = _bool_var("a"), _bool_var("b")
    problem = InferenceProblem(
        [a, b],
        [Regulation(a, b), Regulation(b, a)],
        [FixedPointObservation.of([(a, True), (b, False)])],
    )
    formula, _ = encode_inference(problem)
    assert all(not isinstance(t, Const) for t in iter_subterms(formula))


# -- decode / verify -----------------------------------------------------------------------------


def _solve_eager(problem):
    formula, spec = encode_inference(problem)
    session = InternalSession()
    session.assert_formula(encode_eager(formula, spec).formula)
    assert session.check_sat() == "sat"
    return session.extract_model()


def test_decode_fig1_forced_rows(fig1):
    model = _solve_eager(fig1)
    tables = {t.symbol.name: t for t in decode_solution(model, fig1)}
    f_b = tables["f_b"]
    assert f_b.lookup((0, 0)) == 0
    assert f_b.lookup((0, 1)) == 1
    assert f_b.lookup((1, 2)) == 2
    assert len(f_b.rows) == 16
    assert len(tables["f_a"].rows) == 64
    assert len(tables["f_c"].rows) == 4


def test_decode_then_verify_round_trip(fig1):
    model = _solve_eager(fig1)
    tables = decode_solution(model, fig1)
    assert verify_solution(fig1, tables).ok


def test_decode_constant_variable():
    a = NetworkVariable("a", bounded_int(0, 3))
    b = NetworkVariable("b", bounded_int(0, 3))
    problem = InferenceProblem(
        [a, b],
        [Regulation(a, b)],
        [FixedPointObservation.of([(a, 1), (b, 2)])],
    )
    formula, spec = encode_inference(problem)
    session = InternalSession()
    session.assert_formula(encode_eager(formula, spec).formula)
    assert session.check_sat() == "sat"
    tables = {t.symbol.name: t for t in decode_solution(session.extract_model(), problem)}
    assert tables["f_a"].rows == {(): 1}


def test_decode_rejects_unbounded():
    from monoinfer.terms import INT

    v = NetworkVariable("v", INT)
    problem = InferenceProblem([v], [Regulation(v, v)], [])
    with pytest.raises(ProblemError):
        decode_solution(Model(), problem)


# -- verification against the worked admissible solution ----------------------------------------


def _intro_solution_tables(fig1):
    names = _fig1_vars(fig1)
    signature = fig1.signature
    domain = range(4)

    def f_a(a, b, c):
        return max(0, 3 - b) if a == 1 else max(0, c - b)

    rows_a = {
        (a, b, c): min(3, f_a(a, b, c))
        for a, b, c in itertools.product(domain, repeat=3)
    }
    rows_b = {(a, c): max(a, c) for a, c in itertools.product(domain, repeat=2)}
    rows_c = {(b,): b for b in domain}
    return [
        UpdateFunctionTable(signature[names["a"]], rows_a),
        UpdateFunctionTable(signature[names["b"]], rows_b),
        UpdateFunctionTable(signature[names["c"]], rows_c),
    ]


def test_intro_solution_passes_verification(fig1):
    assert verify_solution(fig1, _intro_solution_tables(fig1)).ok


def test_verify_catches_order_inversion(fig1):
    tables = _intro_solution_tables(fig1)
    f_c = tables[2]
    rows = dict(f_c.rows)
    rows[(0,)], rows[(1,)] = 1, 0
    tables[2] = UpdateFunctionTable(f_c.symbol, rows)
    result = verify_solution(fig1, tables)
    assert not result.ok
    assert result.violation.kind == "monotonicity"
    assert "(0,)" in result.violation.detail and "(1,)" in result.violation.detail


def test_verify_catches_missing_essentiality(fig1):
    tables = _intro_solution_tables(fig1)
    f_b = tables[1]
    constant_rows = {point: 0 for point in f_b.rows}
    tables[1] = UpdateFunctionTable(f_b.symbol, constant_rows)
    result = verify_solution(fig1, tables)
    assert not result.ok
    assert result.violation.kind in ("essentiality", "fixed-point")


def test_verify_catches_broken_fixed_point(fig1):
    tables = _intro_solution_tables(fig1)
    f_c = tables[2]
    rows = dict(f_c.rows)
    rows[(2,)] = 3  # breaks F3 = (1, 2, 2) while staying monotone
    tables[2] = UpdateFunctionTable(f_c.symbol, rows)
    result = verify_solution(fig1, tables)
    assert not result.ok
    assert result.violation.kind == "fixed-point"


def _shuffled(table, seed):
    rows = list(table.rows.items())
    random.Random(seed).shuffle(rows)
    return UpdateFunctionTable(table.symbol, dict(rows))


def test_table_from_shuffled_rows_matches_grid_order(fig1):
    tables = _intro_solution_tables(fig1)
    inverted = dict(tables[2].rows)
    inverted[(0,)], inverted[(1,)] = 1, 0
    broken = tables[:2] + [UpdateFunctionTable(tables[2].symbol, inverted)]
    for seed, grid_order in enumerate((tables, broken)):
        shuffled = [_shuffled(t, seed) for t in grid_order]
        assert shuffled == grid_order
        for table, other in zip(grid_order, shuffled):
            assert list(other.rows.items()) == list(table.rows.items())
            assert all(other.lookup(point) == out for point, out in table.rows.items())
            assert UpdateFunctionTable.from_outputs(table.symbol, other.outputs) == table
        assert verify_solution(fig1, shuffled) == verify_solution(fig1, grid_order)
    assert not verify_solution(fig1, broken).ok


def test_table_rejects_missing_row_and_foreign_output(fig1):
    f_c = _intro_solution_tables(fig1)[2]
    rows = dict(f_c.rows)
    del rows[(2,)]
    with pytest.raises(ProblemError, match="has 3 rows, expected 4"):
        UpdateFunctionTable(f_c.symbol, rows)
    rows[(7,)] = 2  # the right count, but one point off the grid
    with pytest.raises(ProblemError, match="no row"):
        UpdateFunctionTable(f_c.symbol, rows)
    rows = dict(f_c.rows)
    rows[(2,)] = 4
    with pytest.raises(ProblemError, match="outside the target domain"):
        UpdateFunctionTable(f_c.symbol, rows)
    with pytest.raises(ProblemError, match="outside the target domain"):
        UpdateFunctionTable.from_outputs(f_c.symbol, [0, 1, 2, -1])
    with pytest.raises(ProblemError, match="has 3 rows, expected 4"):
        UpdateFunctionTable.from_outputs(f_c.symbol, [0, 1, 2])


def _all_pairs_verdict(problem, table):
    """Sign and essentiality of the last variable's regulations, checked on
    every pair of rows that differ at one position."""
    target = problem.variables[-1]
    rows = table.rows
    for i, reg in enumerate(problem.inputs[target]):
        pairs = [
            (p, q)
            for p, q in itertools.product(rows, repeat=2)
            if p[i] < q[i] and p[:i] + p[i + 1 :] == q[:i] + q[i + 1 :]
        ]
        if reg.sign == Sign.MONOTONE and any(rows[p] > rows[q] for p, q in pairs):
            return "monotonicity"
        if reg.sign == Sign.ANTI_MONOTONE and any(rows[p] < rows[q] for p, q in pairs):
            return "monotonicity"
        if reg.essential and all(rows[p] == rows[q] for p, q in pairs):
            return "essentiality"
    return "ok"


@st.composite
def _verify_case(draw, max_regulators=3):
    # one target with 1..max_regulators regulators over Bool or 0..3; the
    # regulators are constant, so only the target's regulations can be violated
    domains = st.sampled_from([BOOL, bounded_int(0, 3)])
    sources = [
        NetworkVariable(f"r{i}", draw(domains))
        for i in range(draw(st.integers(1, max_regulators)))
    ]
    target = NetworkVariable("t", draw(domains))
    regulations = [
        Regulation(s, target, draw(st.sampled_from(Sign.ALL)), draw(st.booleans()))
        for s in sources
    ]
    problem = InferenceProblem(sources + [target], regulations, [])
    func = problem.signature[target]
    grid = list(itertools.product(*(s.values() for s in func.arg_sorts)))
    outputs = draw(
        st.lists(st.sampled_from(target.values()), min_size=len(grid), max_size=len(grid))
    )
    tables = [UpdateFunctionTable(problem.signature[s], {(): s.values()[0]}) for s in sources]
    tables.append(UpdateFunctionTable(func, dict(zip(grid, outputs))))
    return problem, tables


@settings(max_examples=300, deadline=None)
@given(_verify_case())
def test_verify_agrees_with_all_pairs_check(case):
    problem, tables = case
    result = verify_solution(problem, tables)
    kind = "ok" if result.ok else result.violation.kind
    assert kind == _all_pairs_verdict(problem, tables[-1])


def _neighbour_steps(table, position):
    """The steps along `position` as (point, out, point', out'), where point'
    holds the next larger value there, found by walking the rows in grid
    order and building each neighbour point."""
    i = position - 1
    values = table.symbol.arg_sorts[i].values()
    rows = table.rows
    steps = []
    for p, out in rows.items():
        if p[i] != values[-1]:
            q = p[:i] + (values[values.index(p[i]) + 1],) + p[i + 1 :]
            steps.append((p, out, q, rows[q]))
    return steps


@settings(max_examples=200, deadline=None)
@given(_verify_case(max_regulators=5))
def test_strided_step_checks_agree_with_neighbour_walk(case):
    # up to five regulators, so both ways of slicing the steps are taken
    # with strides above 1; every position is checked under both signs
    table = case[1][-1]
    for position in range(1, table.symbol.arity + 1):
        steps = _neighbour_steps(table, position)
        for sign, broken in ((Sign.MONOTONE, operator.gt), (Sign.ANTI_MONOTONE, operator.lt)):
            first = next((step for step in steps if broken(step[1], step[3])), None)
            assert network._sign_violation(table, position, sign) == first
        assert network._is_essential(table, position) == any(s[1] != s[3] for s in steps)


# -- propagation equivalence ------------------------------------------------------------------


def test_simplification_equivalence_on_fig1(fig1):
    for simplify in (True, False):
        formula, spec = encode_inference(fig1, simplify=simplify)
        session = InternalSession()
        session.assert_formula(encode_eager(formula, spec).formula)
        assert session.check_sat() == "sat"


def test_simplification_equivalence_unsat_case(fig1):
    names = _fig1_vars(fig1)
    extra = FixedPointObservation.of(
        [(names["a"], 0), (names["b"], 0), (names["c"], 1)]
    )
    problem = InferenceProblem(
        fig1.variables, fig1.regulations, fig1.observations + [extra]
    )
    for simplify in (True, False):
        formula, spec = encode_inference(problem, simplify=simplify)
        session = InternalSession()
        session.assert_formula(encode_eager(formula, spec).formula)
        assert session.check_sat() == "unsat"


# -- domains too large to list ----------------------------------------------------------------


def _huge_problem_text(a_value):
    # 10**15 + 1 values for a: listing them would take petabytes, and the
    # quantified encodings range over them as b's argument
    return (
        "monoinfer-problem 1\nvariables\n  a int 0..1000000000000000\n  b bool\nend\n"
        "regulations\n  b -> a sign=mono\n  a -> b sign=mono\nend\n"
        f"observations\n  F1 {{ a={a_value} }}\n  F2 {{ b=1 }}\nend\n"
    )


def test_huge_bounded_domain_is_counted_not_listed():
    with pytest.raises(ProblemParseError, match="outside the domain of a"):
        parse_problem(_huge_problem_text(10**15 + 1))
    problem = parse_problem(_huge_problem_text(10**15))
    formula, spec = encode_inference(problem)
    for strategy in Strategy:
        verdict = solve(encode(formula, spec, strategy), spec, InternalSession())
        if strategy in (Strategy.QUANT_INDIVIDUAL, Strategy.QUANT_AGGREGATED):
            assert verdict.kind == "unknown"
            assert "quantifier expansion budget exceeded" in verdict.reason
        else:
            assert verdict.is_sat
    # F2 leaves a free: its extensions are counted against the budget
    with pytest.raises(OracleBudgetError):
        oracle_inference(problem)
