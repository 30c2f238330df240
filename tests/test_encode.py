import itertools
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import SessionLoopSession, subterms
from monoinfer import encode as encode_module
from monoinfer.encode import (
    EncodingError,
    LazyRunStats,
    Strategy,
    eager_lemma_count,
    encode,
    encode_eager,
    encode_quant_aggregated,
    encode_quant_individual,
    ground_lemmas,
    lemma_pairs,
    monotonicity_lemma,
    solve,
    solve_lazy,
)
from monoinfer.generate import GeneratorParams, generate_instance
from monoinfer.model import Model, FunctionTable, evaluate
from monoinfer.network import encode_inference
from monoinfer.engine import Engine
from monoinfer.session import TIMEOUT, InternalSession, SolverSession
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
    bounded_int,
    is_quantifier_free,
    iter_subterms,
    mk_and,
)


def _conjuncts(term):
    return list(term.args) if isinstance(term, And) else [term]


# -- quantified individual ---------------------------------------------------------


def test_quant_individual_running_example(ex1):
    enc = encode_quant_individual(ex1.phi, ex1.spec)
    parts = _conjuncts(enc.formula)
    assert parts[0] == ex1.phi
    quants = [p for p in parts[1:] if isinstance(p, Forall)]
    assert len(quants) == 3  # psi^f_1, psi^f_2, psi^g_1
    assert enc.lemma_count == 3
    assert enc.strategy is Strategy.QUANT_INDIVIDUAL


def test_quant_individual_relaxed_drops_anti_axiom(ex1):
    enc = encode_quant_individual(ex1.phi, ex1.spec_relaxed)
    quants = [p for p in _conjuncts(enc.formula) if isinstance(p, Forall)]
    assert len(quants) == 2
    assert enc.lemma_count == 2


def test_quant_individual_empty_spec_is_identity(ex1):
    empty = MonotonicitySpec({ex1.f: (set(), set()), ex1.g: (set(), set())})
    enc = encode_quant_individual(ex1.phi, empty)
    assert enc.formula == ex1.phi
    assert enc.lemma_count == 0


def test_quant_individual_axiom_shape():
    g = FunctionSymbol("g", [INT], INT)
    phi = Cmp(CmpOp.EQ, Apply(g, (IntLit(0),)), IntLit(0))
    enc = encode_quant_individual(phi, MonotonicitySpec({g: ({1}, set())}))
    axiom = _conjuncts(enc.formula)[1]
    assert isinstance(axiom, Forall) and len(axiom.bound) == 2
    body = axiom.body
    assert isinstance(body, Implies)
    x, y = axiom.bound
    assert body.lhs == Cmp(CmpOp.LE, x, y)
    assert body.rhs == Cmp(CmpOp.LE, Apply(g, (x,)), Apply(g, (y,)))


def test_quant_individual_anti_axiom_reverses_consequent():
    g = FunctionSymbol("g", [INT], INT)
    phi = Cmp(CmpOp.EQ, Apply(g, (IntLit(0),)), IntLit(0))
    enc = encode_quant_individual(phi, MonotonicitySpec({g: (set(), {1})}))
    axiom = _conjuncts(enc.formula)[1]
    x, y = axiom.bound
    assert axiom.body.rhs == Cmp(CmpOp.LE, Apply(g, (y,)), Apply(g, (x,)))


# -- quantified aggregated ------------------------------------------------------------


def test_quant_aggregated_antecedent_shape():
    f = FunctionSymbol("f", [INT, INT], INT)
    phi = Cmp(CmpOp.EQ, Apply(f, (IntLit(0), IntLit(0))), IntLit(0))
    enc = encode_quant_aggregated(phi, MonotonicitySpec({f: ({1}, {2})}))
    axiom = _conjuncts(enc.formula)[1]
    assert isinstance(axiom, Forall) and len(axiom.bound) == 4
    x1, x2, y1, y2 = axiom.bound
    antecedent = axiom.body.lhs
    assert antecedent == And([Cmp(CmpOp.LE, x1, y1), Cmp(CmpOp.LE, y2, x2)])
    assert enc.lemma_count == 1


def test_quant_aggregated_vacuous_spec_emits_nothing():
    f = FunctionSymbol("f", [INT], INT)
    phi = Cmp(CmpOp.EQ, Apply(f, (IntLit(0),)), IntLit(0))
    enc = encode_quant_aggregated(phi, MonotonicitySpec({f: (set(), set())}))
    assert enc.formula == phi
    assert enc.lemma_count == 0


def test_quant_aggregated_arity_one_matches_individual():
    g = FunctionSymbol("g", [INT], INT)
    phi = Cmp(CmpOp.EQ, Apply(g, (IntLit(0),)), IntLit(0))
    spec = MonotonicitySpec({g: ({1}, set())})
    agg = _conjuncts(encode_quant_aggregated(phi, spec).formula)[1]
    assert isinstance(agg, Forall) and len(agg.bound) == 2
    x, y = agg.bound
    assert agg.body == Implies(
        Cmp(CmpOp.LE, x, y), Cmp(CmpOp.LE, Apply(g, (x,)), Apply(g, (y,)))
    )


def test_aggregated_unconstrained_args_pinned_equal():
    f = FunctionSymbol("f", [INT, INT, INT], INT)
    phi = Cmp(CmpOp.EQ, Apply(f, (IntLit(0),) * 3), IntLit(0))
    enc = encode_quant_aggregated(phi, MonotonicitySpec({f: ({3}, set())}))
    axiom = _conjuncts(enc.formula)[1]
    antecedent = axiom.body.lhs
    xs, ys = axiom.bound[:3], axiom.bound[3:]
    assert antecedent == And(
        [
            Cmp(CmpOp.LE, xs[2], ys[2]),
            Cmp(CmpOp.EQ, xs[0], ys[0]),
            Cmp(CmpOp.EQ, xs[1], ys[1]),
        ]
    )


# -- ground lemmas ---------------------------------------------------------------------


def test_lemma_ground_instance_shape(ex1):
    t = (ex1.c1, IntLit(2))
    s = (Add(ex1.c1, IntLit(5)), IntLit(0))
    lemma = monotonicity_lemma(ex1.f, t, s, ex1.spec)
    expected = Implies(
        And(
            [
                Cmp(CmpOp.LE, ex1.c1, Add(ex1.c1, IntLit(5))),
                Cmp(CmpOp.LE, IntLit(0), IntLit(2)),
            ]
        ),
        Cmp(CmpOp.LE, ex1.f_app1, ex1.f_app2),
    )
    assert lemma == expected


def test_lemma_vacuous_under_relaxed_spec(ex1):
    t = (ex1.c1, IntLit(2))
    s = (Add(ex1.c1, IntLit(5)), IntLit(0))
    lemma = monotonicity_lemma(ex1.f, t, s, ex1.spec_relaxed)
    # unconstrained second argument pins 2 = 0, which folds false
    assert Cmp(CmpOp.EQ, IntLit(2), IntLit(0)) in subterms(lemma)


def test_vacuous_lemma_true_under_every_model(ex1):
    t = (ex1.c1, IntLit(2))
    s = (Add(ex1.c1, IntLit(5)), IntLit(0))
    lemma = monotonicity_lemma(ex1.f, t, s, ex1.spec_relaxed)
    for c1v in range(-3, 4):
        for out1 in (-2, 0, 5):
            model = Model(
                {"c1": c1v},
                {"f": FunctionTable({}, out1)},
            )
            assert evaluate(lemma, model) is True


def test_lemma_reflexive_at_identical_vectors(ex1):
    t = (ex1.c1, IntLit(2))
    lemma = monotonicity_lemma(ex1.f, t, t, ex1.spec)
    assert lemma == Implies(
        And(
            [
                Cmp(CmpOp.LE, ex1.c1, ex1.c1),
                Cmp(CmpOp.LE, IntLit(2), IntLit(2)),
            ]
        ),
        Cmp(CmpOp.LE, ex1.f_app1, ex1.f_app1),
    )


def test_lemma_arity_mismatch(ex1):
    with pytest.raises(EncodingError):
        monotonicity_lemma(ex1.f, (ex1.c1,), (ex1.c1, IntLit(0)), ex1.spec)


def test_boolean_lemma_uses_implications():
    p = FunctionSymbol("p", [BOOL], BOOL)
    t, s = (BoolLit(False),), (BoolLit(True),)
    lemma = monotonicity_lemma(p, t, s, MonotonicitySpec({p: ({1}, set())}))
    assert lemma == Implies(
        Implies(BoolLit(False), BoolLit(True)),
        Implies(Apply(p, t), Apply(p, s)),
    )


# -- eager instantiation -----------------------------------------------------------------


def test_eager_running_example_emits_four_lemmas(ex1):
    enc = encode_eager(ex1.phi, ex1.spec)
    assert enc.lemma_count == 4
    lemmas = _conjuncts(enc.formula)[1:]
    assert len(lemmas) == 4
    # two ordered f pairs then two ordered g pairs, in occurrence order
    assert lemmas[0].rhs == Cmp(CmpOp.LE, ex1.f_app1, ex1.f_app2)
    assert lemmas[1].rhs == Cmp(CmpOp.LE, ex1.f_app2, ex1.f_app1)
    assert lemmas[2] == Implies(
        Cmp(CmpOp.LE, ex1.c2, IntLit(4)), Cmp(CmpOp.LE, ex1.g_app1, ex1.g_app2)
    )
    assert lemmas[3] == Implies(
        Cmp(CmpOp.LE, IntLit(4), ex1.c2), Cmp(CmpOp.LE, ex1.g_app2, ex1.g_app1)
    )


def test_eager_single_application_no_lemmas():
    g = FunctionSymbol("g", [INT], INT)
    phi = Cmp(CmpOp.EQ, Apply(g, (IntLit(0),)), IntLit(1))
    enc = encode_eager(phi, MonotonicitySpec({g: ({1}, set())}))
    assert enc.lemma_count == 0
    assert enc.formula == phi


def test_eager_three_applications_six_ordered_pairs():
    g = FunctionSymbol("g", [INT], INT)
    apps = [Apply(g, (IntLit(i),)) for i in range(3)]
    phi = mk_and([Cmp(CmpOp.EQ, a, IntLit(0)) for a in apps])
    spec = MonotonicitySpec({g: ({1}, set())})
    # independent oracle: enumerate ordered pairs off the diagonal
    vectors = [(IntLit(i),) for i in range(3)]
    expected = {
        monotonicity_lemma(g, t, s, spec)
        for t, s in itertools.permutations(vectors, 2)
    }
    assert len(expected) == 6
    enc = encode_eager(phi, spec)
    assert enc.lemma_count == 6
    assert set(_conjuncts(enc.formula)[1:]) == expected
    assert eager_lemma_count(phi, spec) == 6


def test_eager_rejects_quantified_input(ex1):
    from monoinfer.terms import Forall, Var

    x = Var("x", INT)
    phi = Forall([x], Cmp(CmpOp.LE, x, x))
    with pytest.raises(EncodingError):
        encode_eager(phi, ex1.spec)
    with pytest.raises(EncodingError):
        encode(phi, ex1.spec, Strategy.INST_EAGER)


def _mixed_lemma_problem(unsat):
    """Boolean, order-encoded and difference-logic symbols with monotone,
    anti-monotone and unsigned arguments of both sorts."""
    dom = bounded_int(0, 3)
    g = FunctionSymbol("g", [BOOL, BOOL, BOOL], BOOL)
    h = FunctionSymbol("h", [dom, dom, dom], dom)
    m = FunctionSymbol("m", [BOOL, dom], BOOL)
    k = FunctionSymbol("k", [INT, INT], INT)
    a, b, c = (Const(n, BOOL) for n in "abc")
    x, y, z = (Const(n, dom) for n in "xyz")
    u, v = Const("u", INT), Const("v", INT)
    gs = [Apply(g, (a, b, c)), Apply(g, (b, a, c)), Apply(g, (BoolLit(True), b, BoolLit(False)))]
    hs = [Apply(h, (x, y, z)), Apply(h, (y, x, z)), Apply(h, (IntLit(1), y, IntLit(2)))]
    ms = [Apply(m, (a, x)), Apply(m, (b, y)), Apply(m, (c, IntLit(0)))]
    ks = [Apply(k, (u, v)), Apply(k, (v, u))]
    base = [gs[0], Not(gs[1]), gs[2], ms[0], Not(ms[1]), Not(ms[2]), Cmp(CmpOp.LT, ks[0], ks[1])]
    base += [Cmp(CmpOp.LE, hs[2], z)]
    if unsat:  # the lemma at (y, x, z), (x, y, z) forbids h(x, y, z) < h(y, x, z)
        base += [Cmp(CmpOp.LT, hs[0], hs[1]), Cmp(CmpOp.LE, y, x)]
    else:
        base += [Cmp(CmpOp.LT, hs[1], hs[0])]
    spec = MonotonicitySpec(
        {g: ({1}, {2}), h: ({1}, {2}), m: ({2}, set()), k: (set(), {2})}
    )
    return mk_and(base), spec


@pytest.mark.parametrize("unsat", [False, True])
def test_eager_pair_path_grounds_as_the_term_path(unsat):
    formula, spec = _mixed_lemma_problem(unsat)
    by_pairs = InternalSession()
    verdict = solve(encode(formula, spec, Strategy.INST_EAGER), spec, by_pairs)
    by_terms = InternalSession()
    by_terms.assert_formula(encode_eager(formula, spec).formula)
    assert verdict.kind == by_terms.check_sat() == ("unsat" if unsat else "sat")
    engines = by_pairs.engine, by_terms.engine
    assert engines[0].sat.num_vars == engines[1].sat.num_vars
    # the same input clauses, in the same order
    inputs = [
        [clause for clause, learned in zip(e.sat.clauses, e.sat.is_learned) if not learned]
        for e in engines
    ]
    assert inputs[0] == inputs[1]


def test_eager_pair_grounding_stops_at_the_deadline(monkeypatch):
    formula, spec = _mixed_lemma_problem(False)
    session = InternalSession()
    grounded = []
    monkeypatch.setattr(session.engine, "assert_lemma", lambda *args: grounded.append(args))
    session.set_time_limit(0)  # expired before the first lemma
    verdict = solve(encode(formula, spec, Strategy.INST_EAGER), spec, session)
    assert verdict.kind == "unknown" and verdict.reason == "timeout"
    assert grounded == []
    assert eager_lemma_count(formula, spec) > 0


def test_eager_count_invariant_on_example(ex1):
    # sum over constrained symbols of n*(n-1)
    assert eager_lemma_count(ex1.phi, ex1.spec) == 2 * 1 + 2 * 1


# generated instances for the shared lemma Terms: Boolean with a symbol of
# arity 6, and multivalued over the domain 0..2
_LEMMA_SET_INSTANCES = {
    "boolean": (1, GeneratorParams(n_vars=8, max_arity=6, essential_ratio=1.0)),
    "multivalued": (3, GeneratorParams(n_vars=6, max_arity=3, domain_size=3, essential_ratio=1.0)),
}


def _lemma_set_instance(kind):
    seed, params = _LEMMA_SET_INSTANCES[kind]
    return encode_inference(generate_instance(seed, params))


def _antecedent(lemma):
    return lemma.lhs.args if isinstance(lemma.lhs, And) else (lemma.lhs,)


@pytest.mark.parametrize("kind", sorted(_LEMMA_SET_INSTANCES))
def test_ground_lemmas_equal_the_lemma_of_each_pair(kind):
    formula, spec = _lemma_set_instance(kind)
    pairs = list(lemma_pairs(formula, spec))
    if kind == "boolean":
        assert max(t.func.arity for t, _ in pairs) >= 6
    lemmas = ground_lemmas(formula, spec)
    expected = [monotonicity_lemma(t.func, t.args, s.args, spec) for t, s in pairs]
    assert lemmas == expected
    assert list(map(repr, lemmas)) == list(map(repr, expected))


@pytest.mark.parametrize("kind", sorted(_LEMMA_SET_INSTANCES))
def test_ground_lemmas_share_atoms_and_applications(kind):
    formula, spec = _lemma_set_instance(kind)
    pairs = list(lemma_pairs(formula, spec))
    lemmas = ground_lemmas(formula, spec)
    # the consequent compares the pair's own applications
    for (t, s), lemma in zip(pairs, lemmas):
        assert lemma.rhs.lhs is t and lemma.rhs.rhs is s
    # each distinct comparison is one object, held by every lemma using it
    held = {}
    for lemma in lemmas:
        for atom in _antecedent(lemma):
            held.setdefault(atom, []).append(atom)
    assert all(atom is group[0] for group in held.values() for atom in group)
    assert max(len(group) for group in held.values()) > 1


@pytest.mark.parametrize("kind", sorted(_LEMMA_SET_INSTANCES))
def test_eager_shared_terms_ground_as_unshared(kind):
    formula, spec = _lemma_set_instance(kind)
    pairs = lemma_pairs(formula, spec)
    unshared = [monotonicity_lemma(t.func, t.args, s.args, spec) for t, s in pairs]
    engines = Engine(), Engine()
    engines[0].assert_term(encode_eager(formula, spec).formula)
    engines[1].assert_term(mk_and([formula] + unshared))
    assert engines[0].sat.num_vars == engines[1].sat.num_vars
    assert engines[0].sat.clauses == engines[1].sat.clauses


def test_eager_formula_nodes_bounded_by_shared_parts():
    # a rebuilt application or atom per lemma breaks the bound
    formula, spec = _lemma_set_instance("boolean")
    encoded = encode_eager(formula, spec)
    lemmas = encoded.formula.args[1:]
    assert len(lemmas) == encoded.lemma_count > 0
    base = len({id(t) for t in iter_subterms(formula)})
    atoms = len({atom for lemma in lemmas for atom in _antecedent(lemma)})
    nodes = len({id(t) for t in iter_subterms(encoded.formula)})
    # the root conjunction; per lemma its implication, antecedent conjunction
    # and consequent
    assert nodes <= base + 1 + 3 * len(lemmas) + atoms


# -- violated lemmas ------------------------------------------------------------------------


def _ex1_model(c1, c2, f_outs, g_outs):
    """A model of the running example's leaves: f at (c1, 2) and (c1 + 5, 0),
    g at (c2,) and (4,)."""
    return Model(
        {"c1": c1, "c2": c2},
        {
            "f": FunctionTable(dict(zip([(c1, 2), (c1 + 5, 0)], f_outs)), min(f_outs)),
            "g": FunctionTable(dict(zip([(c2,), (4,)], g_outs)), min(g_outs)),
        },
    )


def violated_lemmas(formula, spec, model):
    """Candidate lemmas falsified by the model (antecedent holds, consequent
    fails under the sort's order), found as the lazy loop finds them.  The
    model must value every constant the candidates' arguments mention and
    hold a table for every constrained symbol applied twice."""
    index = encode_module._application_index(formula, spec)
    pairs = encode_module._violated_pairs(index, spec, model, set())
    return {monotonicity_lemma(t.func, t.args, s.args, spec) for t, s in pairs}


def test_violated_lemmas_all_equal_valuation(ex1):
    model = _ex1_model(0, 0, [1, 1], [1, 1])
    assert violated_lemmas(ex1.phi, ex1.spec, model) == set()


def test_violated_lemmas_relaxed_model_has_none(ex1):
    # c1=6, c2=0, f(6,2)=4, f(11,0)=0, g(0)=1, g(4)=2 satisfies every
    # relaxed-specification lemma
    model = _ex1_model(6, 0, [4, 0], [1, 2])
    assert violated_lemmas(ex1.phi, ex1.spec_relaxed, model) == set()
    # under the strict specification the f-pair lemma is violated instead
    violated = violated_lemmas(ex1.phi, ex1.spec, model)
    assert len(violated) == 1


def test_violated_lemmas_decreasing_g():
    g = FunctionSymbol("g", [INT], INT)
    c2 = Const("c2", INT)
    g1, g2 = Apply(g, (c2,)), Apply(g, (IntLit(4),))
    phi = And(
        [Cmp(CmpOp.EQ, g1, IntLit(5)), Cmp(CmpOp.EQ, g2, IntLit(1))]
    )
    spec = MonotonicitySpec({g: ({1}, set())})
    model = Model({"c2": 0}, {"g": FunctionTable({(0,): 5, (4,): 1}, 1)})
    violated = violated_lemmas(phi, spec, model)
    expected = monotonicity_lemma(g, (c2,), (IntLit(4),), spec)
    assert violated == {expected}


def test_violated_lemmas_missing_entry(ex1):
    from monoinfer.model import EvaluationError

    full = _ex1_model(0, 0, [1, 1], [1, 1])
    no_c2 = Model({"c1": 0}, full.functions)
    no_g = Model(full.constants, {"f": full.functions["f"]})
    for model in (Model({"c1": 0}), no_c2, no_g):
        with pytest.raises(EvaluationError):
            violated_lemmas(ex1.phi, ex1.spec, model)


_SORTS = {"int": INT, "bounded": bounded_int(0, 3), "bool": BOOL}


@st.composite
def _lemma_case(draw):
    """A symbol with signed and unsigned positions over Int, bounded-Int and
    Bool sorts, two argument vectors mixing literals, constants and compound
    components, and a model valuing every leaf."""
    arity = draw(st.integers(1, 3))
    sorts = [_SORTS[draw(st.sampled_from(sorted(_SORTS)))] for _ in range(arity)]
    result_sort = _SORTS[draw(st.sampled_from(sorted(_SORTS)))]
    roles = [draw(st.sampled_from(["mono", "anti", "unsigned"])) for _ in range(arity)]
    func = FunctionSymbol("f", sorts, result_sort)
    spec = MonotonicitySpec(
        {
            func: (
                {i + 1 for i, r in enumerate(roles) if r == "mono"},
                {i + 1 for i, r in enumerate(roles) if r == "anti"},
            )
        }
    )

    def domain(sort):
        return st.booleans() if sort.is_bool else st.integers(-1, 4)

    constants = {}
    for i, sort in enumerate(sorts):
        for name in ("a", "b"):
            constants[f"{name}{i}"] = draw(domain(sort))

    def component(i, sort):
        kind = draw(st.sampled_from(["literal", "const", "compound"]))
        const = Const(draw(st.sampled_from(["a", "b"])) + str(i), sort)
        if kind == "literal":
            value = draw(domain(sort))
            return BoolLit(value) if sort.is_bool else IntLit(value)
        if kind == "compound" and not sort.is_bool:
            return Add(const, IntLit(draw(st.integers(-2, 5))))  # like c1 + 5
        return const

    t = tuple(component(i, s) for i, s in enumerate(sorts))
    s_vec = tuple(component(i, s) for i, s in enumerate(sorts))
    assume(t != s_vec)
    probe = Model(constants, {})
    points = [tuple(evaluate(a, probe) for a in vec) for vec in (t, s_vec)]
    outs = [draw(domain(result_sort)) for _ in points]
    if points[0] == points[1]:
        outs[1] = outs[0]  # one table row per point
    table = FunctionTable(dict(zip(points, outs)), outs[0])
    return func, spec, t, s_vec, Model(constants, {"f": table})


@settings(max_examples=300, deadline=None)
@given(_lemma_case())
def test_value_level_check_agrees_with_lemma_evaluation(case):
    func, spec, t, s, model = case
    phi = Cmp(CmpOp.EQ, Apply(func, t), Apply(func, s))
    violated = violated_lemmas(phi, spec, model)
    for a, b in ((t, s), (s, t)):
        lemma = monotonicity_lemma(func, a, b, spec)
        assert (lemma in violated) == (not evaluate(lemma, model))


# -- lazy loop --------------------------------------------------------------------------------


def test_lazy_running_example_verdicts(ex1):
    stats = LazyRunStats()
    verdict = solve_lazy(ex1.phi, ex1.spec, InternalSession(), stats)
    assert verdict.is_unsat
    assert stats.check_sat_calls <= eager_lemma_count(ex1.phi, ex1.spec) + 1

    verdict2 = solve_lazy(ex1.phi, ex1.spec_relaxed, InternalSession())
    assert verdict2.is_sat


def test_lazy_empty_spec_single_check(ex1):
    empty = MonotonicitySpec({})
    stats = LazyRunStats()
    verdict = solve_lazy(ex1.phi, empty, InternalSession(), stats)
    assert verdict.is_sat
    assert stats.check_sat_calls == 1
    assert stats.asserted_lemmas == []


def test_lazy_asserted_lemmas_subset_of_eager(ex1):
    stats = LazyRunStats()
    solve_lazy(ex1.phi, ex1.spec, InternalSession(), stats)
    assert stats.asserted_lemmas
    assert set(stats.asserted_lemmas) <= set(lemma_pairs(ex1.phi, ex1.spec))


def _pinned_lazy_instance():
    # every regulation essential
    params = GeneratorParams(
        n_vars=6, max_arity=3, domain_size=3, n_observations=2, essential_ratio=1.0
    )
    return encode_inference(generate_instance(3, params))


def test_lazy_asserted_lemma_order_pinned():
    # the session-level loop: two checks, the lemmas the first model
    # violates asserted in one round
    formula, spec = _pinned_lazy_instance()
    stats = LazyRunStats()
    verdict = solve_lazy(formula, spec, SessionLoopSession(), stats)
    eager = list(lemma_pairs(formula, spec))
    assert len(eager) == len(ground_lemmas(formula, spec))
    assert verdict.is_sat
    # criterion 6's bounds hold whatever order the SAT search produces
    assert set(stats.asserted_lemmas) <= set(eager)
    assert stats.check_sat_calls <= eager_lemma_count(formula, spec) + 1
    assert stats.check_sat_calls == 2
    # each asserted pair's index among the eager pairs is its lemma's index
    # in ground_lemmas
    assert [eager.index(pair) for pair in stats.asserted_lemmas] == [
        0, 2, 19, 20, 33, 35, 47, 49, 54, 55, 56, 57, 58, 59, 61, 63, 89, 91, 92,
        103, 105, 107, 117, 119, 121, 139, 141, 159, 160, 169, 171, 174, 175, 176,
        177, 179, 181,
    ]


def test_lazy_in_engine_lemma_order_pinned():
    # the engine checks the lemmas in its theory rounds: one check, and
    # the pairs each round's model violates, in grounding order
    formula, spec = _pinned_lazy_instance()
    stats = LazyRunStats()
    session = InternalSession()
    verdict = solve_lazy(formula, spec, session, stats)
    eager = list(lemma_pairs(formula, spec))
    assert verdict.is_sat
    # criterion 6's bounds
    assert set(stats.asserted_lemmas) <= set(eager)
    assert stats.check_sat_calls <= eager_lemma_count(formula, spec) + 1
    assert stats.check_sat_calls == session.check_sat_count == 1
    assert [eager.index(pair) for pair in stats.asserted_lemmas] == [
        3, 5, 19, 20, 22, 33, 35, 36, 47, 49, 51, 54, 55, 56, 57, 58, 59, 61, 62,
        63, 64, 65, 66, 75, 76, 78, 89, 91, 92, 103, 105, 107, 117, 119, 121, 129,
        130, 139, 141, 159, 160, 169, 171, 174, 175, 176, 177, 179, 181, 189, 190,
        199, 201, 114, 97, 100, 101,
    ]


def test_lazy_in_engine_answers_timeout_at_the_deadline(monkeypatch):
    # the first round grounds violated pairs, then finds the deadline passed
    formula, spec = _pinned_lazy_instance()
    session = InternalSession()
    session.set_time_limit(500)
    ground = Engine._ground_broken_pairs

    def late(engine):
        broken = ground(engine)
        time.sleep(max(0.0, session._deadline - time.monotonic()) + 0.01)
        return broken

    monkeypatch.setattr(Engine, "_ground_broken_pairs", late)
    stats = LazyRunStats()
    verdict = solve_lazy(formula, spec, session, stats)
    assert verdict.kind == "unknown" and verdict.reason == TIMEOUT
    assert stats.check_sat_calls == 1
    assert stats.asserted_lemmas and session.engine.theory_rounds == 1


class _TermLemmaSession(SessionLoopSession):
    """The in-process engine under the session-level loop, fed each lemma as
    a Term through the default `SolverSession.assert_lemma`, as an external
    solver is."""

    assert_lemma = SolverSession.assert_lemma


def test_lazy_builds_only_the_lemmas_it_asserts(monkeypatch):
    params = GeneratorParams(
        n_vars=6, max_arity=3, domain_size=3, n_observations=2, essential_ratio=1.0
    )
    formula, spec = encode_inference(generate_instance(3, params))
    built = []

    def counting(*args):
        built.append(args)
        return monotonicity_lemma(*args)

    monkeypatch.setattr(encode_module, "monotonicity_lemma", counting)
    # in-process, a lemma is grounded from its two applications: no Term
    stats = LazyRunStats()
    assert solve_lazy(formula, spec, InternalSession(), stats).is_sat
    assert stats.asserted_lemmas
    assert built == []
    # through the default session method, one Term per asserted pair
    stats = LazyRunStats()
    assert solve_lazy(formula, spec, _TermLemmaSession(), stats).is_sat
    assert stats.asserted_lemmas
    assert len(built) == len(stats.asserted_lemmas)
    assert len(built) < eager_lemma_count(formula, spec)
    assert built == [(t.func, t.args, s.args, spec) for t, s in stats.asserted_lemmas]


def test_lazy_rejects_quantified_input(ex1):
    from monoinfer.terms import Forall, Var

    x = Var("x", INT)
    with pytest.raises(EncodingError):
        solve_lazy(Forall([x], Cmp(CmpOp.LE, x, x)), ex1.spec, InternalSession())


# -- strategy agreement on a small bounded formula ----------------------------------------------


def test_all_strategies_agree_on_bounded_formula():
    dom = bounded_int(0, 2)
    h = FunctionSymbol("h", [dom], dom)
    u = Const("u", dom)
    apps = [Apply(h, (IntLit(i),)) for i in (0, 2)]
    base = [
        Cmp(CmpOp.LE, IntLit(0), u),
        Cmp(CmpOp.LE, u, IntLit(2)),
        Cmp(CmpOp.EQ, apps[0], IntLit(2)),
        Cmp(CmpOp.EQ, apps[1], IntLit(0)),
    ]
    for t in apps:
        base += [Cmp(CmpOp.LE, IntLit(0), t), Cmp(CmpOp.LE, t, IntLit(2))]
    phi = mk_and(base)
    spec = MonotonicitySpec({h: ({1}, set())})  # h(0)=2 > h(2)=0 contradicts
    verdicts = [
        solve(encode(phi, spec, strategy), spec, InternalSession()).kind
        for strategy in Strategy
    ]
    assert verdicts == ["unsat"] * 4
