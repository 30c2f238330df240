import pytest
from hypothesis import given, settings, strategies as st

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
    Exists,
    Forall,
    FunctionSymbol,
    Implies,
    IntLit,
    MonotonicitySpec,
    Not,
    Or,
    SkolemizationError,
    SortError,
    TermError,
    Var,
    applications_of,
    bounded_int,
    check_symbol_name,
    check_term,
    free_vars,
    is_quantifier_free,
    iter_subterms,
    mk_and,
    ordering_atom,
    skolemize,
    subst_at,
    substitute,
    subterms,
)
from monoinfer.model import Model, FunctionTable, evaluate


def test_structural_equality_and_hashing():
    f = FunctionSymbol("f", [INT], INT)
    t1 = Apply(f, (Add(Const("c", INT), IntLit(5)),))
    t2 = Apply(f, (Add(Const("c", INT), IntLit(5)),))
    assert t1 == t2
    assert hash(t1) == hash(t2)
    assert t1 != Apply(f, (Const("c", INT),))
    assert len({t1, t2}) == 1


def test_sort_validation_at_construction():
    f = FunctionSymbol("f", [INT, BOOL], INT)
    with pytest.raises(SortError):
        Apply(f, (IntLit(1),))  # arity
    with pytest.raises(SortError):
        Apply(f, (BoolLit(True), IntLit(0)))  # argument sorts
    with pytest.raises(SortError):
        Add(IntLit(1), BoolLit(True))
    with pytest.raises(SortError):
        Cmp(CmpOp.LE, BoolLit(True), BoolLit(False))  # Boolean order needs ordering_atom
    with pytest.raises(SortError):
        Not(IntLit(3))
    with pytest.raises(SortError):
        Cmp(CmpOp.EQ, IntLit(0), BoolLit(False))


def test_bounded_sort():
    s = bounded_int(0, 3)
    assert s.values() == [0, 1, 2, 3]
    assert s.is_bounded and s.same_kind(INT) and s != INT
    assert BOOL.values() == [False, True]
    with pytest.raises(SortError):
        bounded_int(2, 1)


def test_reserved_prefix_rejected():
    with pytest.raises(TermError):
        check_symbol_name("!sk0")
    with pytest.raises(TermError):
        check_symbol_name("!aux_x")
    with pytest.raises(TermError):
        check_symbol_name("3abc")
    assert check_symbol_name("f_a") == "f_a"


# -- subst_at -------------------------------------------------------------------


def test_subst_at_definition_instance():
    a, b, c, y = (Const(n, INT) for n in "abcy")
    assert subst_at((a, b, c), 2, y) == (a, y, c)


def test_subst_at_running_example():
    c1 = Const("c1", INT)
    vec = (c1, IntLit(2))
    assert subst_at(vec, 2, IntLit(0)) == (c1, IntLit(0))


def test_subst_at_identity():
    x = Const("x", INT)
    assert subst_at((x,), 1, x) == (x,)


def test_subst_at_errors():
    x = Const("x", INT)
    with pytest.raises(IndexError):
        subst_at((x,), 2, x)
    with pytest.raises(IndexError):
        subst_at((x,), 0, x)
    with pytest.raises(SortError):
        subst_at((x,), 1, BoolLit(True))


def test_subst_at_round_trip():
    vec = (Const("a", INT), IntLit(7), Const("b", INT))
    for i in (1, 2, 3):
        replaced = subst_at(vec, i, IntLit(99))
        assert subst_at(replaced, i, vec[i - 1]) == vec


# -- subterms / applications -----------------------------------------------------


def test_subterms_structural():
    f = FunctionSymbol("f", [INT, INT], INT)
    c1 = Const("c1", INT)
    app = Apply(f, (c1, IntLit(2)))
    phi = Cmp(CmpOp.EQ, app, IntLit(4))
    assert subterms(phi) == {phi, app, c1, IntLit(2), IntLit(4)}


def test_subterms_leaf():
    c = Const("c", INT)
    assert subterms(c) == {c}


def test_example1_application_counts(ex1):
    apps_f = applications_of(ex1.phi, ex1.f)
    apps_g = applications_of(ex1.phi, ex1.g)
    assert apps_f == {(ex1.c1, IntLit(2)), (Add(ex1.c1, IntLit(5)), IntLit(0))}
    assert apps_g == {(ex1.c2,), (IntLit(4),)}


def test_applications_absent_symbol(ex1):
    h = FunctionSymbol("h", [INT], INT)
    assert applications_of(ex1.phi, h) == set()


def test_applications_deduplicate():
    f = FunctionSymbol("f", [INT], BOOL)
    app = Apply(f, (IntLit(0),))
    assert applications_of(And([app, app]), f) == {(IntLit(0),)}


def test_applications_traverse_quantifiers():
    f = FunctionSymbol("f", [INT], BOOL)
    x = Var("x", INT)
    phi = Forall([x], Or([Apply(f, (x,)), Apply(f, (IntLit(1),))]))
    assert applications_of(phi, f) == {(x,), (IntLit(1),)}


# -- ordering_atom ---------------------------------------------------------------


def test_ordering_atom_int():
    x, y = Const("x", INT), Const("y", INT)
    assert ordering_atom(x, y) == Cmp(CmpOp.LE, x, y)


def test_ordering_atom_bool_is_implication():
    p, q = Const("p", BOOL), Const("q", BOOL)
    assert ordering_atom(p, q) == Implies(p, q)


def test_ordering_false_true_holds_under_any_model():
    atom = ordering_atom(BoolLit(False), BoolLit(True))
    assert evaluate(atom, Model()) is True


def test_ordering_atom_sort_mismatch():
    with pytest.raises(SortError):
        ordering_atom(IntLit(0), BoolLit(True))


# -- skolemize --------------------------------------------------------------------


def test_skolemize_single_binder():
    f = FunctionSymbol("f", [INT], INT)
    x = Var("x", INT)
    phi = Exists([x], Cmp(CmpOp.EQ, Apply(f, (x,)), IntLit(1)))
    out = skolemize(phi)
    assert is_quantifier_free(out)
    consts = [t for t in iter_subterms(out) if isinstance(t, Const)]
    assert len(consts) == 1 and consts[0].name.startswith("!sk")


def test_skolemize_essentiality_shape():
    f_c = FunctionSymbol("f_c", [INT], INT)
    x, y = Var("x", INT), Var("y", INT)
    eta = Exists([x, y], Cmp(CmpOp.NE, Apply(f_c, (x,)), Apply(f_c, (y,))))
    out = skolemize(eta)
    names = sorted(t.name for t in iter_subterms(out) if isinstance(t, Const))
    assert names == ["!sk0", "!sk1"]
    assert isinstance(out, Cmp) and out.op is CmpOp.NE


def test_skolemize_quantifier_free_identity(ex1):
    assert skolemize(ex1.phi) is ex1.phi


def test_skolemize_one_constant_per_binder_no_collision():
    f = FunctionSymbol("f", [INT, INT], BOOL)
    x, y = Var("x", INT), Var("y", INT)
    z = Var("z", INT)
    phi = And(
        [
            Exists([x, y], Apply(f, (x, y))),
            Exists([z], Apply(f, (z, IntLit(0)))),
        ]
    )
    out = skolemize(phi)
    names = [t.name for t in iter_subterms(out) if isinstance(t, Const)]
    assert sorted(set(names)) == ["!sk0", "!sk1", "!sk2"]
    assert free_vars(out) == set()


def test_skolemize_respects_existing_fresh_names():
    f = FunctionSymbol("f", [INT], BOOL)
    x = Var("x", INT)
    phi = And([Apply(f, (Const("!sk0", INT),)), Exists([x], Apply(f, (x,)))])
    out = skolemize(phi)
    names = {t.name for t in iter_subterms(out) if isinstance(t, Const)}
    assert names == {"!sk0", "!sk1"}


def test_skolemize_rejects_negative_position():
    f = FunctionSymbol("f", [INT], BOOL)
    x = Var("x", INT)
    phi = Not(Exists([x], Apply(f, (x,))))
    with pytest.raises(SkolemizationError):
        skolemize(phi)
    phi2 = Implies(Exists([x], Apply(f, (x,))), BoolLit(True))
    with pytest.raises(SkolemizationError):
        skolemize(phi2)


def test_skolemize_rejects_exists_under_forall():
    f = FunctionSymbol("f", [INT, INT], BOOL)
    x, y = Var("x", INT), Var("y", INT)
    phi = Forall([x], Exists([y], Apply(f, (x, y))))
    with pytest.raises(SkolemizationError):
        skolemize(phi)


# -- binders / substitution --------------------------------------------------------


def test_shadowing_forbidden():
    x = Var("x", INT)
    inner = Forall([x], Cmp(CmpOp.LE, x, IntLit(0)))
    with pytest.raises(TermError):
        Forall([x], inner)


def test_substitute_under_binder():
    f = FunctionSymbol("f", [INT, INT], BOOL)
    x, y = Var("x", INT), Var("y", INT)
    phi = Forall([x], Apply(f, (x, y)))
    out = substitute(phi, {y: IntLit(3)})
    assert out == Forall([x], Apply(f, (x, IntLit(3))))


def test_free_vars():
    f = FunctionSymbol("f", [INT, INT], BOOL)
    x, y = Var("x", INT), Var("y", INT)
    phi = Forall([x], Apply(f, (x, y)))
    assert free_vars(phi) == {y}


def test_monotonicity_spec_validation():
    f = FunctionSymbol("f", [INT, INT], INT)
    with pytest.raises(TermError):
        MonotonicitySpec({f: ({1}, {1})})
    with pytest.raises(TermError):
        MonotonicitySpec({f: ({3}, set())})
    spec = MonotonicitySpec({f: ({1}, {2})})
    assert spec.monotone(f) == {1} and spec.anti_monotone(f) == {2}


# -- property tests ------------------------------------------------------------------

_FN_INT = FunctionSymbol("F", [INT, INT], INT)
_FN_BOOL = FunctionSymbol("P", [INT], BOOL)


def _int_terms(depth):
    if depth == 0:
        return st.one_of(
            st.integers(-8, 8).map(IntLit),
            st.sampled_from([Const("u", INT), Const("v", INT)]),
        )
    sub = _int_terms(depth - 1)
    return st.one_of(
        sub,
        st.tuples(sub, sub).map(lambda p: Add(*p)),
        st.tuples(sub, sub).map(lambda p: Apply(_FN_INT, p)),
    )


def _bool_terms(depth):
    ints = _int_terms(depth)
    atoms = st.one_of(
        st.tuples(st.sampled_from(list(CmpOp)), ints, ints).map(
            lambda t: Cmp(t[0], t[1], t[2])
        ),
        ints.map(lambda t: Apply(_FN_BOOL, (t,))),
    )
    if depth == 0:
        return atoms
    sub = _bool_terms(depth - 1)
    return st.one_of(
        atoms,
        sub.map(Not),
        st.tuples(sub, sub).map(lambda p: And(list(p))),
        st.tuples(sub, sub).map(lambda p: Or(list(p))),
        st.tuples(sub, sub).map(lambda p: Implies(*p)),
    )


@settings(max_examples=200, deadline=None)
@given(_bool_terms(3))
def test_constructed_terms_pass_full_sort_check(term):
    assert check_term(term).is_bool


@settings(max_examples=200, deadline=None)
@given(_bool_terms(3))
def test_applications_match_subterm_scan(term):
    for fn in (_FN_INT, _FN_BOOL):
        via_subterms = {
            t.args for t in subterms(term) if isinstance(t, Apply) and t.func == fn
        }
        assert applications_of(term, fn) == via_subterms
