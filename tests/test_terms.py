import pytest
from hypothesis import given, settings, strategies as st

from conftest import free_vars, subterms
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
    Neg,
    Not,
    Or,
    SkolemizationError,
    Sort,
    SortError,
    Sub,
    Term,
    TermError,
    Var,
    bounded_int,
    check_symbol_name,
    collect_declarations,
    is_quantifier_free,
    iter_subterms,
    lemma_antecedent,
    mk_and,
    ordering_atom,
    skolemize,
    subst_at,
    substitute,
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


def applications_of(term, func):
    """Argument vectors of all applications of `func`, deduplicated syntactically."""
    return {t.args for t in iter_subterms(term) if isinstance(t, Apply) and t.func == func}



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



# -- declarations and lemma antecedents --------------------------------------------


def test_collect_declarations_lists_arguments_before_their_symbol():
    f = FunctionSymbol("f", [INT, INT], INT)
    p = Const("p", BOOL)
    a, b = Const("a", INT), Const("b", INT)
    phi = And([p, Cmp(CmpOp.LE, Apply(f, (a, Apply(f, (b, a)))), b)])
    assert collect_declarations([phi, Not(p)]) == [p, a, b, f]


def test_collect_declarations_on_a_deep_chain():
    g = FunctionSymbol("g", [INT], BOOL)
    c = Const("c", INT)
    term = Apply(g, (c,))
    for _ in range(5000):
        term = Not(term)
    assert collect_declarations([term]) == [c, g]


def test_lemma_antecedent_order():
    xs = tuple(Const(f"x{i}", INT) for i in range(1, 5))
    ys = tuple(Const(f"y{i}", INT) for i in range(1, 5))
    assert lemma_antecedent(xs, ys, frozenset({4, 2}), frozenset({3})) == [
        ("<=", xs[1], ys[1]),
        ("<=", xs[3], ys[3]),
        ("<=", ys[2], xs[2]),
        ("=", xs[0], ys[0]),
    ]

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


def check_term(term: Term, bound: frozenset[Var] = frozenset()) -> Sort:
    """Full recursive sort check; raises on any violation.

    Constructors already enforce local correctness, so this re-verifies
    what they built.
    """
    match term:
        case IntLit() | BoolLit() | Const():
            return term.sort
        case Var():
            if term not in bound:
                raise TermError(f"unbound variable {term.name}")
            return term.sort
        case Apply(func=f, args=args):
            if len(args) != f.arity:
                raise SortError(f"arity mismatch on {f.name}")
            for arg, want in zip(args, f.arg_sorts):
                if not check_term(arg, bound).same_kind(want):
                    raise SortError(f"argument sort mismatch on {f.name}")
            return f.result_sort
        case Add(lhs=l, rhs=r) | Sub(lhs=l, rhs=r):
            if not (check_term(l, bound).is_int and check_term(r, bound).is_int):
                raise SortError("arithmetic on non-Integer operands")
            return INT
        case Neg(arg=a):
            if not check_term(a, bound).is_int:
                raise SortError("negation of non-Integer operand")
            return INT
        case Cmp(op=op, lhs=l, rhs=r):
            ls, rs = check_term(l, bound), check_term(r, bound)
            if not ls.same_kind(rs):
                raise SortError("comparison operands differ in sort")
            if op in (CmpOp.LE, CmpOp.LT, CmpOp.GE, CmpOp.GT) and not ls.is_int:
                raise SortError("order comparison on Boolean operands")
            return BOOL
        case Not(arg=a):
            if not check_term(a, bound).is_bool:
                raise SortError("negation of non-Boolean operand")
            return BOOL
        case And(args=args) | Or(args=args):
            for a in args:
                if not check_term(a, bound).is_bool:
                    raise SortError("connective over non-Boolean operand")
            return BOOL
        case Implies(lhs=l, rhs=r):
            if not (check_term(l, bound).is_bool and check_term(r, bound).is_bool):
                raise SortError("implication over non-Boolean operands")
            return BOOL
        case Forall(bound=bvs, body=body) | Exists(bound=bvs, body=body):
            if not check_term(body, bound | frozenset(bvs)).is_bool:
                raise SortError("quantifier body must be Boolean")
            return BOOL
        case _:
            raise TermError(f"unknown term node {type(term).__name__}")


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


def _recursive_declarations(assertions):
    """The postorder first-occurrence reference that collect_declarations
    must match."""
    seen, visited = {}, set()

    def visit(t):
        if t in visited:
            return
        visited.add(t)
        for c in t.children():
            visit(c)
        if isinstance(t, Const):
            seen.setdefault(t)
        elif isinstance(t, Apply):
            seen.setdefault(t.func)

    for a in assertions:
        visit(a)
    return list(seen)


@settings(max_examples=200, deadline=None)
@given(st.lists(_bool_terms(3), min_size=1, max_size=4))
def test_collect_declarations_matches_a_recursive_postorder(terms):
    # the last assertion shares every earlier one, subterms included
    assertions = terms + [Or([Const("b", BOOL), mk_and(terms)])]
    assert collect_declarations(assertions) == _recursive_declarations(assertions)
