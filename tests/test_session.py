import gc
import io
import itertools
import subprocess
import sys
import time
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GOLDEN_DIR, REPL_SOLVER_CMD, sessions
from test_terms import _bool_terms

from monoinfer import engine as engine_module
from monoinfer.encode import LazyRunStats, encode_eager, encode_quant_aggregated, solve_lazy
from monoinfer.model import evaluate
from monoinfer.session import (
    InternalSession,
    ProcessSession,
    SessionUsageError,
    SolverProcessError,
    open_session,
)
from monoinfer.smtlib import parse_sexprs, value_to_sexpr
from monoinfer.smtserver import CommandError, SmtServer, serve
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
    Term,
    Var,
    bounded_int,
    collect_declarations,
    lit,
    mk_and,
)


def test_assert_false_is_unsat():
    for session in sessions():
        with session:
            session.assert_formula(BoolLit(False))
            assert session.check_sat() == "unsat"


def test_cumulative_assertions():
    p = Const("p", BOOL)
    for session in sessions():
        with session:
            session.assert_formula(p)
            assert session.check_sat() == "sat"
            session.assert_formula(Cmp(CmpOp.EQ, p, BoolLit(False)))
            assert session.check_sat() == "unsat"


def test_example1_eager_through_both_backends(ex1):
    for spec, expected in ((ex1.spec, "unsat"), (ex1.spec_relaxed, "sat")):
        for session in sessions():
            with session:
                session.assert_formula(encode_eager(ex1.phi, spec).formula)
                assert session.check_sat() == expected


def test_get_value_satisfies_assertions(ex1):
    with ProcessSession(REPL_SOLVER_CMD) as session:
        session.assert_formula(encode_eager(ex1.phi, ex1.spec_relaxed).formula)
        assert session.check_sat() == "sat"
        model = session.extract_model()
        assert all(isinstance(model.constants[c], int) for c in ("c1", "c2"))
        assert evaluate(ex1.phi, model) is True


def test_internal_model_round_trip(ex1):
    # substituting the extracted model into the asserted formula holds
    session = InternalSession()
    encoded = encode_eager(ex1.phi, ex1.spec_relaxed).formula
    session.assert_formula(encoded)
    assert session.check_sat() == "sat"
    model = session.extract_model()
    assert evaluate(encoded, model) is True


def test_session_discipline_enforced(ex1):
    for session in sessions():
        with session:
            with pytest.raises(SessionUsageError):
                session.extract_model()
            session.assert_formula(BoolLit(False))
            assert session.check_sat() == "unsat"
            with pytest.raises(SessionUsageError):
                session.extract_model()
    # an assertion after sat invalidates the model state
    session = InternalSession()
    session.assert_formula(BoolLit(True))
    assert session.check_sat() == "sat"
    session.assert_formula(BoolLit(True))
    with pytest.raises(SessionUsageError):
        session.extract_model()


def test_conflicting_redeclaration_rejected():
    session = InternalSession()
    session.assert_formula(Cmp(CmpOp.LE, Const("x", INT), IntLit(0)))
    with pytest.raises(SessionUsageError):
        session.declare(Const("x", BOOL))


def test_constants_grounded_only_where_an_assertion_reaches_them():
    # the consequent of a lemma whose antecedent folds to false is never
    # grounded, so its constants get no SAT variable or ladder and the model
    # gives them their sort's least value
    p, b = Const("p", BOOL), Const("b", BOOL)
    x, u = Const("x", bounded_int(1, 3)), Const("u", INT)
    consequent = And([b, Cmp(CmpOp.EQ, x, IntLit(2)), Cmp(CmpOp.EQ, u, IntLit(5))])
    formula = And([p, Implies(And([p, BoolLit(False)]), consequent)])
    session = InternalSession()
    session.assert_formula(formula)
    assert session.check_sat() == "sat"
    engine = session.engine
    for node in (("c", "b"), ("c", "x"), ("c", "u")):
        assert node not in engine.bool_unknowns and node not in engine.node_bounds
    assert ("c", "x") not in engine.order_vars
    model = session.extract_model()
    assert model.constants == {"p": True, "b": False, "x": 1, "u": 0}
    assert evaluate(formula, model) is True


def _assert_declares_what_the_walk_lists(terms):
    """After asserting `terms`, the session's declarations are what
    `collect_declarations` lists; a refused assertion declares no more."""
    session = InternalSession()
    for term in terms:
        session.assert_formula(term)
    listed = {item.name: item for item in collect_declarations(terms)}
    if session.unknown_reason is None:
        assert session.declared == listed
    else:
        assert session.declared.items() <= listed.items()


@settings(max_examples=150, deadline=None)
@given(st.lists(_bool_terms(3), min_size=1, max_size=3))
def test_declared_equals_the_walk_on_random_terms(terms):
    _assert_declares_what_the_walk_lists(terms)


_ARG_SORTS = [BOOL, bounded_int(0, 2)]


# a quantifier whose guards admit no assignment, so its expansion grounds
# nothing of its body
_B = Var("b", BOOL)
_VACUOUS = Forall([_B], Implies(
    And([_B, Not(_B)]), Apply(FunctionSymbol("h", [BOOL], BOOL), (Const("k", BOOL),))
))


@st.composite
def _lemma_problems(draw):
    """Applications of one symbol over literals and constants, with random
    signs, and a consequent under a false antecedent that holds a constant
    and a symbol nothing else mentions."""
    arg_sorts = draw(st.lists(st.sampled_from(_ARG_SORTS), min_size=1, max_size=3))
    f = FunctionSymbol("f", arg_sorts, BOOL)
    args = [
        st.one_of(st.sampled_from(sort.values()).map(lit), st.just(Const(f"c{i}", sort)))
        for i, sort in enumerate(arg_sorts)
    ]
    apps = draw(st.lists(st.tuples(*args).map(lambda a: Apply(f, a)), min_size=2, max_size=4))
    signs = draw(st.lists(st.sampled_from(["mono", "anti", None]), min_size=len(arg_sorts),
                          max_size=len(arg_sorts)))
    spec = MonotonicitySpec({f: (
        [i for i, s in enumerate(signs, 1) if s == "mono"],
        [i for i, s in enumerate(signs, 1) if s == "anti"],
    )})
    hidden = Apply(FunctionSymbol("g", [INT], BOOL), (Const("hidden", INT),))
    folded = Implies(Cmp(CmpOp.EQ, IntLit(0), IntLit(1)), hidden)
    return mk_and([*apps, folded]), spec


@settings(max_examples=100, deadline=None)
@given(_lemma_problems())
def test_declared_equals_the_walk_on_eager_and_aggregated_encodings(problem):
    formula, spec = problem
    _assert_declares_what_the_walk_lists([encode_eager(formula, spec).formula])
    aggregated = encode_quant_aggregated(formula, spec).formula
    _assert_declares_what_the_walk_lists([aggregated, _VACUOUS])


def test_declarations_walk_only_what_grounding_skips(monkeypatch):
    walked = []

    def spy(assertions):
        walked.extend(assertions)
        return collect_declarations(assertions)

    monkeypatch.setattr(engine_module, "collect_declarations", spy)
    f = FunctionSymbol("f", [BOOL, BOOL], BOOL)
    x, y = Const("x", BOOL), Const("y", BOOL)
    formula = And([Apply(f, (x, y)), Not(Apply(f, (y, x)))])
    spec = MonotonicitySpec({f: ({1}, {2})})
    session = InternalSession()
    session.assert_formula(encode_eager(formula, spec).formula)
    assert walked == [] and set(session.declared) == {"x", "y", "f"}
    # a consequent dropped at a false antecedent literal is walked, alone
    dropped = Apply(FunctionSymbol("g", [BOOL], BOOL), (Const("z", BOOL),))
    session.assert_formula(Implies(And([x, BoolLit(False)]), dropped))
    assert walked == [dropped] and set(session.declared) == {"x", "y", "f", "z", "g"}
    # a quantifier is walked before its expansion, which here grounds nothing
    session.assert_formula(_VACUOUS)
    assert walked == [dropped, _VACUOUS] and {"h", "k"} <= set(session.declared)
    assert ("c", "k") not in session.engine.bool_unknowns


def test_conflicting_redeclaration_in_one_assertion_refuses_the_session():
    session = InternalSession()
    formula = And([Cmp(CmpOp.LE, Const("x", INT), IntLit(0)), Const("x", BOOL)])
    with pytest.raises(SessionUsageError):
        session.assert_formula(formula)
    for _ in range(2):
        assert session.check_sat() == "unknown"
    assert session.unknown_reason == "conflicting redeclaration of x"


def test_engine_is_freed_with_its_session(ex1):
    # the engine fills the session's `declared` dict and holds no reference
    # back to the session, so no collector is needed to free either
    gc.disable()
    try:
        session = InternalSession()
        session.assert_formula(encode_eager(ex1.phi, ex1.spec_relaxed).formula)
        assert session.check_sat() == "sat"
        session.extract_model()
        engine = weakref.ref(session.engine)
        del session
        assert engine() is None
    finally:
        gc.enable()


def test_lazy_loop_through_process_session(ex1):
    stats = LazyRunStats()
    with ProcessSession(REPL_SOLVER_CMD) as session:
        verdict = solve_lazy(ex1.phi, ex1.spec, session, stats)
    assert verdict.is_unsat
    assert stats.check_sat_calls <= 5


def test_lazy_sat_model_through_process_session(ex1):
    # the process driver's model comes from one get-value: every ground
    # application of the formula is a table row
    with ProcessSession(REPL_SOLVER_CMD) as session:
        verdict = solve_lazy(ex1.phi, ex1.spec_relaxed, session)
    assert verdict.is_sat
    model = verdict.model
    assert evaluate(ex1.phi, model) is True
    for app in (ex1.f_app1, ex1.f_app2, ex1.g_app1, ex1.g_app2):
        point = tuple(evaluate(a, model) for a in app.args)
        assert model.functions[app.func.name].rows[point] == evaluate(app, model)


def test_process_timeout_kills_solver():
    # a solver that answers nothing: plain `sleep` via sh
    with ProcessSession("sh -c 'sleep 60'") as session:
        session.set_time_limit(300)
        session.assert_formula(BoolLit(True))
        started = time.monotonic()
        assert session.check_sat() == "unknown"
        assert time.monotonic() - started < 5
        assert session.unknown_reason == "timeout"
        assert session.process.poll() is not None


def test_process_spawn_failure():
    with pytest.raises(SolverProcessError):
        ProcessSession("definitely-not-a-solver-binary-xyz")


SHORT_ANSWER_SOLVER = """\
import sys
for line in sys.stdin:
    if line.startswith("(check-sat"):
        print("sat", flush=True)
    elif line.startswith("(get-value"):
        print("()", flush=True)
"""


def test_process_get_value_short_answer_rejected(ex1, tmp_path):
    # a model is built by zipping the query with the answer, so an answer
    # missing values is a solver failure, not a smaller model
    script = tmp_path / "short_answer_solver.py"
    script.write_text(SHORT_ANSWER_SOLVER)
    with ProcessSession([sys.executable, str(script)]) as session:
        session.assert_formula(ex1.phi)
        assert session.check_sat() == "sat"
        with pytest.raises(SolverProcessError):
            session.extract_model()


def test_open_session_dispatch():
    assert isinstance(open_session("internal"), InternalSession)
    session = open_session(REPL_SOLVER_CMD)
    assert isinstance(session, ProcessSession)
    session.dispose()


def test_internal_unsupported_goes_unknown():
    from monoinfer.terms import Forall, Var

    session = InternalSession()
    x = Var("x", INT)
    session.assert_formula(Forall([x], Cmp(CmpOp.LE, x, x)))
    assert session.check_sat() == "unknown"
    assert "unsupported" in session.unknown_reason


def test_internal_unsupported_congruence_pair_goes_unknown():
    # f(u) and f(x) meet at one point, and their congruence constraint would
    # compare a small-bounded argument with an unbounded one
    f = FunctionSymbol("f", [bounded_int(0, 2)], INT)
    u, x = Const("u", bounded_int(0, 2)), Const("x", INT)
    session = InternalSession()
    session.assert_formula(mk_and([
        Cmp(CmpOp.EQ, u, IntLit(0)),
        Cmp(CmpOp.EQ, x, IntLit(0)),
        Cmp(CmpOp.NE, Apply(f, (u,)), Apply(f, (x,))),
    ]))
    assert session.check_sat() == "unknown"
    assert session.unknown_reason.startswith("unsupported: atom mixes")


def test_internal_timeout():
    from monoinfer.terms import Forall, Var, bounded_int

    dom = bounded_int(0, 1)
    f = FunctionSymbol("f", [dom] * 12, dom)
    xs = [Var(f"x{i}", dom) for i in range(12)]
    session = InternalSession()
    session.set_time_limit(1)
    time.sleep(0.01)
    session.assert_formula(Forall(xs, Cmp(CmpOp.LE, Apply(f, tuple(xs)), IntLit(1))))
    assert session.check_sat() == "unknown"
    assert session.unknown_reason == "timeout"


def test_internal_deadline_stops_quantifier_expansion():
    from monoinfer.encode import encode_quant_aggregated
    from monoinfer.terms import MonotonicitySpec

    f = FunctionSymbol("f", [BOOL] * 6, BOOL)
    axiom = encode_quant_aggregated(BoolLit(True), MonotonicitySpec({f: ({1, 2, 3}, {4})})).formula
    session = InternalSession()
    vars_before = session.engine.sat.num_vars
    session.set_time_limit(1)
    time.sleep(0.01)
    session.assert_formula(axiom)
    assert session.engine.sat.num_vars == vars_before
    assert session.check_sat() == "unknown"
    assert session.unknown_reason == "timeout"


def test_internal_deadline_stops_a_quantifier_free_conjunction():
    x, y = Const("x", INT), Const("y", INT)
    session = InternalSession()
    vars_before = session.engine.sat.num_vars
    session.set_time_limit(1)
    time.sleep(0.01)
    session.assert_formula(mk_and([Cmp(CmpOp.LE, x, y), Cmp(CmpOp.LT, y, x)]))
    assert session.engine.sat.num_vars == vars_before
    assert session.check_sat() == "unknown"
    assert session.unknown_reason == "timeout"


# -- REPL conformance over a raw pipe ---------------------------------------------------


def _run_script(script: str) -> list[str]:
    proc = subprocess.run(
        [sys.executable, "-m", "monoinfer.smtserver"],
        input=script,
        capture_output=True,
        text=True,
        timeout=60,
    )
    return [line for line in proc.stdout.splitlines() if line.strip()]


def test_repl_basic_script():
    out = _run_script(
        """
(set-logic UFLIA)
(declare-fun x () Int)
(assert (<= x 5))
(check-sat)
(get-value (x (+ x 1)))
(exit)
"""
    )
    assert out[0] == "sat"
    assert out[1].startswith("((x ")


def test_repl_golden_script_unsat():
    script = (GOLDEN_DIR / "example1_eager.smt2").read_text() + "(exit)\n"
    assert _run_script(script) == ["unsat"]


def test_repl_error_responses():
    out = _run_script(
        """
(declare-fun x () Int)
(declare-fun x () Int)
(get-value (x))
(unknown-command)
(exit)
"""
    )
    assert len(out) == 3
    assert all(line.startswith("(error") for line in out)


def test_repl_get_model_shape():
    out = _run_script(
        """
(set-logic UFLIA)
(declare-fun g (Int) Int)
(assert (= (g 4) 2))
(check-sat)
(get-model)
(exit)
"""
    )
    assert out[0] == "sat"
    [defs] = parse_sexprs("\n".join(out[1:]))
    assert defs == [
        ["define-fun", "g", [["x!0", "Int"]], "Int", ["ite", ["=", "x!0", "4"], "2", "2"]]
    ]


def test_repl_get_value_on_ungrounded_terms_pinned():
    # (g 5), (g x) and (g (g 4)) are valued through g's table and its
    # default, p through its unconstrained SAT variable
    out = _run_script(
        """
(declare-fun g (Int) Int)
(declare-fun p () Bool)
(declare-fun x () Int)
(assert (and (= (g 4) 2) (<= x 3) (>= x 3)))
(check-sat)
(get-value ((g 4) (g 5) (+ (g x) 1) x p (g (g 4))))
(exit)
"""
    )
    assert out == [
        "sat",
        "(((g 4) 2) ((g 5) 2) ((+ (g x) 1) 3) (x 3) (p false) ((g (g 4)) 2))",
    ]


def test_repl_chainable_comparisons_and_pairwise_distinct():
    out = _run_script(
        """
(declare-fun x () Int)
(declare-fun y () Int)
(assert (= x y 1))
(assert (distinct x 0 2))
(assert (< 0 x 2 3))
(check-sat)
(get-value (x y (= x 1 1) (distinct x 2 1) (<= 1 x y)))
(assert (distinct x 2 y))
(check-sat)
(exit)
"""
    )
    assert out == [
        "sat",
        "((x 1) (y 1) ((= x 1 1) true) ((distinct x 2 1) false) ((<= 1 x y) true))",
        "unsat",
    ]


def _serve(script: str) -> list[str]:
    out = io.StringIO()
    serve(io.StringIO(script), out)
    return out.getvalue().splitlines()


def test_serve_reads_on_past_comments_strings_and_stray_parens():
    assert _serve(
        "(declare-fun x () Int)\n(assert (> x 2)) ; note: x)\n(check-sat)\n"
    ) == ["sat"]
    assert _serve('(set-info :source "a ( b")\n(check-sat)\n') == ["sat"]
    for script in ["(check-sat)\n)\n(check-sat)\n", "(check-sat) ) (check-sat)\n"]:
        assert _serve(script) == ["sat", "(error \"unexpected ')'\")", "sat"]
    # a quoted symbol is echoed quoted
    assert _serve(
        "(declare-fun |a b| () Int)\n(assert (= |a b| 3))\n(check-sat)\n"
        "(get-value (|a b| (+ |a b| 1)))\n"
    ) == ["sat", "((|a b| 3) ((+ |a b| 1) 4))"]


def test_repl_malformed_terms_answer_errors():
    bad = [
        "(assert (+))",
        "(assert (not))",
        "(assert (=>))",
        "(get-value ((- )))",
        "(assert (forall (((a) Bool)) p))",
        "(assert (forall () p))",
        "(assert (forall ((x Int) (x Int)) true))",
        "(assert (forall ((x Int)) x))",
        "(assert (not p p))",
        "(assert (= p))",
        "(assert (distinct p))",
    ]
    # an SMT-LIB numeral is 0 or ASCII digits with no leading 0: no sign,
    # separator or other script's digits
    numerals = ["1_000", "-5", "+5", "007", "\uff11", "1\u0661"]
    bad += [f"(assert (= x {n}))" for n in numerals]
    declare = "(declare-fun p () Bool)\n(declare-fun x () Int)\n"
    out = _run_script(declare + "\n".join(bad) + "\n(check-sat)\n(exit)\n")
    assert len(out) == len(bad) + 1
    assert all(line.startswith("(error") for line in out[:-1])
    assert all("unknown symbol" in line for line in out[-1 - len(numerals):-1])
    assert out[-1] == "sat"



def test_repl_answers_deep_input():
    # a 1,500-deep (not ...) is too deep to read; a 1,500-operand sum (valid
    # SMT-LIB 2.6) is read as a balanced tree of additions, which grounds
    deep_not = "(not " * 1500 + "p" + ")" * 1500
    long_sum = "(+ x" + " 1" * 1500 + ")"
    out = _run_script(
        f"""
(declare-fun p () Bool)
(declare-fun x () Int)
(assert {deep_not})
(assert (<= {long_sum} 2000))
(check-sat)
(check-sat)
(reset)
(declare-fun x () Int)
(assert (<= x 5))
(check-sat)
(exit)
"""
    )
    assert out[0].startswith("(error") and "nested too deeply" in out[0]
    assert out[1:] == ["sat", "sat", "sat"]


def test_repl_reads_nary_operators_by_their_smtlib_meaning():
    # `-` is left-associative and `=>` right-associative
    declare = "".join(f"(declare-fun {v} () Int)\n" for v in "xyz")
    declare += "".join(f"(declare-fun {v} () Bool)\n" for v in "pqr")
    for (x, y, z), (p, q, r) in itertools.product(
        itertools.product((0, 2, 7), repeat=3), itertools.product((False, True), repeat=3)
    ):
        fixed = [("x", x), ("y", y), ("z", z)]
        fixed += [(name, str(v).lower()) for name, v in (("p", p), ("q", q), ("r", r))]
        script = declare + "".join(f"(assert (= {n} {v}))\n" for n, v in fixed)
        script += "(check-sat)\n(get-value ((+ x y z) (- x y z) (=> p q r)))\n"
        values = [value_to_sexpr(v) for v in (x + y + z, x - y - z, not p or not q or r)]
        assert _serve(script) == [
            "sat", "(((+ x y z) {}) ((- x y z) {}) ((=> p q r) {}))".format(*values)
        ]


def _deep_sum(depth: int) -> Term:
    """x + 1 + ... + 1 as a left-deep chain of `depth` additions."""
    total = Const("x", INT)
    for _ in range(depth):
        total = Add(total, IntLit(1))
    return total


def test_internal_session_refuses_a_term_too_deep_to_ground():
    session = InternalSession()
    session.assert_formula(Cmp(CmpOp.LE, _deep_sum(5000), IntLit(6000)))
    assert session.check_sat() == "unknown"
    assert session.unknown_reason == "unsupported: term nested too deeply"


def test_internal_session_refuses_two_equal_deep_terms():
    # comparing the two for equality in the declaration walk recurses
    session = InternalSession()
    session.assert_formula(Cmp(CmpOp.LE, _deep_sum(3000), _deep_sum(3000)))
    assert session.check_sat() == "unknown"
    assert session.unknown_reason == "unsupported: term nested too deeply"


def test_process_session_refuses_a_sum_too_deep_to_send():
    # the client serializes the sum recursively: it is refused, nothing more
    # is sent, and every check answers unknown
    with ProcessSession(REPL_SOLVER_CMD) as session:
        session.assert_formula(Cmp(CmpOp.LE, _deep_sum(1500), IntLit(2000)))
        session.assert_formula(BoolLit(False))
        for _ in range(2):
            assert session.check_sat() == "unknown"
            assert session.unknown_reason == "unsupported: term nested too deeply"
        assert session.check_sat_count == 2


_FUZZ_ATOMS = ["p", "q", "x", "f", "0", "1", "true", "+", "-", "not", "=>", "=", "<=",
               "and", "or", "forall", "exists", "Int", "Bool"]
_fuzz_terms = st.recursive(
    st.sampled_from(_FUZZ_ATOMS),
    lambda inner: st.lists(inner, max_size=4),
    max_leaves=8,
)
_fuzz_commands = st.one_of(
    st.tuples(st.just("assert"), _fuzz_terms).map(list),
    st.tuples(st.just("get-value"), st.lists(_fuzz_terms, max_size=3)).map(list),
    st.just(["check-sat"]),
    st.just(["get-model"]),
    st.lists(st.sampled_from(_FUZZ_ATOMS), max_size=4),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_fuzz_commands, max_size=6))
def test_server_answers_random_commands_without_crashing(commands):
    server = SmtServer()
    for declaration in ("(declare-fun p () Bool)", "(declare-fun q () Bool)",
                        "(declare-fun x () Int)", "(declare-fun f (Int) Int)"):
        [command] = parse_sexprs(declaration)
        server.handle(command)
    for command in commands:
        try:
            server.handle(command)
        except CommandError:
            pass
