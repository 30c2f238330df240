import subprocess
import sys
import time

import pytest

from conftest import GOLDEN_DIR, REPL_SOLVER_CMD

from monoinfer.encode import LazyRunStats, encode_eager, solve_lazy
from monoinfer.model import evaluate
from monoinfer.network import encode_inference
from monoinfer.session import (
    InternalSession,
    ProcessSession,
    SessionUsageError,
    SolverProcessError,
    open_session,
)
from monoinfer.smtlib import parse_sexprs
from monoinfer.terms import (
    BOOL,
    INT,
    Apply,
    BoolLit,
    Cmp,
    CmpOp,
    Const,
    FunctionSymbol,
    IntLit,
    bounded_int,
    mk_and,
)


def _sessions():
    return [InternalSession(), ProcessSession(REPL_SOLVER_CMD)]


def test_assert_false_is_unsat():
    for session in _sessions():
        with session:
            session.assert_formula(BoolLit(False))
            assert session.check_sat() == "unsat"


def test_cumulative_assertions():
    p = Const("p", BOOL)
    for session in _sessions():
        with session:
            session.assert_formula(p)
            assert session.check_sat() == "sat"
            session.assert_formula(Cmp(CmpOp.EQ, p, BoolLit(False)))
            assert session.check_sat() == "unsat"


def test_example1_eager_through_both_backends(ex1):
    for spec, expected in ((ex1.spec, "unsat"), (ex1.spec_relaxed, "sat")):
        for session in _sessions():
            with session:
                session.assert_formula(encode_eager(ex1.phi, spec).formula)
                assert session.check_sat() == expected


def test_get_value_satisfies_assertions(ex1):
    with ProcessSession(REPL_SOLVER_CMD) as session:
        session.assert_formula(encode_eager(ex1.phi, ex1.spec_relaxed).formula)
        assert session.check_sat() == "sat"
        values = session.value_of([ex1.c1, ex1.c2])
        assert all(isinstance(v, int) for v in values)
        model = session.extract_model()
        assert evaluate(ex1.phi, model) is True
        assert model.constants["c1"] == values[0]
        assert model.constants["c2"] == values[1]


def test_internal_model_round_trip(ex1):
    # substituting the extracted model into the asserted formula holds
    session = InternalSession()
    encoded = encode_eager(ex1.phi, ex1.spec_relaxed).formula
    session.assert_formula(encoded)
    assert session.check_sat() == "sat"
    model = session.extract_model()
    assert evaluate(encoded, model) is True


def test_session_discipline_enforced(ex1):
    for session in _sessions():
        with session:
            with pytest.raises(SessionUsageError):
                session.value_of([ex1.c1])
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


def test_constants_numbered_before_applications_and_gates(fig1):
    # the declaration walk in assert_formula declares every constant before
    # the engine grounds the assertion; the SAT heap breaks activity ties by
    # variable number, so this order decides what is branched on first
    session = InternalSession()
    session.assert_formula(encode_eager(*encode_inference(fig1)).formula)
    engine = session.engine

    def node_vars(kind):
        out = [v for node, v in engine.bool_unknowns.items() if node[0] == kind]
        for node, ladder in engine.order_vars.items():
            if node[0] == kind:
                out.extend(ladder.values())
        return out

    constants = node_vars("c")
    later = node_vars("a") + list(engine.gate_cache.values())
    assert constants and later
    assert max(constants) < min(later)


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
