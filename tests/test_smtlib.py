import pytest

from conftest import GOLDEN_DIR

from monoinfer import cli
from monoinfer.model import FunctionTable, Model, evaluate
from monoinfer.network import encode_inference
from monoinfer.encode import encode_eager
from monoinfer.smtlib import (
    SmtParseError,
    balanced,
    emit_script,
    model_to_sexpr,
    parse_get_value_response,
    parse_sexprs,
    read_sexprs,
    select_logic,
    sexpr_to_text,
    term_to_sexpr,
    tokenize,
)
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
    Neg,
    Not,
    Or,
    Sub,
    Var,
    mk_and,
)


def _flat(term):
    return list(term.args) if isinstance(term, And) else [term]


# -- term serialization -----------------------------------------------------------


def test_basic_term_forms():
    f = FunctionSymbol("f", [INT, INT], INT)
    c1 = Const("c1", INT)
    assert term_to_sexpr(Apply(f, (c1, IntLit(2)))) == "(f c1 2)"
    assert term_to_sexpr(IntLit(-5)) == "(- 5)"
    assert term_to_sexpr(Neg(c1)) == "(- c1)"
    assert term_to_sexpr(Sub(c1, IntLit(1))) == "(- c1 1)"
    assert term_to_sexpr(BoolLit(True)) == "true"
    assert (
        term_to_sexpr(Cmp(CmpOp.NE, c1, IntLit(0)))
        == "(distinct c1 0)"
    )
    x = Var("x", INT)
    assert (
        term_to_sexpr(Forall([x], Cmp(CmpOp.LE, x, x)))
        == "(forall ((x Int)) (<= x x))"
    )
    p = Const("p", BOOL)
    assert term_to_sexpr(Implies(p, Not(p))) == "(=> p (not p))"


def test_emit_direct_assertion_example():
    f = FunctionSymbol("f", [INT, INT], INT)
    c1 = Const("c1", INT)
    phi = Cmp(CmpOp.EQ, Apply(f, (c1, IntLit(2))), IntLit(4))
    script = emit_script([phi])
    assert "(declare-fun f (Int Int) Int)" in script
    assert "(declare-fun c1 () Int)" in script
    assert "(assert (= (f c1 2) 4))" in script
    assert script.endswith("(check-sat)\n")


def test_emit_ground_fixed_point_constraints(fig1):
    from monoinfer.network import fixed_point_constraint

    tau = fixed_point_constraint(fig1, fig1.observations[0])
    lines = emit_script(_flat(tau)).splitlines()
    asserts = [l for l in lines if l.startswith("(assert")]
    assert asserts == [
        "(assert (= (f_a 0 0 0) 0))",
        "(assert (= (f_b 0 0) 0))",
        "(assert (= (f_c 0) 0))",
    ]


def test_emit_empty_assertion_set():
    script = emit_script([])
    assert script == "(set-logic UF)\n(set-option :produce-models true)\n(check-sat)\n"


def test_logic_selection():
    p = Const("p", BOOL)
    assert select_logic([p]) == "UF"
    assert select_logic([Cmp(CmpOp.LE, IntLit(0), IntLit(1))]) == "UFLIA"


def test_emission_is_deterministic(ex1):
    enc = encode_eager(ex1.phi, ex1.spec)
    one = emit_script(_flat(enc.formula))
    two = emit_script(_flat(encode_eager(ex1.phi, ex1.spec).formula))
    assert one == two


def test_example1_eager_golden_bytes(ex1):
    enc = encode_eager(ex1.phi, ex1.spec)
    parts = _flat(enc.formula)
    flat = _flat(parts[0]) + parts[1:]
    script = emit_script(flat)
    golden = (GOLDEN_DIR / "example1_eager.smt2").read_text()
    assert script == golden


def test_fig1_eager_golden_bytes(fig1):
    formula, spec = encode_inference(fig1)
    enc = encode_eager(formula, spec)
    assertions = _flat(enc.formula)
    script = emit_script(assertions)
    golden = (GOLDEN_DIR / "fig1_eager.smt2").read_text()
    assert script == golden


# Boolean and integer variables, essential integer-sourced regulations and
# partially observed fixed points: the eager script declares fixed-point
# Skolem constants, which fig1, observed in full, never reaches
PARTIAL_PROBLEM = """\
monoinfer-problem 1

variables
  a int 0..2
  b bool
  c int 0..2
  d bool
end

regulations
  a -> a sign=unknown essential
  c -> a sign=mono essential
  a -> b sign=mono essential
  d -> b sign=anti
  b -> c sign=mono essential
  a -> c sign=anti
  b -> d sign=unknown essential
end

observations
  F1 { a=1 d=true }
  F2 { b=false c=2 }
end
"""


@pytest.mark.parametrize(
    "flags, golden",
    [([], "partial_eager.smt2"), (["--no-simplify"], "partial_eager_no_simplify.smt2")],
)
def test_partial_eager_golden_bytes(tmp_path, flags, golden):
    problem = tmp_path / "partial.problem"
    problem.write_text(PARTIAL_PROBLEM)
    out = tmp_path / "out.smt2"
    argv = ["solve", "--problem", str(problem), "--encoding", "instantiated-eager"]
    assert cli.main(argv + ["--emit-smt2", str(out)] + flags) == cli.EXIT_SAT
    assert out.read_bytes() == (GOLDEN_DIR / golden).read_bytes()


# -- s-expression reading ------------------------------------------------------------


def test_tokenizer_and_reader():
    text = '(a (b 1) |quoted sym| "str" ; comment\n (c))'
    assert parse_sexprs(text) == [["a", ["b", "1"], "quoted sym", '"str"', ["c"]]]
    assert parse_sexprs("a b") == ["a", "b"]
    with pytest.raises(SmtParseError):
        parse_sexprs("(a b")
    with pytest.raises(SmtParseError):
        parse_sexprs(")")
    assert tokenize("(|(| a)") == ["(", "|(|", "a", ")"]
    [first, stray, last] = read_sexprs("(a) ) b")
    assert first == ["a"] and isinstance(stray, SmtParseError) and last == "b"
    # quoted symbols are printed back quoted, everything else as it was read
    [sexpr] = parse_sexprs(text)
    assert sexpr_to_text(sexpr) == '(a (b 1) |quoted sym| "str" (c))'
    assert sexpr_to_text(["(", "a b", ""]) == "(|(| |a b| ||)"
    assert parse_sexprs("(|(| |a b| ||)") == [["(", "a b", ""]]


def test_balanced_detector():
    assert balanced("(a (b))")
    assert not balanced("(a (b)")
    assert balanced("sat")
    # a stray ')' completes the text, so that a reader reports it and reads on
    assert balanced(")")
    assert balanced("(check-sat) ) (check-sat)")
    # parentheses inside comments, strings and quoted symbols do not count
    assert balanced("(assert (> x 2)) ; note: x)")
    assert not balanced("(assert (> x 2) ; note: x)")
    assert balanced('(set-info :source "a ( b")')
    assert not balanced('(set-info :source "a ( b)')
    assert balanced("(get-value (|(|))")
    assert not balanced("(get-value (|)|)")


# -- response parsing ------------------------------------------------------------------


def test_parse_get_value_response():
    values = parse_get_value_response("(((f c1 2) 4) (c2 (- 3)) (p true))")
    assert values == [4, -3, True]
    with pytest.raises(SmtParseError):
        parse_get_value_response("((c1))")


def test_model_round_trip_through_sexpr():
    # a get-model response: one define-fun per symbol, each table row one ite
    f = FunctionSymbol("f", [INT, INT], INT)
    c = Const("c1", INT)
    model = Model({"c1": 6}, {"f": FunctionTable({(6, 2): 4, (11, 0): 0}, 0)})
    [defs] = parse_sexprs(model_to_sexpr(model, [c, f]))
    assert defs == [
        ["define-fun", "c1", [], "Int", "6"],
        [
            "define-fun",
            "f",
            [["x!0", "Int"], ["x!1", "Int"]],
            "Int",
            [
                "ite",
                ["and", ["=", "x!0", "6"], ["=", "x!1", "2"]],
                "4",
                ["ite", ["and", ["=", "x!0", "11"], ["=", "x!1", "0"]], "0", "0"],
            ],
        ],
    ]


def test_model_round_trip_substitution(ex1):
    # a parsed model must satisfy the formula it came from (evaluator leg)
    model = Model(
        {"c1": 6, "c2": 0},
        {
            "f": FunctionTable({(6, 2): 4, (11, 0): 0}, 0),
            "g": FunctionTable({(0,): 1, (4,): 2}, 1),
        },
    )
    assert evaluate(ex1.phi, model) is True
