"""Monotone uninterpreted functions, end to end on a two-symbol formula.

We assert
    f(c1, 2) = 4  /\  f(c1 + 5, 0) = c2  /\  g(c2) < g(4)
and ask whether a model exists when f must be monotone in its first
argument and anti-monotone in its second, and g monotone.  Chaining the
constraints forces 4 = f(c1,2) <= f(c1+5,0) = c2, hence g(4) <= g(c2),
contradicting the last conjunct: unsatisfiable.  Dropping the
anti-monotonicity of f makes the formula satisfiable again.
"""

from monoinfer import (
    INT,
    Apply,
    Cmp,
    CmpOp,
    Const,
    FunctionSymbol,
    IntLit,
    InternalSession,
    MonotonicitySpec,
    Strategy,
    emit_script,
    mk_and,
    monotonize_model,
)
from monoinfer.encode import encode, encode_eager, solve
from monoinfer.terms import Add

f = FunctionSymbol("f", [INT, INT], INT)
g = FunctionSymbol("g", [INT], INT)
c1, c2 = Const("c1", INT), Const("c2", INT)

phi = mk_and(
    [
        Cmp(CmpOp.EQ, Apply(f, (c1, IntLit(2))), IntLit(4)),
        Cmp(CmpOp.EQ, Apply(f, (Add(c1, IntLit(5)), IntLit(0))), c2),
        Cmp(CmpOp.LT, Apply(g, (c2,)), Apply(g, (IntLit(4),))),
    ]
)
strict = MonotonicitySpec({f: ({1}, {2}), g: ({1}, set())})
relaxed = MonotonicitySpec({f: ({1}, set()), g: ({1}, set())})

print("formula:", phi)
print()

# The eager encoding instantiates one ground lemma per ordered pair of
# applications of each constrained symbol -- four lemmas here.
enc = encode_eager(phi, strict)
print(f"eager encoding adds {enc.lemma_count} ground monotonicity lemmas:")
print(emit_script([enc.formula]))

# `encode` prepares the formula for a strategy and `solve` runs it through a
# session.  The lazy loop reaches the same verdicts as eager while asserting
# only the lemmas that candidate models actually violate.
for strategy in (Strategy.INST_EAGER, Strategy.INST_LAZY):
    for label, spec in (("strict", strict), ("relaxed", relaxed)):
        verdict = solve(encode(phi, spec, strategy), spec, InternalSession())
        print(f"{strategy.value}, {label} specification:", verdict)

# The quantified encodings need quantifier reasoning; the built-in engine
# only expands quantifiers over finitely bounded sorts, so unbounded Int
# binders come back as unknown (an external quantifier-capable solver can
# be plugged in through --solver-cmd / ProcessSession instead).
for strategy in (Strategy.QUANT_INDIVIDUAL, Strategy.QUANT_AGGREGATED):
    verdict = solve(encode(phi, strict, strategy), strict, InternalSession())
    print(f"{strategy.value}, strict specification:", verdict)

# A satisfying model fixes the functions only at the points the formula
# mentions; monotonization completes it into globally monotone tables.
verdict = solve(encode(phi, relaxed, Strategy.INST_LAZY), relaxed, InternalSession())
model = verdict.model
print()
print("model of the relaxed problem:", model)
mono = monotonize_model(model, relaxed)
print("monotonized g on 0..6:", [mono.functions[g.name].lookup((x,)) for x in range(7)])
