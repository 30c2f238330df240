"""Inferring update functions of a three-gene network from fixed points.

The problems/fig1.problem instance has three integer-valued genes over
{0..3}, six signed and essential regulations, and three observed fixed
points.  We translate it into a quantifier-free formula over uninterpreted
update functions plus a monotonicity specification, solve it, decode the
model into complete update tables, and re-verify those tables directly
against the problem semantics.
"""

from pathlib import Path

from monoinfer import (
    InternalSession,
    decode_solution,
    encode_inference,
    load_problem,
    Strategy,
    oracle_inference,
    verify_solution,
)
from monoinfer.encode import encode, solve

problem = load_problem(Path(__file__).parent.parent / "problems" / "fig1.problem")
print("variables:   ", [v.name for v in problem.variables])
print("regulations: ", len(problem.regulations))
print("observations:", [o.name for o in problem.observations])
print()

formula, spec = encode_inference(problem)
print("monotonicity specification:", spec)
print("encoded conjuncts:", len(formula.args))
print()

verdict = solve(encode(formula, spec, Strategy.INST_LAZY), spec, InternalSession())
print("verdict:", verdict.kind)

tables = decode_solution(verdict.model, problem)
result = verify_solution(problem, tables)
print("independent verification:", "pass" if result.ok else result.violation)
print()

for table in tables:
    print(f"{table.symbol.name} ({len(table.rows)} rows):")
    shown = 0
    for point, out in table.rows.items():
        print(f"  {table.symbol.name}{point} = {out}")
        shown += 1
        if shown == 6 and len(table.rows) > 8:
            print(f"  ... {len(table.rows) - shown} more rows")
            break
print()

# the τ constraints pin these rows in every admissible solution
f_b = {t.symbol.name: t for t in tables}["f_b"]
print("forced by the observations:")
for point in ((0, 0), (0, 1), (1, 2)):
    print(f"  f_b{point} = {f_b.lookup(point)}")
print()

# the brute-force oracle agrees (and can count admissible solutions on
# shrunken domains; see the library tests)
print("brute-force oracle verdict:", oracle_inference(problem).verdict)

# a contradictory extra observation flips the verdict
from monoinfer import FixedPointObservation, InferenceProblem

names = {v.name: v for v in problem.variables}
extra = FixedPointObservation.of(
    [(names["a"], 0), (names["b"], 0), (names["c"], 1)], "conflict"
)
bad = InferenceProblem(
    problem.variables, problem.regulations, problem.observations + [extra]
)
formula_bad, spec_bad = encode_inference(bad)
encoded_bad = encode(formula_bad, spec_bad, Strategy.INST_EAGER)
verdict_bad = solve(encoded_bad, spec_bad, InternalSession())
print("with a contradictory observation:", verdict_bad.kind)
