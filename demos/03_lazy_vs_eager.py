"""Eager versus lazy lemma instantiation on growing planted instances.

The eager encoding asserts every ground monotonicity lemma up front
(quadratic in the number of applications per symbol); the lazy strategy
asserts only the lemmas that candidate models violate.  In-process, the
engine checks them in its theory rounds, so one check-sat call answers and
the rounds column shows how many candidate models it went through.  On
loosely constrained satisfiable instances that takes a couple of rounds and
a tiny fraction of the lemma set.
"""

import time

from monoinfer import GeneratorParams, InternalSession, Strategy, generate_instance
from monoinfer.encode import LazyRunStats, encode, lemma_pairs, solve
from monoinfer.network import encode_inference

print(f"{'vars':>5} {'arity':>5} {'lemmas':>7} {'eager ms':>9} "
      f"{'lazy ms':>8} {'checks':>6} {'rounds':>6} {'asserted':>8}")

for n_vars, max_arity in ((10, 4), (20, 6), (30, 8), (40, 10), (50, 12)):
    params = GeneratorParams(
        n_vars=n_vars,
        max_arity=max_arity,
        essential_ratio=0.25,
        n_observations=2,
    )
    problem = generate_instance(n_vars, params)
    formula, spec = encode_inference(problem)

    started = time.perf_counter()
    eager = encode(formula, spec, Strategy.INST_EAGER)
    eager_verdict = solve(eager, spec, InternalSession())
    eager_ms = (time.perf_counter() - started) * 1000

    stats = LazyRunStats()
    session = InternalSession()
    started = time.perf_counter()
    lazy = encode(formula, spec, Strategy.INST_LAZY)
    lazy_verdict = solve(lazy, spec, session, stats)
    lazy_ms = (time.perf_counter() - started) * 1000

    lemmas = eager.lemma_count
    assert eager_verdict.kind == lazy_verdict.kind == "sat"
    assert set(stats.asserted_lemmas) <= set(lemma_pairs(formula, spec))
    assert stats.check_sat_calls <= lemmas + 1
    print(f"{n_vars:>5} {max_arity:>5} {lemmas:>7} {eager_ms:>9.1f} "
          f"{lazy_ms:>8.1f} {stats.check_sat_calls:>6} "
          f"{session.engine.theory_rounds:>6} {len(stats.asserted_lemmas):>8}")

print()
print("every lazily asserted lemma is one of the eager lemmas, and the")
print("number of check-sat calls is bounded by (eager lemma count + 1).")
