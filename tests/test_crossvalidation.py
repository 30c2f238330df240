"""Randomized agreement checks between independent implementations.

Every run pits at least two of: the in-process engine (through each of the
four encodings), the external-process REPL solver, and the brute-force
finite-structure enumerator.  Seeds are fixed; failures print the offending
construction.
"""

import random

from conftest import REPL_SOLVER_CMD

from monoinfer.encode import Strategy, encode, encode_eager, solve
from monoinfer.oracle import oracle_mono_sat
from monoinfer.session import InternalSession, ProcessSession
from monoinfer.terms import (
    BOOL,
    Apply,
    BoolLit,
    Cmp,
    CmpOp,
    Const,
    FunctionSymbol,
    IntLit,
    MonotonicitySpec,
    bounded_int,
    mk_and,
    mk_or,
)

GRID = (0, 2)
DOM = bounded_int(*GRID)


def _random_instance(rng: random.Random):
    """A small mixed formula over one binary and one unary symbol, with all
    integer unknowns pinned into the oracle grid by bounds atoms."""
    f = FunctionSymbol("f", [DOM, DOM], DOM)
    g = FunctionSymbol("g", [DOM], DOM)
    c = Const("c", DOM)
    d = Const("d", DOM)
    literals = [IntLit(v) for v in range(GRID[0], GRID[1] + 1)]
    args = [c, d] + literals
    apps = []
    for _ in range(rng.randint(1, 3)):
        apps.append(Apply(f, (rng.choice(args), rng.choice(args))))
    for _ in range(rng.randint(1, 2)):
        apps.append(Apply(g, (rng.choice(args),)))
    terms = [c, d] + apps + literals
    atoms = []
    for _ in range(rng.randint(2, 5)):
        op = rng.choice([CmpOp.LE, CmpOp.LT, CmpOp.EQ, CmpOp.NE, CmpOp.GE])
        atoms.append(Cmp(op, rng.choice(terms), rng.choice(terms)))
    clauses = []
    for _ in range(rng.randint(1, 3)):
        clauses.append(mk_or(rng.sample(atoms, rng.randint(1, min(2, len(atoms))))))
    bounds = []
    for t in [c, d] + apps:
        bounds.append(Cmp(CmpOp.LE, IntLit(GRID[0]), t))
        bounds.append(Cmp(CmpOp.LE, t, IntLit(GRID[1])))
    phi = mk_and(clauses + bounds)

    def draw_spec():
        roll = rng.random()
        if roll < 0.4:
            return ({1}, set())
        if roll < 0.7:
            return (set(), {1})
        return (set(), set())

    f_mono = set()
    f_anti = set()
    for i in (1, 2):
        roll = rng.random()
        if roll < 0.4:
            f_mono.add(i)
        elif roll < 0.7:
            f_anti.add(i)
    spec = MonotonicitySpec({f: (f_mono, f_anti), g: draw_spec()})
    return phi, spec


def test_four_strategies_and_oracle_agree_on_bounded_instances():
    rng = random.Random(2024)
    sat_seen = unsat_seen = 0
    for trial in range(60):
        phi, spec = _random_instance(rng)
        expected = oracle_mono_sat(phi, spec, GRID, budget=1 << 22)
        verdicts = {
            strategy.value: solve(
                encode(phi, spec, strategy), spec, InternalSession()
            ).kind
            for strategy in Strategy
        }
        for name, verdict in verdicts.items():
            assert verdict == expected, (trial, name, verdict, expected, phi, spec)
        if expected == "sat":
            sat_seen += 1
        else:
            unsat_seen += 1
    assert sat_seen and unsat_seen  # the mix exercises both verdicts


def test_process_solver_matches_internal_engine():
    rng = random.Random(77)
    for trial in range(12):
        phi, spec = _random_instance(rng)
        encoded = encode_eager(phi, spec).formula
        internal = InternalSession()
        internal.assert_formula(encoded)
        expected = internal.check_sat()
        with ProcessSession(REPL_SOLVER_CMD) as session:
            session.assert_formula(encoded)
            assert session.check_sat() == expected, (trial, phi, spec)


def test_boolean_sort_strategies_agree():
    rng = random.Random(5)
    p = FunctionSymbol("p", [BOOL, BOOL], BOOL)
    q = Const("q", BOOL)
    r = Const("r", BOOL)
    for trial in range(40):
        args = [q, r, BoolLit(False), BoolLit(True)]
        apps = [
            Apply(p, (rng.choice(args), rng.choice(args))) for _ in range(rng.randint(1, 3))
        ]
        pool = apps + [q, r]
        atoms = []
        for _ in range(rng.randint(2, 4)):
            op = rng.choice([CmpOp.EQ, CmpOp.NE])
            atoms.append(Cmp(op, rng.choice(pool), rng.choice(pool)))
        phi = mk_and([mk_or(rng.sample(atoms, rng.randint(1, 2)))
                      for _ in range(rng.randint(1, 3))])
        mono = set()
        anti = set()
        for i in (1, 2):
            roll = rng.random()
            if roll < 0.4:
                mono.add(i)
            elif roll < 0.7:
                anti.add(i)
        spec = MonotonicitySpec({p: (mono, anti)})
        verdicts = {
            solve(encode(phi, spec, strategy), spec, InternalSession()).kind
            for strategy in Strategy
        }
        assert len(verdicts) == 1, (trial, phi, spec, verdicts)
