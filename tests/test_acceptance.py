"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The desk-scale trend check (criterion 8) generates and solves a
50-instance suite and takes a few minutes; everything else is fast.
"""

import contextlib
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import FIG1_PATH, GOLDEN_DIR

from monoinfer.encode import (
    LazyRunStats,
    Strategy,
    eager_lemma_count,
    encode,
    encode_eager,
    encode_quant_aggregated,
    encode_quant_individual,
    lemma_instances,
    monotonize_model,
    solve,
    solve_lazy,
)
from monoinfer.generate import GeneratorParams, generate_instance
from monoinfer.harness import (
    cumulative_table,
    run_batch,
    run_single,
    solved_counts,
)
from monoinfer.model import FunctionTable, Model
from monoinfer.network import (
    decode_solution,
    encode_inference,
    verify_solution,
)
from monoinfer.oracle import oracle_inference
from monoinfer.problemfile import load_problem, save_problem
from monoinfer.session import InternalSession
from monoinfer.smtlib import collect_declarations, emit_smtlib
from monoinfer.terms import And, FunctionSymbol, INT, MonotonicitySpec


@contextlib.contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    print(f"criterion {number} ({label}): PASS")


def _flat(term):
    return list(term.args) if isinstance(term, And) else [term]


def _solve(formula, spec, encoder):
    return solve(encoder(formula, spec), spec, InternalSession()).kind


# -- criterion 1 -------------------------------------------------------------------


def test_criterion_1_worked_example_regression(ex1):
    with criterion(1, "worked-example regression"):
        started = time.perf_counter()
        assert _solve(ex1.phi, ex1.spec, encode_eager) == "unsat"
        assert _solve(ex1.phi, ex1.spec_relaxed, encode_eager) == "sat"
        assert solve_lazy(ex1.phi, ex1.spec, InternalSession()).kind == "unsat"
        assert solve_lazy(ex1.phi, ex1.spec_relaxed, InternalSession()).kind == "sat"
        # quantified strategies may be indefinite but never contradictory
        for encoder in (encode_quant_individual, encode_quant_aggregated):
            assert _solve(ex1.phi, ex1.spec, encoder) in ("unsat", "unknown")
            assert _solve(ex1.phi, ex1.spec_relaxed, encoder) in ("sat", "unknown")
        assert time.perf_counter() - started < 5.0


# -- criterion 2 -------------------------------------------------------------------


def test_criterion_2_eager_instance_shape(ex1):
    with criterion(2, "eager-instance shape"):
        enc = encode_eager(ex1.phi, ex1.spec)
        assert enc.lemma_count == 4
        parts = _flat(enc.formula)
        assert len(parts[1:]) == 4
        flat = _flat(parts[0]) + parts[1:]
        script = emit_smtlib(collect_declarations(flat), flat)
        golden = (GOLDEN_DIR / "example1_eager.smt2").read_text()
        assert script == golden


# -- criterion 3 -------------------------------------------------------------------


def test_criterion_3_fig1_end_to_end(fig1):
    with criterion(3, "fig1 end-to-end"):
        assert fig1.variables[0].domain.bounds == (0, 3)  # multi-valued path
        for strategy in Strategy:
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "monoinfer.cli",
                    "solve",
                    "--problem",
                    str(FIG1_PATH),
                    "--encoding",
                    strategy.value,
                    "--verify",
                    "--json",
                ],
                capture_output=True,
                text=True,
                timeout=600,
            )
            payload = json.loads(proc.stdout)
            if payload["failure"]:
                continue  # a strategy that does not terminate may be recorded
            assert payload["verdict"] == "sat", strategy
            assert payload["verified"] == "true", strategy
            assert proc.returncode == 0
            record, tables = run_single(
                fig1, strategy, time_limit_ms=600_000, verify=True
            )
            assert record.verdict == "sat" and record.verified
            f_b = {t.symbol.name: t for t in tables}["f_b"]
            assert f_b.lookup((0, 0)) == 0
            assert f_b.lookup((0, 1)) == 1
            assert f_b.lookup((1, 2)) == 2


# -- criterion 4 -------------------------------------------------------------------


def test_criterion_4_monotonization_regression():
    with criterion(4, "monotonization regression"):
        g = FunctionSymbol("g", [INT], INT)
        spec_g = MonotonicitySpec({g: ({1}, set())})
        mono_g = monotonize_model(
            Model({}, {"g": FunctionTable({(0,): 1, (4,): 2}, 0)}), spec_g
        )
        for x in range(-30, 70):  # 100 sampled points
            assert mono_g.evaluate(g, (x,)) == (2 if x >= 4 else 1)

        f = FunctionSymbol("f", [INT, INT], INT)
        spec_f = MonotonicitySpec({f: ({1}, set())})
        mono_f = monotonize_model(
            Model({}, {"f": FunctionTable({(6, 2): 4, (11, 0): 0}, 0)}), spec_f
        )
        samples = [(x, y) for x in range(0, 20) for y in range(0, 5)]
        assert len(samples) == 100
        for x, y in samples:
            expected = 4 if (x >= 6 and y == 2) else 0
            assert mono_f.evaluate(f, (x, y)) == expected, (x, y)


# -- criteria 5, 6, 7: shared instance sweep ------------------------------------------


def _sweep_params():
    # 200 Boolean instances (<= 5 variables, arity <= 3) and 50 ternary
    # instances (<= 3 variables, arity <= 2), planted and perturbed halves
    runs = []
    for seed in range(200):
        runs.append(
            (
                seed,
                GeneratorParams(
                    n_vars=2 + seed % 4,
                    max_arity=1 + seed % 3,
                    domain_size=2,
                    n_observations=1 + seed % 2,
                    mode="planted" if seed % 2 == 0 else "perturbed",
                ),
            )
        )
    for seed in range(50):
        runs.append(
            (
                1000 + seed,
                GeneratorParams(
                    n_vars=2 + seed % 2,
                    max_arity=1 + seed % 2,
                    domain_size=3,
                    n_observations=1 + seed % 2,
                    mode="planted" if seed % 2 == 0 else "perturbed",
                ),
            )
        )
    return runs


@pytest.fixture(scope="module")
def sweep_results():
    results = []
    for seed, params in _sweep_params():
        problem = generate_instance(seed, params)
        formula, spec = encode_inference(problem)

        eager = solve(
            encode(formula, spec, Strategy.INST_EAGER), spec, InternalSession()
        )
        eager_ok = None
        if eager.is_sat:
            tables = decode_solution(eager.model, problem)
            eager_ok = verify_solution(problem, tables).ok

        stats = LazyRunStats()
        lazy = solve(
            encode(formula, spec, Strategy.INST_LAZY), spec, InternalSession(), stats
        )
        lazy_ok = None
        if lazy.is_sat:
            lazy_ok = verify_solution(
                problem, decode_solution(lazy.model, problem)
            ).ok

        oracle_verdict = oracle_inference(problem).verdict

        raw_formula, raw_spec = encode_inference(problem, simplify=False)
        raw = solve(
            encode(raw_formula, raw_spec, Strategy.INST_EAGER),
            raw_spec,
            InternalSession(),
        )

        results.append(
            {
                "seed": seed,
                "eager": eager.kind,
                "eager_verified": eager_ok,
                "lazy": lazy.kind,
                "lazy_verified": lazy_ok,
                "oracle": oracle_verdict,
                "raw": raw.kind,
                "checks": stats.check_sat_calls,
                "bound": eager_lemma_count(formula, spec) + 1,
                "asserted": set(stats.asserted_lemmas),
                "eager_set": {i.term for i in lemma_instances(formula, spec)},
            }
        )
    return results


def test_criterion_5_oracle_cross_validation(sweep_results):
    with criterion(5, "oracle cross-validation"):
        assert len(sweep_results) == 250
        for row in sweep_results:
            assert row["eager"] == row["oracle"], row["seed"]
            assert row["lazy"] == row["oracle"], row["seed"]
            if row["eager"] == "sat":
                assert row["eager_verified"], row["seed"]
                assert row["lazy_verified"], row["seed"]


def test_criterion_6_lazy_loop_bounds(sweep_results):
    with criterion(6, "lazy-loop bounds"):
        for row in sweep_results:
            assert row["checks"] <= row["bound"], row["seed"]
            assert row["asserted"] <= row["eager_set"], row["seed"]


def test_criterion_7_simplification_equivalence(sweep_results):
    with criterion(7, "simplification equivalence"):
        for row in sweep_results:
            assert row["raw"] == row["eager"], row["seed"]


# -- criterion 8 -------------------------------------------------------------------


def test_criterion_8_desk_scale_trend(tmp_path):
    with criterion(8, "desk-scale performance trend"):
        suite_dir = tmp_path / "desk"
        suite_dir.mkdir()
        for i in range(50):
            params = GeneratorParams(
                n_vars=30 + (i * 5) % 21,  # 30..50
                max_arity=8 + i % 5,  # 8..12
                essential_ratio=0.25,
                n_observations=2,
            )
            problem = generate_instance(9000 + i, params)
            save_problem(problem, suite_dir / f"desk_{i:03d}.problem")
        records = run_batch(
            str(suite_dir),
            list(Strategy),
            parallelism=16,
            time_limit_ms=600_000,
        )
        counts = solved_counts(records)
        assert counts[Strategy.INST_EAGER.value] == 50
        assert counts[Strategy.INST_LAZY.value] == 50
        table = cumulative_table(records)
        times = sorted(
            {t for steps in table.values() for t, _ in steps}
        )

        def solved_at(strategy, t):
            steps = table.get(strategy.value, [])
            return max((count for when, count in steps if when <= t), default=0)

        for t in times:
            quantified = max(
                solved_at(Strategy.QUANT_INDIVIDUAL, t),
                solved_at(Strategy.QUANT_AGGREGATED, t),
            )
            instantiated = min(
                solved_at(Strategy.INST_EAGER, t),
                solved_at(Strategy.INST_LAZY, t),
            )
            assert quantified <= instantiated, t


# -- criterion 9 -------------------------------------------------------------------


def test_criterion_9_planted_satisfiability():
    with criterion(9, "planted satisfiability"):
        for seed in range(200):
            params = GeneratorParams(
                n_vars=3 + seed % 4,
                max_arity=1 + seed % 3,
                domain_size=2 if seed % 3 else 3,
                n_observations=1 + seed % 3,
                mode="planted",
            )
            problem = generate_instance(seed, params)
            formula, spec = encode_inference(problem)
            session = InternalSession()
            session.assert_formula(encode_eager(formula, spec).formula)
            assert session.check_sat() == "sat", seed
