import csv
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import FIG1_PATH, GOLDEN_DIR, REPL_SOLVER_CMD

from monoinfer import harness as harness_module
from monoinfer.encode import Strategy
from monoinfer.generate import GeneratorParams, generate_instance
from monoinfer.harness import (
    RunRecord,
    cumulative_table,
    run_batch,
    run_single,
    solved_counts,
    write_cumulative_csv,
    write_records_csv,
)
from monoinfer.network import FixedPointObservation, InferenceProblem, encode_inference
from monoinfer.problemfile import load_problem, save_problem


def test_record_invariant():
    with pytest.raises(ValueError):
        RunRecord("i", "s")
    with pytest.raises(ValueError):
        RunRecord("i", "s", verdict="sat", failure="timeout")


def test_classify_unknown_keeps_theory_budget_a_verdict():
    classify = harness_module._classify_unknown
    assert classify("timeout") == (None, "timeout")
    reason = "unsupported: quantifier expansion budget exceeded (262144 > 65536)"
    assert classify(reason) == (None, "unsupported")
    assert classify("theory budget exhausted") == ("unknown", None)
    assert classify("solver returned unknown") == ("unknown", None)


def test_run_single_fig1_lazy(fig1):
    record, tables = run_single(
        fig1, Strategy.INST_LAZY, verify=True, instance_name="fig1"
    )
    assert record.verdict == "sat"
    assert record.verified is True
    assert record.check_sat_count <= record.lemma_count + 1
    assert tables is not None and len(tables) == 3


def test_run_single_contradiction_unsat(fig1):
    names = {v.name: v for v in fig1.variables}
    extra = FixedPointObservation.of(
        [(names["a"], 0), (names["b"], 0), (names["c"], 1)]
    )
    problem = InferenceProblem(
        fig1.variables, fig1.regulations, fig1.observations + [extra]
    )
    record, _ = run_single(problem, Strategy.INST_EAGER)
    assert record.verdict == "unsat"


def test_run_single_timeout_recorded(fig1):
    record, _ = run_single(
        fig1, Strategy.QUANT_AGGREGATED, time_limit_ms=1, instance_name="fig1"
    )
    assert record.failure == "timeout"
    assert record.verdict is None


def test_run_single_timeout_counts_the_encoding(fig1, monkeypatch):
    # the budget bounds the whole run: encoding that overruns it leaves the
    # solver nothing, though solving alone would answer sat within it
    def slow_encoder(problem, simplify=True):
        time.sleep(0.3)
        return encode_inference(problem, simplify)

    monkeypatch.setattr(harness_module, "encode_inference", slow_encoder)
    record, _ = run_single(fig1, Strategy.INST_LAZY, time_limit_ms=200)
    assert record.failure == "timeout", record
    assert record.verdict is None


def test_run_single_crash_recorded(fig1):
    record, _ = run_single(
        fig1,
        Strategy.INST_EAGER,
        solver_cmd="sh -c 'echo garbage'",
        instance_name="fig1",
    )
    assert record.failure == "crash"


def test_run_single_crash_detail_names_where_it_crashed(fig1, monkeypatch):
    def broken_encoder(problem, simplify=True):
        raise ValueError("encoder fault")

    monkeypatch.setattr(harness_module, "encode_inference", broken_encoder)
    record, _ = run_single(fig1, Strategy.INST_EAGER, instance_name="fig1")
    assert record.failure == "crash"
    assert record.detail.startswith("ValueError: encoder fault (at test_harness.py:")
    assert record.detail.endswith(" in broken_encoder)")


def test_run_single_unbounded_domain_sat_but_unverifiable():
    from monoinfer.terms import INT
    from monoinfer.network import NetworkVariable, Regulation

    v = NetworkVariable("v", INT)
    problem = InferenceProblem(
        [v], [Regulation(v, v)], [FixedPointObservation.of([(v, 7)])]
    )
    record, tables = run_single(problem, Strategy.INST_EAGER, verify=True)
    assert record.verdict == "sat"
    assert record.verified is None
    assert "unavailable" in record.detail
    assert tables is None


def test_run_single_emits_script(fig1, tmp_path):
    target = tmp_path / "fig1.smt2"
    record, _ = run_single(
        fig1, Strategy.INST_EAGER, emit_path=str(target), instance_name="fig1"
    )
    assert record.verdict == "sat"
    assert target.read_text() == (GOLDEN_DIR / "fig1_eager.smt2").read_text()


def test_run_single_records_theory_rounds_and_lazy_lemmas(tmp_path):
    # every regulation essential: lazy asserts pairs in the engine's rounds,
    # all under one check-sat
    params = GeneratorParams(n_vars=6, max_arity=3, domain_size=3, essential_ratio=1.0)
    problem = generate_instance(3, params)
    lazy, _ = run_single(problem, Strategy.INST_LAZY, instance_name="lazy")
    assert lazy.verdict == "sat" and lazy.check_sat_count == 1
    assert lazy.lazy_lemmas > 0 and lazy.theory_rounds > 1
    eager, _ = run_single(problem, Strategy.INST_EAGER, instance_name="eager")
    assert eager.verdict == "sat"
    assert eager.lazy_lemmas is None and eager.theory_rounds >= 1
    # the instantiated strategies expand no quantifier
    assert lazy.quant_instances == eager.quant_instances == 0
    quantified, _ = run_single(problem, Strategy.QUANT_AGGREGATED, instance_name="quantified")
    assert quantified.verdict == "sat" and quantified.quant_instances > 0
    assert quantified.lazy_lemmas is None
    # an external solver's search is not visible: one lemma round per check
    external, _ = run_single(problem, Strategy.INST_LAZY, solver_cmd=REPL_SOLVER_CMD)
    assert external.verdict == "sat" and external.theory_rounds is None
    assert external.quant_instances is None
    assert 0 < external.lazy_lemmas <= external.lemma_count
    assert external.check_sat_count > 1
    path = tmp_path / "records.csv"
    write_records_csv([lazy, eager, quantified, external], str(path))
    with open(path) as handle:
        rows = list(csv.DictReader(handle))
    assert list(rows[0])[-3:] == ["theory_rounds", "lazy_lemmas", "quant_instances"]
    assert [
        (row["theory_rounds"], row["lazy_lemmas"], row["quant_instances"]) for row in rows
    ] == [
        (str(lazy.theory_rounds), str(lazy.lazy_lemmas), "0"),
        (str(eager.theory_rounds), "", "0"),
        (str(quantified.theory_rounds), "", str(quantified.quant_instances)),
        ("", str(external.lazy_lemmas), ""),
    ]


def _make_suite(tmp_path, count=3):
    params = GeneratorParams(n_vars=4, max_arity=2)
    for seed in range(count):
        save_problem(
            generate_instance(seed, params), tmp_path / f"p{seed}.problem"
        )


def test_run_batch_row_counts_and_csv(tmp_path):
    _make_suite(tmp_path, count=3)
    strategies = list(Strategy)
    records = run_batch(
        str(tmp_path), strategies, parallelism=1, time_limit_ms=60_000
    )
    assert len(records) == 4 * 3
    counts = solved_counts(records)
    assert set(counts) == {s.value for s in strategies}
    # planted Boolean instances: everything solves
    assert all(count == 3 for count in counts.values())

    records_csv = tmp_path / "records.csv"
    cumulative_csv = tmp_path / "cumulative.csv"
    write_records_csv(records, str(records_csv))
    write_cumulative_csv(records, str(cumulative_csv))
    with open(records_csv) as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 12
    table = cumulative_table(records)
    for strategy, steps in table.items():
        assert [s for _, s in steps] == list(range(1, len(steps) + 1))
        times = [t for t, _ in steps]
        assert times == sorted(times)
        assert steps[-1][1] == counts[strategy]


def test_run_batch_parallel_matches_sequential(tmp_path):
    _make_suite(tmp_path, count=2)
    seq = run_batch(str(tmp_path), [Strategy.INST_EAGER], parallelism=1)
    par = run_batch(str(tmp_path), [Strategy.INST_EAGER], parallelism=2)
    assert [(r.instance, r.verdict) for r in seq] == [
        (r.instance, r.verdict) for r in par
    ]


def test_run_batch_continues_past_bad_file(tmp_path):
    _make_suite(tmp_path, count=1)
    (tmp_path / "broken.problem").write_text("not a problem file\n")
    records = run_batch(str(tmp_path), [Strategy.INST_EAGER], parallelism=1)
    by_name = {r.instance: r for r in records}
    assert by_name["broken"].failure == "crash"
    assert by_name["p0"].verdict == "sat"


def test_run_batch_empty_dir(tmp_path):
    with pytest.raises(FileNotFoundError):
        run_batch(str(tmp_path), [Strategy.INST_EAGER])


# -- CLI ------------------------------------------------------------------------------


def _cli(*args, expect=None, memory_mb=None):
    def limit_memory():  # a listed huge domain fails fast instead of growing
        limit = memory_mb * 1024 * 1024
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(
        [sys.executable, "-m", "monoinfer.cli", *args],
        capture_output=True,
        text=True,
        timeout=300,
        preexec_fn=limit_memory if memory_mb else None,
    )
    if expect is not None:
        assert proc.returncode == expect, (proc.stdout, proc.stderr)
    return proc


def test_cli_solve_sat_exit_code():
    proc = _cli(
        "solve", "--problem", str(FIG1_PATH), "--encoding", "instantiated-lazy",
        "--verify", expect=0,
    )
    assert "sat" in proc.stdout
    assert "verified: True" in proc.stdout


def test_cli_solve_json_output():
    proc = _cli(
        "solve", "--problem", str(FIG1_PATH), "--json", expect=0
    )
    payload = json.loads(proc.stdout)
    assert payload["verdict"] == "sat"
    assert payload["strategy"] == "instantiated-lazy"
    assert payload["theory_rounds"] >= 1 and payload["lazy_lemmas"] >= 0
    assert payload["quant_instances"] == 0


def test_cli_solve_unsat_exit_code(tmp_path, fig1):
    names = {v.name: v for v in fig1.variables}
    bad = InferenceProblem(
        fig1.variables,
        fig1.regulations,
        fig1.observations
        + [FixedPointObservation.of([(names["a"], 0), (names["b"], 0), (names["c"], 1)])],
    )
    path = tmp_path / "bad.problem"
    save_problem(bad, path)
    _cli("solve", "--problem", str(path), "--encoding", "instantiated-eager", expect=1)


def test_cli_solve_timeout_exit_code():
    _cli(
        "solve", "--problem", str(FIG1_PATH), "--encoding", "quantified-aggregated",
        "--timeout-ms", "1", expect=2,
    )


def test_cli_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.problem"
    bad.write_text("monoinfer-problem 1\nvariables\n  a bool 5\nend\n")
    proc = _cli("solve", "--problem", str(bad), expect=65)
    assert "error" in proc.stderr


def test_cli_empty_integer_range_exit_code(tmp_path):
    bad = tmp_path / "empty.problem"
    bad.write_text("monoinfer-problem 1\nvariables\n  a int 5..3\nend\n")
    for command in ("solve", "oracle"):
        proc = _cli(command, "--problem", str(bad), expect=65)
        assert "line 3: empty bounds interval (5, 3)" in proc.stderr


def test_cli_undecodable_problem_file_exit_code(tmp_path):
    bad = tmp_path / "latin1.problem"
    bad.write_bytes(b"monoinfer-problem 1\nvariables\n  \xe9t\xe9 bool\nend\n")
    for command in ("solve", "oracle"):
        proc = _cli(command, "--problem", str(bad), expect=65)
        assert "can't decode byte 0xe9" in proc.stderr
        assert "Traceback" not in proc.stderr


HUGE_RESULT_DOMAIN = """\
monoinfer-problem 1
variables
  a int 0..1000000000000000
  b bool
end
regulations
  b -> a sign=mono essential
  b -> b sign=mono
end
observations
  O1 { a=5 }
end
"""


def test_cli_huge_result_domain_is_never_listed(tmp_path):
    path = tmp_path / "huge.problem"
    path.write_text(HUGE_RESULT_DOMAIN)
    for strategy in ("instantiated-eager", "instantiated-lazy"):
        proc = _cli(
            "solve", "--problem", str(path), "--encoding", strategy, "--verify",
            expect=0, memory_mb=2048,
        )
        assert f"{strategy}: sat" in proc.stdout
        assert "verified: True" in proc.stdout
    proc = _cli("oracle", "--problem", str(path), expect=0, memory_mb=2048)
    assert proc.stdout.splitlines() == ["sat", "witness verified: True"]
    # counting every table of `a` meets the budget, which refuses the file
    proc = _cli("oracle", "--problem", str(path), "--count-solutions", expect=2, memory_mb=2048)
    assert "enumeration budget exceeded" in proc.stderr


HUGE_ARGUMENT_DOMAIN = """\
monoinfer-problem 1
variables
  a int 0..1000000000000000
  b bool
end
regulations
  a -> b sign=mono
  b -> a sign=mono
end
observations
  O1 { a=5 }
end
"""


def test_cli_huge_argument_domain_is_refused_by_grid_size(tmp_path):
    # b's table has a row per value of a: neither decode nor the oracle can
    # tabulate it, and both refuse before listing a's axis
    path = tmp_path / "huge.problem"
    path.write_text(HUGE_ARGUMENT_DOMAIN)
    for strategy in ("instantiated-eager", "instantiated-lazy"):
        proc = _cli(
            "solve", "--problem", str(path), "--encoding", strategy, "--verify",
            expect=0, memory_mb=2048,
        )
        assert f"{strategy}: sat" in proc.stdout
        assert "verification unavailable: f_b: grid of 1000000000000001 points" in proc.stdout
    proc = _cli("oracle", "--problem", str(path), expect=2, memory_mb=2048)
    assert "f_b: grid of 1000000000000001 points exceeds the budget" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_usage_error_exit_code():
    _cli("solve", "--problem", str(FIG1_PATH), "--encoding", "bogus", expect=64)
    _cli("frobnicate", expect=64)


def test_cli_no_simplify_agrees():
    plain = _cli("solve", "--problem", str(FIG1_PATH), "--json", expect=0)
    raw = _cli("solve", "--problem", str(FIG1_PATH), "--no-simplify", "--json", expect=0)
    assert json.loads(plain.stdout)["verdict"] == json.loads(raw.stdout)["verdict"]


def test_cli_solver_cmd_process_backend():
    _cli(
        "solve", "--problem", str(FIG1_PATH), "--encoding", "instantiated-eager",
        "--solver-cmd", REPL_SOLVER_CMD, expect=0,
    )


def test_cli_env_var_selects_solver():
    import os

    env = dict(os.environ, MONOINFER_SOLVER_CMD=REPL_SOLVER_CMD)
    proc = subprocess.run(
        [
            sys.executable, "-m", "monoinfer.cli", "solve",
            "--problem", str(FIG1_PATH), "--encoding", "instantiated-lazy",
        ],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "sat" in proc.stdout


def test_cli_generate_bench_oracle_round_trip(tmp_path):
    out_dir = tmp_path / "suite"
    proc = _cli(
        "generate", "--seed", "5", "--count", "3", "--out-dir", str(out_dir),
        "--n-vars", "4", "--max-arity", "2", expect=0,
    )
    files = sorted(out_dir.glob("*.problem"))
    assert len(files) == 3
    csv_out = tmp_path / "records.csv"
    _cli(
        "bench", str(out_dir), "--strategies",
        "instantiated-eager,instantiated-lazy", "--parallel", "2",
        "--csv-out", str(csv_out), expect=0,
    )
    with open(csv_out) as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 6
    assert (tmp_path / "records.csv.cumulative.csv").exists()
    proc = _cli("oracle", "--problem", str(files[0]), "--count-solutions", expect=0)
    assert "sat" in proc.stdout
    assert "solutions:" in proc.stdout
    assert "witness verified: True" in proc.stdout


def test_cli_emit_smt2(tmp_path):
    target = tmp_path / "out.smt2"
    _cli(
        "solve", "--problem", str(FIG1_PATH), "--encoding", "instantiated-eager",
        "--emit-smt2", str(target), expect=0,
    )
    # every ground lemma, byte for byte, although solving builds none
    assert target.read_text() == (GOLDEN_DIR / "fig1_eager.smt2").read_text()


STALLING_SOLVER = """\
import sys, time
for line in sys.stdin:
    if line.startswith("(check-sat"):
        print("sat", flush=True)
    elif line.startswith("(get-"):
        time.sleep(60)
"""


@pytest.mark.parametrize("strategy", [Strategy.INST_LAZY, Strategy.INST_EAGER])
def test_run_single_model_query_timeout_is_timeout(fig1, tmp_path, strategy):
    # the solver answers sat, then stalls on get-value / get-model
    script = tmp_path / "stalling_solver.py"
    script.write_text(STALLING_SOLVER)
    record, _ = run_single(
        fig1,
        strategy,
        solver_cmd=f"{sys.executable} {script}",
        time_limit_ms=1000,
        instance_name="fig1",
    )
    assert record.failure == "timeout", record
    assert record.verdict is None


REFUSING_SOLVER = """\
import sys
for line in sys.stdin:
    if line.startswith("(check-sat"):
        print("sat", flush=True)
    elif line.startswith("(get-"):
        print('(error "cannot answer")', flush=True)
"""


@pytest.mark.parametrize("strategy", [Strategy.INST_LAZY, Strategy.INST_EAGER])
def test_run_single_model_query_error_is_crash(fig1, tmp_path, strategy):
    # the solver answers sat, then errors on get-value / get-model: a backend
    # failure, not an unknown verdict
    script = tmp_path / "refusing_solver.py"
    script.write_text(REFUSING_SOLVER)
    record, _ = run_single(
        fig1,
        strategy,
        solver_cmd=f"{sys.executable} {script}",
        time_limit_ms=10_000,
        instance_name="fig1",
    )
    assert record.failure == "crash", record
    assert record.verdict is None
    assert "SolverProcessError" in record.detail


NON_ITE_MODEL_SOLVER = """\
import sys
from monoinfer import smtserver

serve_command = smtserver.SmtServer.handle


def handle(self, command):
    # a legal get-model body outside the nested-ite fragment
    if command == ["get-model"]:
        return "((define-fun f_a ((x!0 Bool)) Bool (f_a!1 x!0)))"
    return serve_command(self, command)


smtserver.SmtServer.handle = handle
sys.exit(smtserver.main())
"""


@pytest.mark.parametrize("strategy", [Strategy.INST_EAGER, Strategy.INST_LAZY])
def test_run_single_reads_models_without_get_model(fig1, tmp_path, strategy):
    # the process driver builds its model from get-value, so a get-model
    # answer it cannot parse never reaches it
    script = tmp_path / "non_ite_model_solver.py"
    script.write_text(NON_ITE_MODEL_SOLVER)
    record, _ = run_single(
        fig1,
        strategy,
        solver_cmd=f"{sys.executable} {script}",
        time_limit_ms=60_000,
        verify=True,
        instance_name="fig1",
    )
    assert record.verdict == "sat", record
    assert record.verified is True, record
