import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIG1_PATH, REPL_SOLVER_CMD

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
from monoinfer.network import FixedPointObservation, InferenceProblem
from monoinfer.problemfile import load_problem, save_problem


def test_record_invariant():
    with pytest.raises(ValueError):
        RunRecord("i", "s")
    with pytest.raises(ValueError):
        RunRecord("i", "s", verdict="sat", failure="timeout")


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
    text = target.read_text()
    assert text.startswith("(set-logic UFLIA)")
    assert text.rstrip().endswith("(check-sat)")


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


def _cli(*args, expect=None):
    proc = subprocess.run(
        [sys.executable, "-m", "monoinfer.cli", *args],
        capture_output=True,
        text=True,
        timeout=300,
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
    assert target.read_text().startswith("(set-logic UFLIA)")


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
