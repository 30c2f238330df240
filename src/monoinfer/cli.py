"""Command-line interface.

Subcommands: solve (one problem, one encoding), generate (seeded random
instances), bench (directory batch with CSV output), oracle (brute-force
ground truth for tiny instances).  Exit codes: 0 sat, 1 unsat, 2
unknown/failure, 64 usage error, 65 problem parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Union

from .encode import Strategy
from .generate import GeneratorParams, generate_instance
from .harness import (
    DEFAULT_PARALLELISM,
    DEFAULT_TIME_LIMIT_MS,
    run_batch,
    run_single,
    solved_counts,
    write_cumulative_csv,
    write_records_csv,
)
from .oracle import OracleBudgetError, count_solutions, oracle_inference
from .network import InferenceProblem, ProblemError, verify_solution
from .problemfile import load_problem, save_problem
from .session import ENV_SOLVER_CMD

EXIT_SAT = 0
EXIT_UNSAT = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64
EXIT_PARSE = 65

STRATEGY_NAMES = [s.value for s in Strategy]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="monoinfer",
        description="SMT with monotone uninterpreted functions; "
        "logic-based network inference.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one problem file")
    solve.add_argument("--problem", required=True, help="path to a .problem file")
    solve.add_argument(
        "--encoding",
        choices=STRATEGY_NAMES,
        default=Strategy.INST_LAZY.value,
        help="monotonicity handling strategy",
    )
    solve.add_argument(
        "--solver-cmd",
        default=None,
        help=f"solver command ('internal' for the built-in engine; "
        f"default from ${ENV_SOLVER_CMD} or internal)",
    )
    solve.add_argument("--timeout-ms", type=int, default=DEFAULT_TIME_LIMIT_MS)
    solve.add_argument("--emit-smt2", metavar="PATH", default=None)
    solve.add_argument(
        "--verify",
        action="store_true",
        help="decode sat models into tables and check them independently",
    )
    solve.add_argument(
        "--no-simplify",
        action="store_true",
        help="disable value propagation and Boolean essentiality instantiation",
    )
    solve.add_argument("--json", action="store_true", help="machine-readable output")

    gen = sub.add_parser("generate", help="generate seeded random instances")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--count", type=int, default=1, help="instances (seed, seed+1, ...)")
    gen.add_argument("--out-dir", required=True)
    gen.add_argument("--n-vars", type=int, default=5)
    gen.add_argument("--max-arity", type=int, default=3)
    gen.add_argument("--domain-size", type=int, default=2)
    gen.add_argument("--sign-ratio", type=float, default=0.8)
    gen.add_argument("--essential-ratio", type=float, default=0.5)
    gen.add_argument("--observations", type=int, default=2)
    gen.add_argument("--mode", choices=["planted", "perturbed"], default="planted")

    bench = sub.add_parser("bench", help="run a directory of instances")
    bench.add_argument("directory")
    bench.add_argument(
        "--strategies",
        default=",".join(STRATEGY_NAMES),
        help="comma-separated strategy list",
    )
    bench.add_argument("--parallel", type=int, default=DEFAULT_PARALLELISM)
    bench.add_argument("--timeout-ms", type=int, default=DEFAULT_TIME_LIMIT_MS)
    bench.add_argument("--solver-cmd", default=None)
    bench.add_argument("--csv-out", required=True, help="per-record CSV path")
    bench.add_argument(
        "--cumulative-out",
        default=None,
        help="cumulative (time, solved) CSV path (default: <csv-out>.cumulative.csv)",
    )
    bench.add_argument("--verify", action="store_true")

    oracle = sub.add_parser("oracle", help="brute-force verdict (tiny instances)")
    oracle.add_argument("--problem", required=True)
    oracle.add_argument("--count-solutions", action="store_true")
    oracle.add_argument("--budget", type=int, default=1 << 20)

    return parser


def _load(path: str) -> Union[InferenceProblem, int]:
    """The problem at `path`, or the exit code after reporting why it
    cannot be loaded.  Parse and validation errors and undecodable bytes are
    all ValueErrors."""
    try:
        return load_problem(path)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


def _cmd_solve(args) -> int:
    problem = _load(args.problem)
    if isinstance(problem, int):
        return problem
    strategy = Strategy(args.encoding)
    record, tables = run_single(
        problem,
        strategy,
        solver_cmd=args.solver_cmd,
        time_limit_ms=args.timeout_ms,
        verify=args.verify,
        simplify=not args.no_simplify,
        emit_path=args.emit_smt2,
        instance_name=Path(args.problem).stem,
    )
    if args.json:
        print(json.dumps(record.as_row()))
    else:
        outcome = record.verdict or f"failure:{record.failure}"
        line = f"{record.instance} {record.strategy}: {outcome} ({record.wall_ms:.1f} ms"
        line += f", lemmas={record.lemma_count}, check-sat={record.check_sat_count})"
        print(line)
        if record.detail:
            print(f"  {record.detail}")
        if record.verified is not None:
            print(f"  verified: {record.verified}")
        if tables and args.verify:
            for table in tables:
                print(f"  {table.symbol.name}: {len(table.rows)} rows, grid {table.grid_size} points")
    if record.verdict == "sat":
        # never report success for a decoded solution that failed verification
        return EXIT_UNKNOWN if record.verified is False else EXIT_SAT
    if record.verdict == "unsat":
        return EXIT_UNSAT
    return EXIT_UNKNOWN


def _cmd_generate(args) -> int:
    params = GeneratorParams(
        n_vars=args.n_vars,
        max_arity=args.max_arity,
        domain_size=args.domain_size,
        sign_ratio=args.sign_ratio,
        essential_ratio=args.essential_ratio,
        n_observations=args.observations,
        mode=args.mode,
    )
    try:
        params.validate()
    except ProblemError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for seed in range(args.seed, args.seed + args.count):
        problem = generate_instance(seed, params)
        path = out_dir / f"{args.mode}_{seed:06d}.problem"
        save_problem(problem, path)
        print(path)
    return EXIT_SAT


def _cmd_bench(args) -> int:
    try:
        strategies = [Strategy(name.strip()) for name in args.strategies.split(",")]
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    try:
        records = run_batch(
            args.directory,
            strategies,
            parallelism=args.parallel,
            time_limit_ms=args.timeout_ms,
            solver_cmd=args.solver_cmd,
            verify=args.verify,
        )
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    write_records_csv(records, args.csv_out)
    cumulative_path = args.cumulative_out or f"{args.csv_out}.cumulative.csv"
    write_cumulative_csv(records, cumulative_path)
    for strategy, count in sorted(solved_counts(records).items()):
        print(f"{strategy}: solved {count}")
    print(f"records: {args.csv_out}")
    print(f"cumulative: {cumulative_path}")
    return EXIT_SAT


def _cmd_oracle(args) -> int:
    problem = _load(args.problem)
    if isinstance(problem, int):
        return problem
    try:
        result = oracle_inference(problem, budget=args.budget)
        if args.count_solutions:
            print(f"solutions: {count_solutions(problem, budget=args.budget)}")
        print(result.verdict)
        if result.is_sat:
            check = verify_solution(problem, result.tables)
            print(f"witness verified: {check.ok}")
    except (OracleBudgetError, ProblemError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_UNKNOWN
    return EXIT_SAT if result.is_sat else EXIT_UNSAT


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse raises SystemExit(0) for --help
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    handlers = {
        "solve": _cmd_solve,
        "generate": _cmd_generate,
        "bench": _cmd_bench,
        "oracle": _cmd_oracle,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
