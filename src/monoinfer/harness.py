"""Single-query runner and the batch benchmark harness.

Each run encodes a problem under one strategy, solves it through a session
(in-process engine or an external SMT-LIB2 solver), and records the verdict
or failure kind together with wall-clock time (inclusive of parsing and
encoding overhead), lemma and check-sat counts, and what the search did:
the in-process engine's theory rounds and the lemmas lazy asserted.  The
batch runner fans jobs out over a process pool and emits a per-record CSV
plus per-strategy cumulative (time, solved-count) tables ready for
plotting.
"""

from __future__ import annotations

import csv
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional, Sequence

from .encode import LazyRunStats, Strategy, encode, encode_eager, solve
from .network import (
    InferenceProblem,
    ProblemError,
    UpdateFunctionTable,
    decode_solution,
    encode_inference,
    verify_solution,
)
from .problemfile import load_problem
from .session import SAT, TIMEOUT, UNKNOWN, UNSAT, InternalSession, open_session
from .smtlib import emit_script
from .terms import And

CRASH = "crash"
UNSUPPORTED = "unsupported"

DEFAULT_TIME_LIMIT_MS = 600_000  # the evaluation's 10-minute budget
DEFAULT_PARALLELISM = os.cpu_count() or 1  # more jobs than cores time the scheduler


@dataclass
class RunRecord:
    instance: str
    strategy: str
    verdict: Optional[str] = None  # sat | unsat | unknown
    failure: Optional[str] = None  # timeout | crash | unsupported
    wall_ms: float = 0.0
    lemma_count: int = 0
    check_sat_count: int = 0
    verified: Optional[bool] = None
    detail: str = ""
    theory_rounds: Optional[int] = None  # in-process engine only
    lazy_lemmas: Optional[int] = None  # lemmas lazy asserted; lazy only
    quant_instances: Optional[int] = None  # in-process engine only

    def __post_init__(self):
        if (self.verdict is None) == (self.failure is None):
            raise ValueError("exactly one of verdict/failure must be set")

    @property
    def solved(self) -> bool:
        return self.verdict in (SAT, UNSAT)

    def as_row(self) -> dict:
        """The record's fields in declaration order, formatted for CSV/JSON."""
        return asdict(self) | {
            "verdict": self.verdict or "",
            "failure": self.failure or "",
            "wall_ms": f"{self.wall_ms:.3f}",
            "verified": "" if self.verified is None else str(self.verified).lower(),
            "theory_rounds": "" if self.theory_rounds is None else self.theory_rounds,
            "lazy_lemmas": "" if self.lazy_lemmas is None else self.lazy_lemmas,
            "quant_instances": "" if self.quant_instances is None else self.quant_instances,
        }


def _classify_unknown(reason: Optional[str]) -> tuple[Optional[str], Optional[str]]:
    """Map an unknown reason onto (verdict, failure) per the record schema:
    timeouts and fragment refusals are failures; a genuine solver 'unknown'
    stays a verdict."""
    text = (reason or "").lower()
    if TIMEOUT in text:
        return None, TIMEOUT
    if "unsupported" in text:
        return None, UNSUPPORTED
    return UNKNOWN, None


def run_single(
    problem: InferenceProblem,
    strategy: Strategy,
    solver_cmd: Optional[str] = None,
    time_limit_ms: int = DEFAULT_TIME_LIMIT_MS,
    verify: bool = False,
    simplify: bool = True,
    emit_path: Optional[str] = None,
    instance_name: str = "instance",
) -> tuple[RunRecord, Optional[list[UpdateFunctionTable]]]:
    """Encode + solve one instance under one strategy.

    Timing covers encoding and solving; solver failures and timeouts are
    captured in the record rather than raised.  With verify=True a sat model
    is decoded and independently checked, and the result noted.
    """
    start = time.perf_counter()
    tables: Optional[list[UpdateFunctionTable]] = None
    record = None
    session = None
    try:
        formula, spec = encode_inference(problem, simplify=simplify)
        encoded = encode(formula, spec, strategy)
        # quantified: number of axioms; eager: ground lemmas; lazy: the
        # candidate-set bound (same as eager's count)
        lemma_count = encoded.lemma_count
        if emit_path is not None:
            # the script states every eager lemma; `solve` builds none
            eager = strategy is Strategy.INST_EAGER
            target = (encode_eager(formula, spec) if eager else encoded).formula
            assertions = list(target.args) if isinstance(target, And) else [target]
            script = emit_script(assertions)
            Path(emit_path).write_text(script, encoding="utf-8")
        session = open_session(solver_cmd)
        session.set_time_limit(time_limit_ms)
        stats = LazyRunStats()
        verdict = solve(encoded, spec, session, stats)
        if verdict.kind == UNKNOWN:
            kind, failure = _classify_unknown(verdict.reason)
        else:
            kind, failure = verdict.kind, None
        record = RunRecord(
            instance_name,
            strategy.value,
            verdict=kind,
            failure=failure,
            wall_ms=(time.perf_counter() - start) * 1000.0,
            lemma_count=lemma_count,
            check_sat_count=session.check_sat_count,
            detail=verdict.reason or "",
        )
        if isinstance(session, InternalSession):
            record.theory_rounds = session.engine.theory_rounds
            record.quant_instances = session.engine.quant_instances
        if strategy is Strategy.INST_LAZY:
            record.lazy_lemmas = len(stats.asserted_lemmas)
        if verdict.is_sat and verify:
            try:
                tables = decode_solution(verdict.model, problem)
                result = verify_solution(problem, tables)
                record.verified = bool(result.ok)
                if not result.ok:
                    record.detail = f"verification failed: {result.violation}"
            except ProblemError as err:
                # e.g. unbounded domains: tables are only defined over
                # finite grids, so the verdict stands unverified
                record.detail = f"verification unavailable: {err}"
    except Exception as err:  # harness must never crash on one instance
        wall_ms = (time.perf_counter() - start) * 1000.0
        where = traceback.extract_tb(err.__traceback__)[-1]
        record = RunRecord(
            instance_name,
            strategy.value,
            failure=CRASH,
            wall_ms=wall_ms,
            detail=f"{type(err).__name__}: {err} "
            f"(at {Path(where.filename).name}:{where.lineno} in {where.name})",
        )
    finally:
        if session is not None:
            session.dispose()
    return record, tables


def _batch_job(args) -> RunRecord:
    path, strategy_value, solver_cmd, time_limit_ms, verify = args
    started = time.perf_counter()
    try:
        problem = load_problem(path)
    except Exception as err:
        return RunRecord(
            Path(path).stem,
            strategy_value,
            failure=CRASH,
            wall_ms=(time.perf_counter() - started) * 1000.0,
            detail=f"parse error: {err}",
        )
    parse_ms = (time.perf_counter() - started) * 1000.0
    record, _ = run_single(
        problem,
        Strategy(strategy_value),
        solver_cmd=solver_cmd,
        time_limit_ms=time_limit_ms,
        verify=verify,
        instance_name=Path(path).stem,
    )
    # recorded time covers all initialization overhead, parsing included
    record.wall_ms += parse_ms
    return record


def run_batch(
    instance_dir: str,
    strategies: Sequence[Strategy],
    parallelism: int = DEFAULT_PARALLELISM,
    time_limit_ms: int = DEFAULT_TIME_LIMIT_MS,
    solver_cmd: Optional[str] = None,
    verify: bool = False,
) -> list[RunRecord]:
    """Run every .problem file under instance_dir against every strategy.

    Per-instance failures are recorded and the batch continues; results come
    back in deterministic (file, strategy) order.
    """
    paths = sorted(
        str(p) for p in Path(instance_dir).glob("*.problem")
    )
    if not paths:
        raise FileNotFoundError(f"no .problem files under {instance_dir}")
    jobs = [
        (path, strategy.value, solver_cmd, time_limit_ms, verify)
        for path in paths
        for strategy in strategies
    ]
    if parallelism <= 1:
        return [_batch_job(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=parallelism) as pool:
        return list(pool.map(_batch_job, jobs))


def write_records_csv(records: Sequence[RunRecord], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=[f.name for f in fields(RunRecord)])
        writer.writeheader()
        for record in records:
            writer.writerow(record.as_row())


def cumulative_table(records: Sequence[RunRecord]) -> dict[str, list[tuple[float, int]]]:
    """Per strategy: sorted (wall_ms, solved-so-far) steps over solved runs,
    a monotone step function ending at the strategy's solved count."""
    out: dict[str, list[tuple[float, int]]] = {}
    by_strategy: dict[str, list[float]] = {}
    for record in records:
        by_strategy.setdefault(record.strategy, [])
        if record.solved:
            by_strategy[record.strategy].append(record.wall_ms)
    for strategy, times in by_strategy.items():
        times.sort()
        out[strategy] = [(t, i + 1) for i, t in enumerate(times)]
    return out


def write_cumulative_csv(records: Sequence[RunRecord], path: str) -> None:
    table = cumulative_table(records)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["strategy", "wall_ms", "solved"])
        for strategy in sorted(table):
            for wall_ms, solved in table[strategy]:
                writer.writerow([strategy, f"{wall_ms:.3f}", solved])


def solved_counts(records: Sequence[RunRecord]) -> dict[str, int]:
    return {s: len(steps) for s, steps in cumulative_table(records).items()}
