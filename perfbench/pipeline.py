"""One benchmark operation: an (instance, strategy) pair run layer by layer
through the program's public calls.

With a tracer, each call into a layer is wrapped in a span (name, operation
id, parent, start, end) kept in memory, and the per-layer counters are read
from public state once the operation ends.  Without one, the same calls run
with no recording, so the untraced latencies carry no tracing cost.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Optional

from monoinfer.encode import (
    LazyRunStats,
    Strategy,
    encode_eager,
    encode_quant_aggregated,
    encode_quant_individual,
    solve_lazy,
)
from monoinfer.network import decode_solution, encode_inference, verify_solution
from monoinfer.problemfile import parse_problem
from monoinfer.session import SAT, UNKNOWN, UNSAT, InternalSession

from clock import ReferenceClock
from workloads import Instance

OP_TIME_LIMIT_MS = 120_000

ENCODERS = {
    Strategy.QUANT_INDIVIDUAL: encode_quant_individual,
    Strategy.QUANT_AGGREGATED: encode_quant_aggregated,
    Strategy.INST_EAGER: encode_eager,
}

# span name -> per-layer metric holding its self time
SELF_TIME_METRICS = {
    "problemfile.parse": "problemfile.parse_ms",
    "network.encode_inference": "network.encode_inference_ms",
    "encode.strategy_encode": "encode.strategy_encode_ms",
    "encode.solve_lazy": "encode.lazy_self_ms",
    "engine.assert": "engine.assert_ms",
    "engine.check": "engine.check_ms",
    "session.value_of": "session.value_of_ms",
    "session.extract_model": "session.extract_model_ms",
    "network.decode": "network.decode_ms",
    "network.verify": "network.verify_ms",
}
ROOT_SPAN = "operation"


class Tracer:
    """Spans kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, op: int, **attrs):
        record = {
            "id": len(self.spans),
            "op": op,
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def _span(tracer: Optional[Tracer], name: str, op: int, **attrs):
    return nullcontext() if tracer is None else tracer.span(name, op, **attrs)


class TracedSession(InternalSession):
    """The in-process session with a span around each call the pipeline or
    the lazy loop makes into it."""

    def __init__(self, tracer: Tracer, op: int):
        super().__init__()
        self.tracer = tracer
        self.op = op

    def assert_formula(self, term):
        with self.tracer.span("engine.assert", self.op):
            super().assert_formula(term)

    def check_sat(self):
        with self.tracer.span("engine.check", self.op):
            return super().check_sat()

    def value_of(self, terms):
        with self.tracer.span("session.value_of", self.op):
            return super().value_of(terms)

    def extract_model(self):
        with self.tracer.span("session.extract_model", self.op):
            return super().extract_model()


@dataclass
class OpResult:
    instance: str
    strategy: Strategy
    planted: bool
    verdict: Optional[str] = None  # sat | unsat | unknown; None after a crash
    failure: Optional[str] = None  # set when the operation counts as failed
    start: float = 0.0  # perf_counter
    end: float = 0.0
    ms: float = 0.0  # latency at reference speed, set once the clock stops
    lemmas: int = 0  # EncodedProblem.lemma_count; 0 for lazy
    checks: int = 0  # session.check_sat_count
    counters: dict[str, float] = field(default_factory=dict)  # traced runs only

    @property
    def solved(self) -> bool:
        return self.verdict in (SAT, UNSAT)


def run_operation(
    instance: Instance, strategy: Strategy, tracer: Optional[Tracer] = None, op: int = 0
) -> OpResult:
    result = OpResult(instance.name, strategy, instance.planted)
    session = InternalSession() if tracer is None else TracedSession(tracer, op)
    session.set_time_limit(OP_TIME_LIMIT_MS)
    encoded = stats = tables = verification = reason = None
    result.start = time.perf_counter()
    try:
        with _span(tracer, ROOT_SPAN, op, instance=instance.name, strategy=strategy.value):
            with _span(tracer, "problemfile.parse", op):
                problem = parse_problem(instance.text)
            with _span(tracer, "network.encode_inference", op):
                formula, spec = encode_inference(problem)
            if strategy is Strategy.INST_LAZY:
                stats = LazyRunStats()
                with _span(tracer, "encode.solve_lazy", op):
                    verdict = solve_lazy(formula, spec, session, stats)
                result.verdict, model, reason = verdict.kind, verdict.model, verdict.reason
            else:
                with _span(tracer, "encode.strategy_encode", op):
                    encoded = ENCODERS[strategy](formula, spec)
                session.assert_formula(encoded.formula)
                result.verdict = session.check_sat()
                model = session.extract_model() if result.verdict == SAT else None
                reason = session.unknown_reason
            if model is not None:
                with _span(tracer, "network.decode", op):
                    tables = decode_solution(model, problem)
                with _span(tracer, "network.verify", op):
                    verification = verify_solution(problem, tables)
    except Exception as err:  # one crashed operation is a failure, not the end of the run
        result.failure = f"crash: {type(err).__name__}: {err}"
    result.end = time.perf_counter()
    session.dispose()
    result.checks = session.check_sat_count
    if encoded is not None:
        result.lemmas = encoded.lemma_count
    if result.failure is None:
        if result.verdict == UNKNOWN and "timeout" in (reason or ""):
            result.failure = "timeout"
        elif verification is not None and not verification.ok:
            result.failure = f"verification failed: {verification.violation}"
    if tracer is not None:
        engine = session.engine
        learned = sum(engine.sat.is_learned)
        result.counters = {
            "engine.sat_vars": engine.sat.num_vars,
            "engine.sat_clauses": len(engine.sat.clauses) - learned,
            "sat.learned_clauses": learned,
            "engine.theory_rounds": engine.theory_rounds,
            "engine.quant_instances": engine.quant_instances,
            "encode.lemmas": result.lemmas,
            "network.decode_rows": sum(len(t.rows) for t in tables or ()),
        }
        if stats is not None:
            result.counters["encode.lazy_checks"] = stats.check_sat_calls
            result.counters["encode.lazy_asserted_lemmas"] = len(stats.asserted_lemmas)
    return result


def self_times(spans: list[dict], clock: ReferenceClock) -> dict[int, dict[str, float]]:
    """Per operation: each span name's self time, i.e. its duration minus
    the part covered by its child spans, in ms at the reference speed of the
    whole operation."""
    own = [clock.net_ms(span["start"], span["end"]) for span in spans]
    factor = {}
    for span in spans:
        if span["parent"] is None:
            factor[span["op"]] = clock.factor(span["start"], span["end"])
        else:
            own[span["parent"]] -= clock.net_ms(span["start"], span["end"])
    out: dict[int, dict[str, float]] = {}
    for span in spans:
        per_op = out.setdefault(span["op"], {})
        ms = own[span["id"]] * factor[span["op"]]
        per_op[span["name"]] = per_op.get(span["name"], 0.0) + ms
    return out
