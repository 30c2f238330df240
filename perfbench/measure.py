"""Set-up, measurement, correctness checks and metrics of one benchmark run.

Imported by run.py once the program's source is on the import path.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

from monoinfer.encode import Strategy
from monoinfer.harness import run_single
from monoinfer.network import encode_inference
from monoinfer.problemfile import parse_problem
from monoinfer.session import SAT, UNSAT
from monoinfer.terms import iter_subterms

from clock import ReferenceClock
from pipeline import ROOT_SPAN, SELF_TIME_METRICS, Tracer, run_operation, self_times
from workloads import WORKLOADS, generate, label

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / "perfbench" / "out"
SETUP_REPEATS = 3
# in untraced runs an operation repeats within a pass until it has run this
# long, so short operations get more samples
MIN_OP_MS = 200.0
# ROADMAP baseline split of eager operations on arity-8 desk instances (%):
# encode_inference, lemma construction, grounding, SAT, decode, verify
ROADMAP_DESK_SPLIT = {
    "network.encode_inference": 37,
    "encode.strategy_encode": 16,
    "engine.assert": 16,
    "engine.check": 14,
    "network.decode": 11,
    "network.verify": 7,
}


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _quantile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


@dataclass
class SetUp:
    instances: list  # relabelled for the seed and serialized
    built: list[tuple[float, float]]  # perf_counter interval per instance
    generated: list[tuple[float, float]]  # the part spent in generate_instance


def set_up(workload, seed, count=None) -> SetUp:
    """One set-up: generate, relabel and serialize every instance."""
    done = SetUp([], [], [])
    for index in range(len(workload.params) if count is None else count):
        started = time.perf_counter()
        problem = generate(workload, index)
        generated = time.perf_counter()
        done.instances.append(label(workload, problem, seed, index))
        done.built.append((started, time.perf_counter()))
        done.generated.append((started, generated))
    return done


def run_pass(instances, strategies, tracer=None, first_op=0, min_ms=0.0, deadline=None):
    """One closed-loop pass over every (instance, strategy) operation.

    An operation repeats, back to back, until its runs in this pass add up
    to `min_ms` of wall time.  With a `deadline` (a perf_counter time), the
    pass stops before the first run that would start after it.  The garbage
    of one run is collected before the next starts, so a run pays for the
    collections its own allocations trigger and not for a full collection
    its predecessor left due.
    """
    results = []
    for instance, strategy in itertools.product(instances, strategies):
        spent_ms = 0.0
        while not spent_ms or spent_ms < min_ms:
            if deadline is not None and time.perf_counter() >= deadline:
                return results
            gc.collect()
            results.append(run_operation(instance, strategy, tracer, first_op + len(results)))
            spent_ms += (results[-1].end - results[-1].start) * 1000.0
    return results


def check_results(passes) -> None:
    """Mark as failed every operation that answers a planted instance unsat
    or disagrees with another strategy on the same instance in its pass
    (crashes, timeouts and failed verifications are marked by the
    operation itself)."""
    for results in passes:
        decided: dict[str, set[str]] = {}
        for r in results:
            if r.solved:
                decided.setdefault(r.instance, set()).add(r.verdict)
        for r in results:
            if r.failure is not None:
                continue
            if r.planted and r.verdict == UNSAT:
                r.failure = "planted instance answered unsat"
            elif r.solved and len(decided[r.instance]) > 1:
                r.failure = f"strategies disagree: {sorted(decided[r.instance])}"


def cross_check(instances, results, seed) -> list[str]:
    """Re-run one operation per strategy through harness.run_single and
    compare verdict, lemma count and check-sat count with the pipeline's.
    Returns one message per mismatch."""
    rng = random.Random(seed)
    by_op = {(r.instance, r.strategy): r for r in results}
    text = {inst.name: inst.text for inst in instances}
    mismatches = []
    for strategy in sorted({r.strategy for r in results}, key=lambda s: s.value):
        instance = rng.choice(instances).name
        mine = by_op[(instance, strategy)]
        record, _ = run_single(
            parse_problem(text[instance]),
            strategy,
            solver_cmd="internal",
            verify=True,
            instance_name=instance,
        )
        # run_single counts the eager candidate lemmas for lazy
        lemma_source = Strategy.INST_EAGER if strategy is Strategy.INST_LAZY else strategy
        expected = {
            "verdict": mine.verdict if mine.solved else None,
            "lemmas": by_op[(instance, lemma_source)].lemmas,
            "checks": mine.checks,
            "verified": True if mine.verdict == SAT else None,
        }
        got = {
            "verdict": record.verdict if record.solved else None,
            "lemmas": record.lemma_count,
            "checks": record.check_sat_count,
            "verified": record.verified,
        }
        if got != expected:
            mine.failure = mine.failure or "run_single disagrees"
            mismatches.append(f"{instance}/{strategy.value}: pipeline {expected}, run_single {got}")
    return mismatches


def latencies(passes) -> dict[tuple, float]:
    """Each operation's latency: the median of its runs in all passes."""
    samples: dict[tuple, list[float]] = {}
    for r in (r for results in passes for r in results):
        samples.setdefault((r.instance, r.strategy), []).append(r.ms)
    return {op: statistics.median(ms) for op, ms in samples.items()}


def end_to_end(setup_s: float, passes) -> dict[str, float]:
    results = [r for results in passes for r in results]
    latency = latencies(passes)
    by_strategy = {s: [ms for (_, strategy), ms in latency.items() if strategy is s] for s in Strategy}
    return {
        "setup_s": setup_s,
        "suite_s": sum(latency.values()) / 1000.0,
        "solve_ms_p50": statistics.median(latency.values()),
        "solve_ms_p90": _quantile(list(latency.values()), 0.9),
        "eager_ms_p50": statistics.median(by_strategy[Strategy.INST_EAGER]),
        "lazy_ms_p50": statistics.median(by_strategy[Strategy.INST_LAZY]),
        "solved_ratio": sum(r.solved for r in results) / len(results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(traced, untraced, per_op, generate_ms, nodes) -> dict[str, float]:
    """Per-pass sums of self times and counters, keyed `<name>.<strategy>`."""
    strategies = {r.strategy for results in traced for r in results}
    sums = {f"{m}.{s.value}": 0.0 for m in SELF_TIME_METRICS.values() for s in strategies}

    def add(name, strategy, value):
        key = f"{name}.{strategy.value}"
        sums[key] = sums.get(key, 0.0) + value

    eager_lemmas = asserted = 0
    for op, r in enumerate(r for results in traced for r in results):
        for span, ms in per_op[op].items():
            if span in SELF_TIME_METRICS:
                add(SELF_TIME_METRICS[span], r.strategy, ms)
        for name, value in r.counters.items():
            add(name, r.strategy, value)
        add("network.formula_nodes", r.strategy, nodes[r.instance])
        if r.strategy is Strategy.INST_EAGER:
            eager_lemmas += r.lemmas
        elif r.strategy is Strategy.INST_LAZY:
            asserted += r.counters["encode.lazy_asserted_lemmas"]
    out = {key: value / len(traced) for key, value in sums.items()}
    out[f"encode.lazy_useful_ratio.{Strategy.INST_LAZY.value}"] = asserted / eager_lemmas
    out["generate.instance_ms"] = generate_ms
    traced_ms = statistics.median(sum(r.ms for r in results) for results in traced)
    untraced_ms = statistics.median(sum(r.ms for r in results) for results in untraced)
    out["trace.overhead_pct"] = (traced_ms / untraced_ms - 1.0) * 100.0
    return out


def self_time_table(workload, traced, per_op) -> list[str]:
    """Per strategy, each layer's self time per pass and share of operation
    time, plus the desk comparison against the ROADMAP baseline."""
    totals: dict[str, dict[str, float]] = {}
    for op, r in enumerate(r for results in traced for r in results):
        row = totals.setdefault(r.strategy.value, {})
        for span, ms in per_op[op].items():
            row[span] = row.get(span, 0.0) + ms / len(traced)
    labels = {**SELF_TIME_METRICS, ROOT_SPAN: "other (pipeline glue)"}
    lines = [f"self time per layer on {workload}: ms per pass and % of operation time"]
    lines.append(f"  {'layer':<28}" + "".join(f"{s:>32}" for s in totals))
    for span, label in labels.items():
        cells = [
            f"{row.get(span, 0.0):>22.1f} {100.0 * row.get(span, 0.0) / sum(row.values()):>8.1f}%"
            for row in totals.values()
        ]
        lines.append(f"  {label:<28}" + "".join(cells))
    if workload == "desk":
        # the baseline was taken on arity-8 instances, like desk-0; decode
        # and verify grow with 2^arity, so the full desk set weighs them more
        ops = list(enumerate(r for results in traced for r in results))
        for title, instances in (("all instances", None), ("desk-0, arity 8", "desk-0")):
            split: dict[str, float] = {}
            for op, r in ops:
                if r.strategy is Strategy.INST_EAGER and instances in (None, r.instance):
                    for span, ms in per_op[op].items():
                        split[span] = split.get(span, 0.0) + ms
            lines.append(f"desk eager split vs ROADMAP baseline, {title} (% of operation time)")
            for span, baseline in ROADMAP_DESK_SPLIT.items():
                share = 100.0 * split.get(span, 0.0) / sum(split.values())
                gap = share - baseline
                note = "  <- gap over 5 points" if abs(gap) > 5 else ""
                lines.append(f"  {labels[span]:<28} {share:6.1f}%  baseline {baseline:3d}%  gap {gap:+6.1f}{note}")
    return lines


def run_context(workload, seed) -> dict:
    try:
        commit = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    src_lines = sum(
        len(path.read_text(encoding="utf-8").splitlines()) for path in SRC.rglob("*.py")
    )
    return {
        "commit": commit,
        "workload": workload.name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "src_lines": src_lines,
        "base_seed": workload.base_seed,
        "strategies": [s.value for s in workload.strategies],
        "params": [vars(p) for p in workload.params],
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, count=None) -> dict:
    """Set up, measure and check one workload; returns the result object.
    `count` limits the number of instances (the tests' tiny runs)."""
    workload = WORKLOADS[name]
    spec = _spec()
    why = {w["name"]: w["why"] for w in spec["workloads"]}.get(name, "not in BENCHMARK.json")
    print("context", json.dumps({**run_context(workload, seed), "why": why}))

    # with tracing, an untraced pass precedes each traced one, so the two
    # give the tracing overhead under the same conditions
    tracer = Tracer() if trace else None
    passes, untraced = [], []
    with ReferenceClock() as clock:
        setups = [set_up(workload, seed, count) for _ in range(SETUP_REPEATS)]
        instances = setups[0].instances
        ops_per_pass = len(instances) * len(workload.strategies)
        deadline = time.perf_counter() + seconds
        if trace:
            # pairs of whole passes, so per-pass sums stay comparable; another
            # pair starts only if one as long as the last ends by the deadline
            pair_s = 0.0
            while not passes or time.perf_counter() + pair_s <= deadline:
                started = time.perf_counter()
                untraced.append(run_pass(instances, workload.strategies))
                passes.append(run_pass(instances, workload.strategies, tracer, len(passes) * ops_per_pass))
                pair_s = time.perf_counter() - started
        else:
            # the first pass runs every operation; later ones stop at the deadline
            passes.append(run_pass(instances, workload.strategies, min_ms=MIN_OP_MS))
            while time.perf_counter() < deadline:
                passes.append(run_pass(instances, workload.strategies, min_ms=MIN_OP_MS, deadline=deadline))
    setup_s = statistics.median(sum(clock.scaled_ms(*i) for i in done.built) for done in setups) / 1000.0
    results = [r for rs in passes + untraced for r in rs]
    for r in results:
        r.ms = clock.scaled_ms(r.start, r.end)
    check_results(passes + untraced)
    drift = cross_check(instances, passes[0], seed)

    failed = [r for r in results if r.failure is not None]
    for r in failed[:20]:
        print(f"FAILED {r.instance}/{r.strategy.value}: {r.failure}")
    for message in drift:
        print(f"DRIFT {message}")
    print(
        f"passes {len(passes)} (+{len(untraced)} untraced), operations {len(results)}, "
        f"failed {len(failed)} (failed_ratio {len(failed) / len(results):.4f})"
    )

    if trace:
        nodes = {
            inst.name: sum(1 for _ in iter_subterms(encode_inference(parse_problem(inst.text))[0]))
            for inst in instances
        }
        generate_ms = statistics.median(sum(clock.scaled_ms(*i) for i in done.generated) for done in setups)
        per_op = self_times(tracer.spans, clock)
        computed = per_layer(passes, untraced, per_op, generate_ms, nodes)
        for line in self_time_table(name, passes, per_op):
            print(line)
        print(f"tracing overhead {computed['trace.overhead_pct']:+.2f}% of the untraced pass time")
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{name}-seed{seed}.jsonl"
        with open(trace_path, "w", encoding="utf-8") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span) + "\n")
        print(f"spans written to {trace_path.relative_to(ROOT)}")
        wanted = spec["per_layer"]
    else:
        computed = end_to_end(setup_s, passes)
        print(f"latency samples: {len(results)} runs of {ops_per_pass} operations in {len(passes)} passes")
        wanted = spec["end_to_end"]

    # a strategy the workload does not run contributes nothing per pass
    not_run = {s.value for s in Strategy} - {s.value for s in workload.strategies}
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name not in computed and name.rsplit(".", 1)[-1] not in not_run:
            raise KeyError(f"metric {name} was not measured")
        metrics[name] = {"value": computed.get(name, 0.0), "unit": metric["unit"]}
    return {
        "correct": not failed and not drift,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": metrics,
    }
