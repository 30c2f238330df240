"""Tests of the benchmark itself: determinism, metric names, tiny runs.

    python3 -m pytest -q perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import measure  # noqa: E402
from workloads import WORKLOADS, generate, label  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_problem_text(name):
    workload = WORKLOADS[name]
    first = label(workload, generate(workload, 0), 7, 0).text
    second = label(workload, generate(workload, 0), 7, 0).text
    assert first.encode() == second.encode()
    assert label(workload, generate(workload, 0), 8, 0).text != first


def test_benchmark_names_and_workloads():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_is_correct(name, trace):
    result = measure.run_workload(name, seed=3, seconds=0, trace=trace, count=1)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert result["correct"]
    assert result["failed"] == 0 and result["attempted"] >= len(WORKLOADS[name].strategies)
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    assert all(NAME.fullmatch(n) for n in result["metrics"])


def test_exits_nonzero_without_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "desk", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
