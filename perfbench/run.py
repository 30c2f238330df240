"""Repository benchmark: seeded inference workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 20 --trace 0

One client drives the program in this process in a closed loop: each
operation, an (instance, strategy) pair, starts when the previous one ends.
A pass runs every operation of the workload; the first pass always
completes, later ones repeat until `--seconds` have gone by.  With
`--trace 0` the run reports the end-to-end metrics of BENCHMARK.json; with
`--trace 1` it alternates whole untraced and traced passes and reports the
per-layer metrics, the tracing overhead, a self-time table, and writes the
spans as JSONL under perfbench/out/.  The last line of standard output is
one JSON object; the exit code is 0 only when every operation was correct.
Times are at reference speed (see clock.py).  See perfbench/README.md for
the workloads and the metric definitions.
"""

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "monoinfer" / "__init__.py").is_file():
        sys.exit(f"error: program source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import measure
    import monoinfer

    if Path(monoinfer.__file__).resolve().parent != SRC / "monoinfer":
        sys.exit(f"error: imported monoinfer from {monoinfer.__file__}, not {SRC}")
    if args.workload not in measure.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(measure.WORKLOADS)}")
    result = measure.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
