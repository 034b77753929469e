"""Command line of the end-to-end benchmark.

    python3 -m benchmarks.e2e --workload W --seed N --seconds S --trace 0|1
        one workload, one pass, in this process; the last line of output
        is the result JSON (the form BENCHMARK.json's command takes)
    python3 -m benchmarks.e2e [--seed N] [--seconds S] [--trace 0|1] [--output F]
        all five workloads, each in a fresh subprocess, both passes
    python3 -m benchmarks.e2e --compare A.json B.json
        table of two --output files
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
if not (SRC / "repro").is_dir():
    sys.exit(f"benchmarks.e2e: the program under test is missing ({SRC}/repro)")
sys.path.insert(0, str(SRC))

from benchmarks.e2e import runner, suite  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.e2e", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)  # fmt: skip
    parser.add_argument("--workload", choices=list(WORKLOADS), help="default: all, as a suite")
    parser.add_argument("--seed", type=int, default=suite.DEFAULT_SEED,
                        help="feeds FioConfig.seed, PostmarkConfig.seed, FleetConfig.seed only")  # fmt: skip
    parser.add_argument("--seconds", type=float, default=15.0, help="host seconds of timed rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: timed rounds; 1: counters + profiled pass (suite default: both)")  # fmt: skip
    parser.add_argument("--scale", type=float, default=1.0, help="multiplies every op count")
    parser.add_argument("--output", help="suite: write the merged JSON here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        return 1 if suite.compare(*args.compare) else 0

    if args.workload:
        if args.trace:
            report = runner.trace(args.workload, args.seed, args.scale)
        else:
            report = runner.measure(args.workload, args.seed, args.seconds, args.scale)
        for problem in report.problems:
            print(f"CHECK FAILED: {problem}")
        print(suite.DETAIL_PREFIX + json.dumps(report.detail))
        print(json.dumps(report.result_line()))
        return 0 if report.correct else 1

    passes = (0, 1) if args.trace is None else (args.trace,)
    result = suite.run_suite(args.seed, args.seconds, args.scale, passes)
    suite.print_report(result)
    if args.output:
        Path(args.output).write_text(json.dumps(result, indent=1) + "\n")
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
