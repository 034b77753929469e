"""Run the kernel microbenchmarks and write ``BENCH_kernel.json``.

Usage::

    PYTHONPATH=src python -m benchmarks.perf.run_bench [--quick]
        [--output PATH] [--baseline PATH] [--record-baseline]

``--record-baseline`` overwrites the stored pre-optimization numbers
(``benchmarks/perf/baseline_seed.json``); everything else compares the
current kernel against them and records both, so the JSON carries the
full perf trajectory: baseline wall-clock, current wall-clock, and the
speedup per scenario.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

from benchmarks.perf.scenarios import run_all

REPO_ROOT = Path(__file__).resolve().parents[2]
DEFAULT_BASELINE = Path(__file__).resolve().parent / "baseline_seed.json"
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_kernel.json"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small sizes (CI smoke)")
    parser.add_argument(
        "--exact",
        action="store_true",
        help="run the *_express scenarios in packet mode (fast path off); "
        "with --check-against, their simulated time must still match the "
        "express recording — the equivalence proof from the other side",
    )
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    parser.add_argument(
        "--record-baseline",
        action="store_true",
        help="store this run as the baseline instead of comparing to one",
    )
    parser.add_argument(
        "--check-against",
        type=Path,
        default=None,
        metavar="REF_JSON",
        help="assert this run matches a recorded BENCH_kernel.json: "
        "identical event counts and simulated time per scenario (the "
        "machine-independent proof the fast path's behaviour is "
        "unchanged), and wall-clock within --tolerance of the recording",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.05,
        help="allowed fractional wall-clock regression for --check-against "
        "(use a loose value on machines other than the one that recorded "
        "the reference)",
    )
    args = parser.parse_args(argv)

    # snapshot the reference before anything runs: --output may point at
    # the same file (CI overwrites BENCH_kernel.json in the worktree and
    # then checks against the committed recording)
    reference = None
    if args.check_against is not None:
        reference = json.loads(args.check_against.read_text())

    current = run_all(quick=args.quick, exact=args.exact)

    if args.record_baseline:
        payload = {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "quick": args.quick,
            "scenarios": current,
        }
        args.baseline.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"baseline recorded -> {args.baseline}")
        return 0

    baseline = None
    if args.baseline.exists():
        baseline = json.loads(args.baseline.read_text())
        if baseline.get("quick") != args.quick:
            # sizes differ; wall-clock ratios would be apples-to-oranges
            print(
                f"note: baseline was recorded with quick={baseline.get('quick')}, "
                f"this run uses quick={args.quick}; skipping speedup comparison"
            )
            baseline = None

    report: dict = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "quick": args.quick,
        "exact": args.exact,
        "scenarios": current,
    }
    if baseline is not None:
        report["baseline"] = baseline["scenarios"]
        speedups = {}
        for name, metrics in current.items():
            # the seed kernel has no fast path: an ``X_express`` scenario
            # is measured against the seed's time for the same traffic, X
            base = baseline["scenarios"].get(name) or baseline["scenarios"].get(
                name.removesuffix("_express")
            )
            if base and base.get("wall_s") and metrics.get("wall_s"):
                speedups[name] = base["wall_s"] / metrics["wall_s"]
        report["speedup"] = speedups

    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    for name, metrics in current.items():
        line = (
            f"  {name:16s} wall={metrics['wall_s']:8.3f}s "
            f"events/s={metrics['events_per_s']:>12,.0f}"
        )
        if baseline is not None and name in report.get("speedup", {}):
            line += f"  speedup={report['speedup'][name]:.2f}x"
        print(line)

    if reference is not None:
        return check_against(
            current,
            reference,
            args.check_against,
            args.quick,
            args.tolerance,
            exact=args.exact,
        )
    return 0


#: application-level results that must be byte-identical between an
#: ``X_express`` scenario and its packet-mode base scenario ``X``
APP_FIELDS = (
    "sim_elapsed",
    "iops",
    "mean_latency",
    "p99_latency",
    "completed",
    "messages",
    "sim_throughput_bps",
)


def check_against(
    current: dict,
    reference: dict,
    ref_path: Path,
    quick: bool,
    tolerance: float,
    exact: bool = False,
) -> int:
    """Compare ``current`` scenarios against a recorded report.

    Event counts and simulated elapsed time must match *exactly* — the
    recovery machinery added on top of the kernel (retransmission
    timers, fault hooks) must be zero-overhead when switched off, which
    means the loss-free event stream is bit-identical to the recording.
    Wall-clock only has to stay within ``tolerance``.

    The ``*_express`` scenarios additionally get an equivalence check:
    every application-level metric must equal the packet-mode base
    scenario's bit-for-bit.  Under ``--exact`` they ran in packet mode,
    so their event counts and wall-clock are exempt from the recording
    comparison — but their simulated time still has to match it, which
    is the same equivalence proof approached from the other side.
    """
    if reference.get("quick") != quick:
        print(
            f"check FAILED: reference {ref_path} was recorded with "
            f"quick={reference.get('quick')}, this run uses quick={quick}"
        )
        return 1
    failures = []
    for name, ref in reference["scenarios"].items():
        got = current.get(name)
        if got is None:
            failures.append(f"{name}: scenario missing from this run")
            continue
        mode_differs = exact and name.endswith("_express")
        fields = ("sim_elapsed",) if mode_differs else ("events", "sim_elapsed")
        for field in fields:
            if got.get(field) != ref.get(field):
                failures.append(
                    f"{name}: {field} diverged "
                    f"(ref={ref.get(field)!r}, got={got.get(field)!r})"
                )
        if not mode_differs and got["wall_s"] > ref["wall_s"] * (1.0 + tolerance):
            failures.append(
                f"{name}: wall-clock regressed beyond {tolerance:.0%} "
                f"(ref={ref['wall_s']:.3f}s, got={got['wall_s']:.3f}s)"
            )
    for name, metrics in current.items():
        if not name.endswith("_express"):
            continue
        base = current.get(name[: -len("_express")])
        if base is None:
            continue
        for field in APP_FIELDS:
            if field in base and metrics.get(field) != base.get(field):
                failures.append(
                    f"{name}: app-level {field} diverged from packet mode "
                    f"(packet={base.get(field)!r}, express={metrics.get(field)!r})"
                )
    if failures:
        print(f"check vs {ref_path} FAILED:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(
        f"check vs {ref_path} OK: event streams identical, "
        f"express==packet at the application level, "
        f"wall-clock within {tolerance:.0%}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
