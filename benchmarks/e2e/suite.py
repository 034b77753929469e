"""Run every workload, each in its own fresh process, and report.

The suite is the tool for before/after tables: it merges each
workload's timed pass and traced pass into one JSON (``--output``), and
``--compare`` reads two of those.  The driver contract's single-workload
command (``--workload``) is what the child processes run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from .layers import LAYERS
from .runner import END_TO_END, per_layer_units
from .workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: digests of the exact simulated results at the default seed and scale
REFERENCE = HERE / "reference.json"
DETAIL_PREFIX = "detail: "
DEFAULT_SEED = 1


def run_child(workload: str, seed: int, seconds: float, scale: float, trace: int) -> dict:
    """One workload, one pass, in a fresh interpreter (single thread)."""
    cmd = [
        sys.executable, "-m", "benchmarks.e2e",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--scale", str(scale), "--trace", str(trace),
    ]  # fmt: skip
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.splitlines()
    if not lines:
        raise RuntimeError(f"{workload} --trace {trace} printed nothing (exit {done.returncode})")
    detail = {}
    for line in lines[:-1]:
        if line.startswith(DETAIL_PREFIX):
            detail = json.loads(line[len(DETAIL_PREFIX):])
        else:
            print(f"  {line}")
    result = json.loads(lines[-1])
    result["detail"] = detail
    return result


def run_suite(seed: int, seconds: float, scale: float, passes: tuple[int, ...]) -> dict:
    reference = json.loads(REFERENCE.read_text())
    pinned = seed == reference["seed"] and scale == reference["scale"]
    out = {"seed": seed, "scale": scale, "seconds": seconds, "workloads": {}}
    for name in WORKLOADS:
        record = {"correct": True, "metrics": {}, "detail": {}}
        for trace in passes:
            print(f"{name}: {'traced' if trace else 'timed'} pass", flush=True)
            result = run_child(name, seed, seconds, scale, trace)
            record["correct"] &= result["correct"]
            record["metrics"].update(result["metrics"])
            record["detail"].update(result["detail"])
            # ops of the first pass (the timed one when both run)
            record.setdefault("attempted", result["attempted"])
            record.setdefault("failed", result["failed"])
        record["op_fail_ratio"] = record["failed"] / record["attempted"]
        digest = record["detail"].get("result_digest")
        if pinned:
            # printed, not failed: a change that deliberately moves a
            # simulated result must be able to run
            record["result_digest_matches"] = digest == reference["digests"].get(name)
            if not record["result_digest_matches"]:
                print(f"  result_digest differs from {REFERENCE.name}: {digest}")
        out["workloads"][name] = record
    digests = {n: r["detail"].get("result_digest") for n, r in out["workloads"].items()}
    for name, cls in WORKLOADS.items():
        # on other seeds the known express defect (README) only shows
        # as net.express.twin_mismatches; the recorded seed is clean
        if pinned and cls.twin is not None and digests[name] != digests[cls.twin.name]:
            print(f"CHECK FAILED: {name} simulated results differ from {cls.twin.name}")
            out["workloads"][name]["correct"] = False
    out["correct"] = all(r["correct"] for r in out["workloads"].values())
    return out


def print_report(result: dict) -> None:
    for name, record in result["workloads"].items():
        cls = WORKLOADS[name]
        print(f"\n== {name}: op = {cls.op}; {cls.load} ==")
        print(f"  correct={record['correct']}  op_fail_ratio={record['op_fail_ratio']:g}")
        for metric, entry in record["metrics"].items():
            spread = record["detail"].get(metric)
            extra = ""
            if isinstance(spread, dict):
                extra = f"  [min {spread['min']:.6g} max {spread['max']:.6g} n={spread['samples']}]"
            print(f"  {metric:34s} {entry['value']:>16.6g} {entry['unit']}{extra}")
    if all("layer_share" in r["detail"] for r in result["workloads"].values()):
        print("\nWhere the host time goes (share of profiled self time, traced pass):\n")
        print(where_time_table(result))


def where_time_table(result: dict) -> str:
    """Markdown table of layer shares per workload, from the traced pass."""
    names = list(result["workloads"])
    rows = ["| layer | " + " | ".join(names) + " |", "|---|" + "---:|" * len(names)]
    for layer in LAYERS:
        shares = [result["workloads"][n]["detail"]["layer_share"][layer] for n in names]
        rows.append(f"| `{layer}` | " + " | ".join(f"{100 * s:.1f}%" for s in shares) + " |")
    return "\n".join(rows)


# -- compare ---------------------------------------------------------------------


def _verdict(metric: str, a: dict, b: dict) -> tuple[str, str]:
    """(delta text, verdict) for one end-to-end metric of one workload."""
    _unit, better, bound = END_TO_END[metric]
    va, vb = a["metrics"][metric]["value"], b["metrics"][metric]["value"]
    sign = 1 if better == "lower" else -1
    if metric.startswith("sim_"):  # exact: a pure function of the seed
        if va == vb:
            return "0", "same"
        return f"{100 * (vb - va) / va:+.3g}%", "worse" if sign * (vb - va) > 0 else "better"
    worse_by = sign * (vb - va) / va
    for side in (a, b):
        spread = side["detail"].get(metric)
        if isinstance(spread, dict):
            # quartile distance / sqrt(n): the standard error of a median
            error = (spread["q3"] - spread["q1"]) / spread["samples"] ** 0.5
            if error / spread["median"] > bound:
                return f"{100 * (vb - va) / va:+.1f}%", "unresolved"
    verdict = "worse" if worse_by > bound else "better" if worse_by < -bound else "same"
    return f"{100 * (vb - va) / va:+.1f}%", verdict


def compare(path_a: str, path_b: str) -> int:
    """Per workload x end-to-end metric: both medians, delta, bound and
    verdict; every exact metric must be identical.  Returns the number
    of ``worse`` / ``unresolved`` verdicts plus exact mismatches."""
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    if (a["seed"], a["scale"]) != (b["seed"], b["scale"]):
        print("note: seeds or scales differ, so exact metrics are expected to differ")
    exact = [
        m for m in per_layer_units()
        if not m.endswith(".self_s") and m not in ("trace_overhead_ratio", "sim.host_ns_per_event")
    ]
    bad = 0
    print(f"{'workload':16s} {'metric':16s} {'A':>14s} {'B':>14s} {'delta':>8s} {'bound':>6s}  verdict")
    for name in a["workloads"]:
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric, (_unit, _better, bound) in END_TO_END.items():
            delta, verdict = _verdict(metric, wa, wb)
            bad += verdict in ("worse", "unresolved")
            bound_text = "exact" if metric.startswith("sim_") else f"{100 * bound:.0f}%"
            print(
                f"{name:16s} {metric:16s} {wa['metrics'][metric]['value']:14.6g} "
                f"{wb['metrics'][metric]['value']:14.6g} {delta:>8s} {bound_text:>6s}  {verdict}"
            )
        differs = [
            m for m in exact
            if m in wa["metrics"] and wa["metrics"][m]["value"] != wb["metrics"].get(m, {}).get("value")
        ]
        if wa["op_fail_ratio"] != wb["op_fail_ratio"]:
            differs.append("op_fail_ratio")
        if wa["detail"].get("result_digest") != wb["detail"].get("result_digest"):
            differs.append("result_digest")
        bad += len(differs)
        shown = ", ".join(differs) if differs else "all identical"
        print(f"{name:16s} exact metrics (sim latencies, counters, calls, digest): {shown}")
    return bad
