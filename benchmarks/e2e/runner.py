"""Measure one workload in this process: timed rounds, or the traced pass.

Two clocks, always labelled.  *Host* numbers (``wall_s_per_kop``,
``setup_s``, ``peak_rss_mb``, ``*.self_s``) are what the simulator costs
to run.  *Simulated* numbers (``sim_*``, counters) are what the modelled
cloud does; they are pure functions of the seed and repeat bit for bit.
The model has no hardware reference in-repo beyond the paper's ratios in
EXPERIMENTS.md, so ``sim_*`` are unvalidated absolutes.
"""

from __future__ import annotations

import gc
import heapq
import math
import resource
import statistics
import time
from dataclasses import dataclass, field

from .layers import LAYERS, OTHER, profile_layers
from .workloads import COUNTERS, HOPS, WORKLOADS, CheckFailed, Outcome, Workload, hop_self_ms

#: end-to-end metrics: name -> (unit, better, regression bound as a
#: share of the parent's median).  BENCHMARK.json carries the same table.
END_TO_END: dict[str, tuple[str, str, float]] = {
    "wall_s_per_kop": ("s/kop", "lower", 0.20),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.10),
    "sim_ops_per_s": ("ops/s", "higher", 0.15),
}

#: exact simulated results of the whole workload, reported with the
#: per-layer pass because they carry no bound: they must not move at all
SIM_EXACT: dict[str, str] = {
    "sim_lat_p50_ms": "ms",
    "sim_lat_tail_ms": "ms",
    "sim_lat_tail_pct": "%",
}

HOP_METRICS = tuple(f"sim_hop_ms.{hop}" for hop in HOPS.values())


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name -> unit, in report order."""
    units = dict(SIM_EXACT)
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    units["trace_overhead_ratio"] = "ratio"
    units.update(COUNTERS)
    units["sim.host_ns_per_event"] = "ns"
    units["net.express.event_ratio"] = "ratio"
    units["net.express.twin_mismatches"] = "count"
    units.update(dict.fromkeys(HOP_METRICS, "ms"))
    return units


#: the traced pass runs at this fraction of ``--scale``
TRACE_SCALE = 0.25
#: a round whose wall time exceeds its CPU time by more than this was
#: disturbed by something else on the machine
DISTURBED = 1.15
#: set-up is timed at least this often per process and the median reported
MIN_SETUPS = 5
#: what :func:`spin` takes on the reference machine when nothing else runs
SPIN_REF_S = 0.085


def percentile(ordered: list[float], pct: float) -> float:
    """Nearest-rank percentile of an already sorted list.  (Not
    ``repro.analysis.percentile``: ROADMAP item 3 deletes that package,
    and the benchmark must survive it unedited.)"""
    return ordered[max(1, math.ceil(pct / 100 * len(ordered))) - 1]


def tail_percentile(samples: int) -> int:
    """The highest of p99/p95/p90 with at least ten samples beyond it."""
    for pct in (99, 95, 90):
        if samples * (100 - pct) >= 1000:
            return pct
    return 90


@dataclass
class Round:
    setup_s: float
    wall_s: float
    cpu_s: float
    outcome: Outcome
    events: int

    @property
    def disturbed(self) -> bool:
        return self.wall_s > DISTURBED * self.cpu_s


@dataclass
class Report:
    """What one process measured; ``result_line`` is the contract's JSON."""

    correct: bool = True
    #: the contract wants at least 1, also when the first run fails
    attempted: int = 1
    failed: int = 0
    metrics: dict[str, dict] = field(default_factory=dict)
    #: everything else worth keeping (digest, samples, min/max, notes)
    detail: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def fail(self, problem: str) -> None:
        self.correct = False
        self.problems.append(problem)

    def result_line(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }


def spin() -> float:
    """Host seconds of a fixed piece of pure-Python work (heap, dict,
    allocation: the simulator's instruction mix and none of its code).

    The sandboxes this runs in slow down by up to 2x for minutes at a
    time.  Timing the same work beside every round tells how fast the
    machine was during this run, which nothing in the program under test
    can change; host times are reported divided by that factor."""
    start = time.perf_counter()
    heap: list = []
    table: dict[int, int] = {}
    x = 12345
    for i in range(100_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (x, i, [i]))
        table[x & 0xFFFF] = i
        if len(heap) > 512:
            heapq.heappop(heap)
    return time.perf_counter() - start


def one_round(cls: type[Workload], seed: int, scale: float, verify: bool) -> tuple[Round, Workload]:
    """Fresh workload: timed set-up, timed run, then untimed checks."""
    gc.collect()
    start = time.perf_counter()
    workload = cls(seed, scale)
    workload.setup()
    ready = time.perf_counter()
    gc.collect()
    cpu0, t0 = time.process_time(), time.perf_counter()
    outcome = workload.run()
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    if verify:
        workload.verify(outcome)
    return Round(ready - start, wall, cpu, outcome, workload.events()), workload


def _sim_metrics(outcome: Outcome) -> dict[str, float]:
    ordered = sorted(outcome.latencies)
    pct = tail_percentile(len(ordered))
    return {
        "sim_ops_per_s": len(ordered) / outcome.sim_elapsed,
        "sim_lat_p50_ms": 1e3 * percentile(ordered, 50),
        "sim_lat_tail_ms": 1e3 * percentile(ordered, pct),
        "sim_lat_tail_pct": pct,
    }


def _twin(cls: type[Workload], seed: int, scale: float, outcome: Outcome) -> tuple[int, int]:
    """Run the workload ``cls`` claims to reproduce bit for bit; return
    (the twin's event count, number of simulated values that differ),
    zeros when it claims none.

    A non-zero count is reported, not failed: at the parent commit the
    express path already differs from packet mode by a few microseconds
    on roughly one seed in six (README, "Known defect")."""
    if cls.twin is None:
        return 0, 0
    twin, _ = one_round(cls.twin, seed, scale, verify=True)
    ours = [outcome.sim_elapsed, *outcome.latencies]
    theirs = [twin.outcome.sim_elapsed, *twin.outcome.latencies]
    differing = sum(a != b for a, b in zip(ours, theirs)) + abs(len(ours) - len(theirs))
    return twin.events, differing


def measure(name: str, seed: int, seconds: float, scale: float) -> Report:
    """Timed rounds for ``seconds`` host seconds, tracing and profiling
    off.  Every round is a fresh build of the same inputs, so rounds
    double as the determinism check."""
    cls = WORKLOADS[name]
    report = Report()
    try:
        # untimed: fills caches, finishes lazy imports, runs the full checks
        warm, _ = one_round(cls, seed, scale, verify=True)
    except CheckFailed as exc:
        report.fail(str(exc))
        return report
    digest = warm.outcome.digest()

    rounds: list[Round] = []
    spins: list[float] = []
    began = time.perf_counter()
    while not rounds or time.perf_counter() - began < seconds:
        spins += [spin(), spin()]
        rnd, _ = one_round(cls, seed, scale, verify=False)
        if rnd.outcome.digest() != digest:
            report.fail(f"round {len(rounds) + 1} digest differs from the first run")
        rounds.append(rnd)
    spins += [spin(), spin()]
    slowdown = statistics.median(spins) / SPIN_REF_S
    setups = [r.setup_s for r in rounds]
    # millisecond set-ups are repeated until they add up to something
    while len(setups) < MIN_SETUPS or (sum(setups) < 0.25 and len(setups) < 50):
        gc.collect()
        t0 = time.perf_counter()
        cls(seed, scale).setup()
        setups.append(time.perf_counter() - t0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # a disturbed round is kept only when too few clean ones remain
    clean = [r for r in rounds if not r.disturbed]
    timed = clean if len(clean) >= 3 else rounds
    outcome = warm.outcome
    completed = len(outcome.latencies)
    per_kop = [1e3 * r.wall_s / completed / slowdown for r in timed]
    setups = [s / slowdown for s in setups]
    report.attempted = outcome.attempted * len(rounds)
    report.failed = outcome.failed * len(rounds)
    if outcome.failed:
        report.fail(f"{outcome.failed} of {outcome.attempted} ops failed")
    sim = _sim_metrics(outcome)
    values = {
        "wall_s_per_kop": statistics.median(per_kop),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "sim_ops_per_s": sim["sim_ops_per_s"],
    }
    for metric, (unit, _better, _bound) in END_TO_END.items():
        report.put(metric, values[metric], unit)
    report.detail = {
        "result_digest": digest,
        "rounds": len(rounds),
        "rounds_disturbed": len(rounds) - len(clean),
        "ops_per_round": outcome.attempted,
        "host_slowdown": slowdown,
        "spin_s": _spread(spins),
        "rounds_wall_s": [r.wall_s for r in rounds],
        "wall_s": _spread([r.wall_s for r in timed]),
        "cpu_s": _spread([r.cpu_s for r in timed]),
        "wall_s_per_kop": _spread(per_kop),
        "setup_s": _spread(setups),
        "events": warm.events,
        **{k: sim[k] for k in SIM_EXACT},
    }
    return report


def _spread(values: list[float]) -> dict:
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {
        "median": statistics.median(values),
        "q1": quartiles[0],
        "q3": quartiles[2],
        "min": min(values),
        "max": max(values),
        "samples": len(values),
    }


def trace(name: str, seed: int, scale: float) -> Report:
    """Per-layer numbers: exact counters from one untraced run, then
    host self time per layer from one profiled run at a quarter of the
    size (the profiler slows the workloads 3-4x, so it is never mixed
    with timed rounds).  Records stay in memory until the run ends."""
    cls = WORKLOADS[name]
    report = Report()
    units = per_layer_units()
    try:
        plain, workload = one_round(cls, seed, scale, verify=True)
    except CheckFailed as exc:
        report.fail(str(exc))
        return report
    outcome = plain.outcome
    report.attempted, report.failed = outcome.attempted, outcome.failed
    values: dict[str, float] = dict(workload.counters())
    sim = _sim_metrics(outcome)
    values.update({k: sim[k] for k in SIM_EXACT})
    values["sim.host_ns_per_event"] = 1e9 * plain.wall_s / plain.events
    values.update(hop_self_ms(workload.span_records()))
    twin_events, differing = _twin(cls, seed, scale, outcome)
    values["net.express.event_ratio"] = plain.events / twin_events if twin_events else 0.0
    values["net.express.twin_mismatches"] = differing
    if differing:
        print(f"{name} differs from {cls.twin.name} in {differing} simulated values")

    small = cls(seed, scale * TRACE_SCALE)
    small.setup()
    gc.collect()
    traced, self_s, calls = profile_layers(small.run)
    total = sum(self_s.values())  # the traced run's host seconds
    traced_ops = len(traced.latencies)
    values["trace_overhead_ratio"] = (total / traced_ops) / (plain.wall_s / len(outcome.latencies))
    shares = {layer: self_s[layer] / total for layer in LAYERS}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = self_s[layer]
        values[f"{layer}.calls"] = calls[layer]

    for layer, kind, limit in (*cls.layer_checks, (OTHER, "share<=", 0.10)):
        got = calls[layer] if kind == "calls==" else shares[layer]
        ok = {"share>=": got >= limit, "share<=": got <= limit, "calls==": got == limit}[kind]
        if not ok:
            report.fail(f"layer check failed: {layer} {kind} {limit} (got {got:.4g})")
    for metric, unit in units.items():
        report.put(metric, values[metric], unit)
    report.detail = {
        "result_digest": outcome.digest(),
        "layer_share": shares,
        "traced_ops": traced_ops,
        "traced_self_s": total,
    }
    return report
