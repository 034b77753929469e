"""The pinned results: every simulated number this reproduction rests on.

``SCENARIOS`` maps a name to a zero-argument callable that builds its
world, runs it and returns the *machine-independent* fields only —
event counts, simulated time, application-level results, trace
digests.  They are pure functions of fixed seeds, so ``pinned.json``
records them exactly and ``check`` compares with ``==``: one extra
scheduled event or a one-ULP latency shift is a failure.  Host-side
numbers (wall-clock, RSS) are never stored; ``benchmarks/e2e`` gates
those.

Five families:

- kernel — raw event churn, store ping-pong, bulk TCP and end-to-end
  fio, the last two also over the express fast path;
- HA control plane — election downtime, mid-saga takeover, ship lag;
- trace export — a traced fio run's JSONL, by record counts and blake2s;
- fleet tiers — 1k/10k/100k concurrent sessions (``SLOW`` ones run
  only when named on the command line);
- ``fio_point`` references — ``MODE/size/threads`` keys, values first
  captured on the pre-optimization kernel.

Usage::

    PYTHONPATH=src python -m tests.determinism.pinned [name ...] [--record]

runs the named scenarios (default: all but ``SLOW``) through ``check``,
prints each difference field by field plus this process's wall seconds
and peak RSS, and exits 1 on any difference.  ``--record`` rewrites the
named entries of ``pinned.json`` instead; a change that moves a value
by design re-records only the fields it explains in CHANGES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from functools import partial
from pathlib import Path
from typing import Callable

from benchmarks.harness import (
    CACHED_SEEK,
    LEGACY,
    MB_ACTIVE,
    MB_FWD,
    MB_PASSIVE,
    VOLUME_SIZE,
    attach_mode,
    fio,
    fio_point,
)
from repro.cloud import CloudParams
from repro.core import ControllerCrashed
from repro.fleet.generator import run_fleet
from repro.net import (
    ArpTable,
    ExpressManager,
    Interface,
    Link,
    Node,
    Switch,
    TcpListener,
    TcpSocket,
)
from repro.obs import ObsBus, instrument
from repro.sim import Simulator, Store
from repro.testbed import Testbed

from tests.obs.test_trace_determinism import traced_fio_export

PINNED_PATH = Path(__file__).with_name("pinned.json")
KB = 1024


# -- kernel ----------------------------------------------------------------


def event_churn() -> dict:
    """Many processes sleeping staggered delays: the timed (heap) path
    plus per-resume kernel overhead."""
    n_procs, iters = 120, 400
    sim = Simulator()

    def worker(i: int):
        delay = 1e-6 * ((i % 7) + 1)
        for _ in range(iters):
            yield sim.timeout(delay)

    for i in range(n_procs):
        sim.process(worker(i), name=f"churn-{i}")
    sim.run()
    return {"events": sim._sequence, "sim_elapsed": sim.now}


def store_pingpong() -> dict:
    """Request/reply ping-pong through Stores: every hand-off is a
    same-time ``succeed``, the path the deferred FIFO takes past the
    heap."""
    pairs, items = 40, 1500
    sim = Simulator()

    def producer(req: Store, rsp: Store):
        for n in range(items):
            req.put(n)
            yield rsp.get()

    def consumer(req: Store, rsp: Store):
        for _ in range(items):
            n = yield req.get()
            rsp.put(n + 1)

    for p in range(pairs):
        req, rsp = Store(sim), Store(sim)
        sim.process(producer(req, rsp), name=f"prod-{p}")
        sim.process(consumer(req, rsp), name=f"cons-{p}")
    sim.run()
    return {"events": sim._sequence, "sim_elapsed": sim.now}


def tcp_transfer(express: bool = False) -> dict:
    """Bulk TCP over the full net stack: link, switch, demux, windowing."""
    messages, size = 250, 65536
    sim = Simulator()
    if express:
        ExpressManager(sim)  # must exist before links are built
    arp = ArpTable("bench")
    switch = Switch(sim, "sw")

    def host(name: str, ip: str, mac: str) -> Node:
        node = Node(sim, name)
        iface = Interface(f"{name}.eth0", mac, ip)
        node.add_interface(iface, arp)
        node.stack.add_route("0.0.0.0/0", iface)
        Link(sim, iface, switch.add_port(name))
        return node

    a = host("host-a", "10.0.0.1", "aa:00:00:00:00:01")
    b = host("host-b", "10.0.0.2", "aa:00:00:00:00:02")
    listener = TcpListener(sim, b.stack, "10.0.0.2", 9000)
    received = []

    def server():
        sock = yield listener.accept()
        while len(received) < messages:
            got = yield sock.recv()
            received.append(got)

    def client():
        sock = TcpSocket(sim, a.stack, "10.0.0.1", a.stack.allocate_port())
        yield sock.connect("10.0.0.2", 9000)
        for n in range(messages):
            sock.send(("blob", n), size)

    sim.process(server(), name="server")
    sim.process(client(), name="client")
    sim.run()
    out = {
        "events": sim._sequence,
        "sim_elapsed": sim.now,
        "messages": len(received),
        "sim_throughput_bps": messages * size / sim.now,
    }
    if express:
        out["promotions"] = sim.express.promotions
    return out


def fio_full(mode: str, threads: int, ios_per_thread: int, express: bool = False) -> dict:
    """End-to-end 16 KB fio on the paper's testbed, events included.
    ``express=True`` runs the identical workload over the flow-level
    fast path: fewer events, simulated results equal to the last bit."""
    bed = Testbed(CloudParams(express=express), compute_hosts=5, volume_size=VOLUME_SIZE)
    attach_mode(bed, mode)
    result = fio(bed, 16 * KB, threads=threads, ios_per_thread=ios_per_thread)
    out = {
        "events": bed.sim._sequence,
        "sim_elapsed": result.elapsed,
        "iops": result.iops,
        "mean_latency": result.latency.mean,
        "p99_latency": result.latency.p(99),
        "completed": result.completed,
    }
    if express:
        out["promotions"] = bed.sim.express.promotions
    return out


# -- HA control plane --------------------------------------------------------


def _round6(value: float) -> float:
    """Stabilize float reprs across JSON round-trips."""
    return round(value, 6)


def ha_bed() -> Testbed:
    """The recoverable, instrumented bed with the replicated control plane."""
    return Testbed(ha=True, obs=True)


def election() -> dict:
    """Crash the cluster leader repeatedly; downtime per round is the
    simulated time from the crash to the next ``ha.leader`` event."""
    rounds = 3
    env = ha_bed()
    cluster = env.storm.ha
    env.attach([env.spec(name="svc", relay="fwd")])
    cluster.start()
    crash_times = [1.0 + 2.0 * i for i in range(rounds)]
    for when in crash_times:
        env.injector.at(when, env.injector.crash_leader, cluster, 1.5)
    env.sim.run(until=1.0 + 2.0 * rounds)
    cluster.stop()

    leader_events = [r["ts"] for r in env.events("ha.leader")]
    downtimes = [
        _round6(next(w for w in leader_events if w > crashed_at) - crashed_at)
        for crashed_at in crash_times
    ]
    return {
        "events": env.sim._sequence,
        "sim_elapsed": _round6(env.sim.now),
        "rounds": rounds,
        "downtimes": downtimes,
        "elections": cluster.elections,
        "mean_downtime": _round6(sum(downtimes) / len(downtimes)),
    }


def saga_takeover() -> dict:
    """Kill the leader mid-attach right after the pivot-adjacent
    ``narrow`` step; how long the survivors take to elect and resolve
    the in-flight saga, and which way it resolved."""
    env = ha_bed()
    storm = env.storm
    cluster = storm.ha
    mb = storm.provision_middlebox(env.tenant, env.spec(name="svc", relay="fwd"))
    cluster.start()
    fired: dict = {}

    def probe(saga, step, when):
        if fired or saga.op != "attach_with_services":
            return
        if step.name != "narrow" or when != "after":
            return
        fired["at"] = env.sim.now
        env.injector.crash_leader(cluster, restart_after=1.0)

    storm.engine.probe = probe

    def do_attach():
        yield env.sim.process(
            storm.attach_with_services(env.tenant, env.vm, "vol1", [mb])
        )

    try:
        env.run(do_attach())
    except ControllerCrashed:
        pass
    env.sim.run(until=env.sim.now + 3.0)
    cluster.stop()

    takeover = env.events("ha.takeover")[-1]
    (saga,) = storm.intent_log.by_op("attach_with_services")
    return {
        "events": env.sim._sequence,
        "sim_elapsed": _round6(env.sim.now),
        "crashed_at": _round6(fired["at"]),
        "takeover_latency": _round6(takeover["ts"] - fired["at"]),
        "replayed": takeover["attrs"]["replayed"],
        "rolled_back": takeover["attrs"]["rolled_back"],
        "saga_status": saga.status,
        "flows": len(storm.flows),
    }


def ship_lag() -> dict:
    """Attach/detach churn through the replicated intent log; per-entry
    replication lag percentiles from the ``ha.ship.lag`` histogram."""
    cycles = 6
    env = ha_bed()
    storm = env.storm
    cluster = storm.ha
    bus = ObsBus(env.sim)
    instrument(bus, storm=storm)
    cluster.start()

    for i in range(cycles):
        mb = storm.provision_middlebox(
            env.tenant, env.spec(name=f"svc{i}", relay="fwd")
        )

        def do_cycle(mb=mb):
            flow = yield env.sim.process(
                storm.attach_with_services(env.tenant, env.vm, "vol1", [mb])
            )
            storm.detach(flow)

        env.run(do_cycle())
    env.sim.run(until=env.sim.now + 1.0)  # drain in-flight ships
    cluster.stop()

    lag = bus.metrics.histogram("ha.ship.lag")
    return {
        "events": env.sim._sequence,
        "sim_elapsed": _round6(env.sim.now),
        "cycles": cycles,
        "entries": lag.count,
        "lag_p50": _round6(lag.percentile(50)),
        "lag_p90": _round6(lag.percentile(90)),
        "lag_p99": _round6(lag.percentile(99)),
        "lag_max": _round6(lag.max),
    }


def trace_export() -> dict:
    """The traced fio run's JSONL export, pinned byte for byte: a change
    to how the bus stores or serializes records must leave the export
    identical, not merely run-twice identical."""
    text = traced_fio_export()
    types = [json.loads(line)["type"] for line in text.splitlines()]
    return {
        "records": len(types),
        "spans": types.count("span"),
        "events": types.count("event"),
        "jsonl_blake2s": hashlib.blake2s(text.encode("utf-8")).hexdigest(),
    }


# -- fio_point references ------------------------------------------------------


def fio_reference(mode: str, io_size: int, threads: int, ios_per_thread: int,
                  seek_penalty: float | None = None) -> dict:
    result = fio_point(mode, io_size, threads, ios_per_thread, seek_penalty=seek_penalty)
    return {
        "iops": result.iops,
        "mean_latency": result.latency.mean,
        "p99_latency": result.latency.p(99),
        "elapsed": result.elapsed,
        "completed": result.completed,
        "errors": result.errors,
    }


# -- registry --------------------------------------------------------------

SCENARIOS: dict[str, Callable[[], dict]] = {
    "event_churn": event_churn,
    "store_pingpong": store_pingpong,
    "tcp_transfer": tcp_transfer,
    "fio_legacy": partial(fio_full, LEGACY, 1, 60),
    "fio_full": partial(fio_full, MB_ACTIVE, 4, 150),
    "tcp_transfer_express": partial(tcp_transfer, express=True),
    "fio_full_express": partial(fio_full, MB_ACTIVE, 4, 150, express=True),
    "election": election,
    "saga_takeover": saga_takeover,
    "ship_lag": ship_lag,
    "trace_export": trace_export,
    # fleet tiers, named by target concurrent sessions: rate is
    # concurrency / mean_hold (Little's law), sessions = 2.5x the target
    # so the run holds at the plateau, HA on everywhere (the fleet SLO
    # includes quorum shipping).  The report's blake2s digest of the
    # session trace pins the whole run byte for byte.
    "fleet_1k": partial(
        run_fleet, seed=1, shards=2, tenants=100, sessions=2500,
        arrival_rate=200.0, ha=True, churn_storms=2, storm_size=100,
    ),
    "fleet_10k": partial(
        run_fleet, seed=1, shards=4, tenants=400, sessions=25000,
        arrival_rate=2000.0, ha=True, churn_storms=3, storm_size=100,
    ),
    "fleet_100k": partial(
        run_fleet, seed=1, shards=16, tenants=1000, sessions=250000,
        arrival_rate=20000.0, connect_latency=0.0005, ha=True,
        churn_storms=4, storm_size=250, ios_per_session=2,
    ),
    "LEGACY/16k/1t": partial(fio_reference, LEGACY, 16 * KB, 1, 60),
    "MB-FWD/16k/1t": partial(fio_reference, MB_FWD, 16 * KB, 1, 60),
    "MB-PASSIVE-RELAY/16k/1t": partial(fio_reference, MB_PASSIVE, 16 * KB, 1, 60),
    "MB-ACTIVE-RELAY/16k/1t": partial(fio_reference, MB_ACTIVE, 16 * KB, 1, 60),
    "MB-ACTIVE-RELAY/4k/1t": partial(fio_reference, MB_ACTIVE, 4 * KB, 1, 40),
    # multi-segment PDUs exercise the streamed cut-through path
    "MB-ACTIVE-RELAY/64k/1t": partial(fio_reference, MB_ACTIVE, 64 * KB, 1, 40),
    "MB-ACTIVE-RELAY/256k/1t": partial(fio_reference, MB_ACTIVE, 256 * KB, 1, 40),
    "LEGACY/16k/8t-cached": partial(fio_reference, LEGACY, 16 * KB, 8, 25, CACHED_SEEK),
    "MB-ACTIVE-RELAY/16k/8t-cached": partial(
        fio_reference, MB_ACTIVE, 16 * KB, 8, 25, CACHED_SEEK
    ),
}

#: too long for tier-1 (8 s and 2 min); run by name as scale probes
SLOW = frozenset({"fleet_10k", "fleet_100k"})

PINNED: dict[str, dict] = json.loads(PINNED_PATH.read_text())


def check(name: str, got: dict, pinned: dict[str, dict] = PINNED) -> list[str]:
    """Every way ``got`` differs from the pinned entry ``name``, one
    line per field; empty when they are equal."""
    want = pinned.get(name)
    if want is None:
        return [f"{name}: no pinned entry (record it with --record)"]
    absent = "<absent>"
    return [
        f"{name}: {field} pinned={want.get(field, absent)!r} got={got.get(field, absent)!r}"
        for field in sorted(want.keys() | got.keys())
        if want.get(field, absent) != got.get(field, absent)
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.determinism.pinned",
        description="Run pinned scenarios and compare them with pinned.json.",
    )
    parser.add_argument(
        "names", nargs="*", metavar="name",
        help=f"scenarios to run (default: all but {sorted(SLOW)})",
    )
    parser.add_argument(
        "--record", action="store_true",
        help="rewrite the named entries of pinned.json instead of comparing",
    )
    args = parser.parse_args(argv)
    unknown = [name for name in args.names if name not in SCENARIOS]
    if unknown:
        parser.error(f"unknown scenario(s) {unknown}; available: {list(SCENARIOS)}")
    failures = []
    for name in args.names or [n for n in SCENARIOS if n not in SLOW]:
        start = time.perf_counter()
        got = SCENARIOS[name]()
        wall = time.perf_counter() - start
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        diff = check(name, got)
        if args.record:
            PINNED[name] = got
        else:
            failures += diff
        verdict = "recorded" if args.record else "DIFFERS" if diff else "ok"
        print(f"{name:32s} {verdict:8s} wall={wall:8.3f}s peak_rss={rss_mb:7.1f}MB")
        for line in diff:
            print(f"  {line}")
    if args.record:
        PINNED_PATH.write_text(json.dumps(PINNED, indent=2) + "\n")
        print(f"wrote {PINNED_PATH}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
