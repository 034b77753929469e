"""Controller failover under load: kill the leader mid-fio.

A three-replica StorM control plane (``ha=True``) journals every
control operation into a quorum-replicated intent log.  Fio hammers a
volume attached through a forwarding middle-box while the *leader
replica* is crashed mid-workload: the two survivors detect the silence,
elect a successor on their seeded timeouts, and the new leader takes
over from the shipped log — the data plane never stops (the express
path demotes across the handoff and re-promotes after clean ACKs).
When the old leader restarts it rejoins as a follower and is
snapshot-caught-up.

The run prints the failover timeline straight from the shared trace:
the crash, each election, the leadership change, the takeover sweep,
and the rejoin.

Run:  python examples/controller_failover.py [--trace out.jsonl] [--chrome out.json]
"""

import argparse

from repro.blockdev.disk import BLOCK_SIZE
from repro.cloud import CloudParams
from repro.testbed import Testbed, assert_at_rest
from repro.workloads import FioConfig, FioJob

VOLUME_SIZE = 2048 * BLOCK_SIZE
TIMELINE_KINDS = (
    "fault.crash",
    "fault.restart",
    "ha.elect",
    "ha.leader",
    "ha.takeover",
    "ha.rejoin",
    "ha.catch-up",
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--trace", metavar="PATH", help="export the trace stream as JSONL"
    )
    parser.add_argument(
        "--chrome", metavar="PATH", help="export a chrome://tracing JSON file"
    )
    args = parser.parse_args(argv)

    # the failover timeline rides the trace bus
    bed = Testbed(
        CloudParams(express=True, tcp_rto=0.02, iscsi_relogin_backoff=0.02),
        compute_hosts=3, volume_size=VOLUME_SIZE, ha=True, obs=True, seed=42,
    )
    sim, storm, bus, injector = bed.sim, bed.storm, bed.bus, bed.injector
    cluster = storm.ha
    flow, _ = bed.attach(
        [bed.spec("fwd-svc", relay="fwd", placement="compute2")], egress_host="compute3"
    )

    def scenario():
        cluster.start()
        # kill whoever leads at t=0.25 mid-fio; resurrect 0.8s later
        injector.at(0.25, injector.crash_leader, cluster, 0.8)

        config = FioConfig(
            io_size=4 * BLOCK_SIZE,
            num_threads=2,
            ios_per_thread=150,
            read_fraction=0.5,
            region_size=VOLUME_SIZE // 2,
            seed=7,
        )
        job = FioJob(sim, flow.session, config, vm=bed.vm, params=bed.params)
        return (yield sim.process(job.run()))

    result = bed.run(scenario())
    sim.run(until=sim.now + 1.5)  # restart -> rejoin -> catch-up
    cluster.stop()

    print("== controller_failover: fio across a leader crash + election ==")
    print(
        f"fio: {result.completed} IOs in {result.elapsed:.3f}s sim-time "
        f"({result.completed / result.elapsed:,.0f} IOPS) across the failover"
    )
    print(
        f"cluster: leader {cluster.leader_name} term {cluster.term} "
        f"after {cluster.elections} election(s), quorum {cluster.quorum}/3"
    )

    print()
    print("-- failover timeline (from the shared trace) --")
    for event in bed.events():
        if event["kind"] not in TIMELINE_KINDS:
            continue
        detail = " ".join(f"{k}={v}" for k, v in sorted(event["attrs"].items()))
        print(f"  t={event['ts']:8.4f}s  {event['kind']:<14} {event['target']:<10} {detail}")

    express = sim.express
    print(
        f"\nexpress path: {express.promotions} promotions, "
        f"{express.demotions} demotions (crash + ha-failover, then re-promoted)"
    )
    if args.trace:
        bus.export_jsonl(args.trace)
        print(f"wrote JSONL trace to {args.trace}")
    if args.chrome:
        bus.export_chrome(args.chrome)
        print(f"wrote chrome trace to {args.chrome} (open in chrome://tracing)")

    # -- invariants --------------------------------------------------------
    assert result.completed == 300, "fio did not finish across the failover"
    assert result.errors == 0
    assert cluster.leader_name != "storm-cp0", "leadership never moved"
    assert cluster.term >= 2
    assert bed.events("ha.leader"), "no election recorded"
    assert len(bed.events("ha.rejoin")) == 1, "ex-leader never rejoined"
    leader_log = cluster.logs[cluster.leader_name]
    assert all(
        cluster.logs[n.name].last_index == leader_log.last_index
        for n in cluster.nodes
    ), "replica logs diverged"
    assert flow in storm.flows
    assert_at_rest(storm)
    print(
        "OK: leader failover absorbed mid-fio — election + takeover + rejoin, "
        "audit clean, logs level"
    )


if __name__ == "__main__":
    main()
