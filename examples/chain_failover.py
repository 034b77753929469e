"""Middle-box failover on a live storage chain.

Fio hammers a volume attached through a two-box forwarding chain while
a middle-box is killed mid-workload.  The chain control loop detects
the dead box within one tick and — under the tenant's *fail-open*
policy — bypasses it by re-steering the flow onto the surviving box
(make-before-break, SDN rules only).  When the box restarts, the loop
reinstates the chain the attach committed.  The same loop audits
SDN/NAT state every tick, and the platform journals every control
operation, the loop's writes included, in its intent log.

The whole run is traced through :mod:`repro.obs`: the fault timeline
rides the same bus as the request spans, and the report ends with a
per-hop latency breakdown of one traced write (where each microsecond
went, initiator -> gateways -> chain -> target and back).

Run:  python examples/chain_failover.py [--trace out.jsonl] [--chrome out.json]
"""

import argparse

from repro.blockdev.disk import BLOCK_SIZE
from repro.cloud import CloudParams
from repro.core import Reconciler
from repro.core.saga import COMMITTED
from repro.obs import first_trace, format_hop_table, trace_rows
from repro.testbed import Testbed, assert_at_rest
from repro.workloads import FioConfig, FioJob

VOLUME_SIZE = 2048 * BLOCK_SIZE


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--trace", metavar="PATH", help="export the trace stream as JSONL"
    )
    parser.add_argument(
        "--chrome", metavar="PATH", help="export a chrome://tracing JSON file"
    )
    args = parser.parse_args(argv)

    # the fault timeline rides the same bus as the request spans
    bed = Testbed(
        CloudParams(tcp_rto=0.02, iscsi_relogin_backoff=0.02),
        volume_size=VOLUME_SIZE, obs=True, seed=42,
    )
    sim, storm, bus, injector = bed.sim, bed.storm, bed.bus, bed.injector
    flow, (mb_a, mb_b) = bed.attach([
        bed.spec("fwd-a", relay="fwd", placement="compute2"),
        bed.spec("fwd-b", relay="fwd", placement="compute3"),
    ])
    loop = Reconciler(storm, default_policy="fail-open")

    def scenario():
        sim.process(loop.run(interval=0.05, duration=3.0))

        # kill fwd-a mid-workload; bring it back 0.6s later
        injector.at(0.25, injector.crash, mb_a, 0.6)

        config = FioConfig(
            io_size=4 * BLOCK_SIZE,
            num_threads=2,
            ios_per_thread=100,
            read_fraction=0.5,
            region_size=VOLUME_SIZE // 2,
            seed=7,
        )
        job = FioJob(sim, flow.session, config)
        return (yield sim.process(job.run()))

    result = bed.run(scenario())
    sim.run()  # drain the control loop

    print("== chain_failover: fio through fwd-a -> fwd-b under a middle-box kill ==")
    print(
        f"fio: {result.completed} IOs in {result.elapsed:.3f}s sim-time "
        f"({result.completed / result.elapsed:,.0f} IOPS) across the failover"
    )
    bypasses = bed.events("watchdog.bypass")
    reinstates = bed.events("watchdog.reinstate")
    print(
        f"failover: bypass at t={bypasses[0]['ts']:.3f}s "
        f"(dead={bypasses[0]['attrs']['dead']}), "
        f"reinstate at t={reinstates[0]['ts']:.3f}s"
        if bypasses and reinstates
        else "failover: (none observed)"
    )

    # -- one traced write, hop by hop -------------------------------------
    records = bus.export_records()
    trace = first_trace(records, root_prefix="iscsi.write")
    print()
    print("-- per-hop latency of the first traced write (repro.obs) --")
    print(format_hop_table(trace_rows(records, trace)))
    print(
        f"\ntrace stream: {len(records)} records, "
        f"{bus.spans_started} spans, {bus.events_emitted} events"
    )
    if args.trace:
        bus.export_jsonl(args.trace)
        print(f"wrote JSONL trace to {args.trace}")
    if args.chrome:
        bus.export_chrome(args.chrome)
        print(f"wrote chrome trace to {args.chrome} (open in chrome://tracing)")

    # -- invariants --------------------------------------------------------
    assert result.completed == 200, "fio did not finish across the failover"
    assert len(bypasses) == 1, "the loop never bypassed the dead box"
    assert bypasses[0]["attrs"]["dead"] == [mb_a.name]
    assert bypasses[0]["attrs"]["chain"] == [mb_b.name]
    assert len(reinstates) == 1, "the loop never reinstated the chain"
    assert flow.middleboxes == [mb_a, mb_b], "desired chain not restored"
    steers = [
        saga.detail["chain"]
        for saga in storm.intent_log.by_op("reconfigure_chain")
        if saga.status == COMMITTED
    ]
    assert steers == [[mb_b.name], [mb_a.name, mb_b.name]], "bypass/reinstate not journaled"
    assert_at_rest(storm)
    assert trace is not None, "no traced write found in the export"
    print(
        "OK: failover absorbed — bypass + reinstate, audit clean, "
        f"{len(storm.intent_log)} sagas journaled"
    )


if __name__ == "__main__":
    main()
