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
from repro.cloud import CloudController
from repro.cloud.params import CloudParams
from repro.core import Reconciler, StorM
from repro.core.policy import ServiceSpec
from repro.core.saga import COMMITTED
from repro.faults import FaultInjector
from repro.obs import (
    ObsBus,
    events_of,
    first_trace,
    format_hop_table,
    instrument,
    trace_rows,
)
from repro.services import install_default_services
from repro.sim import Simulator
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

    sim = Simulator()
    params = CloudParams(
        tcp_reliable=True,
        tcp_rto=0.02,
        iscsi_session_recovery=True,
        iscsi_relogin_backoff=0.02,
    )
    cloud = CloudController(sim, params)
    for i in (1, 2, 3, 4):
        cloud.add_compute_host(f"compute{i}")
    cloud.add_storage_host("storage1")
    tenant = cloud.create_tenant("acme")
    vm = cloud.boot_vm(tenant, "app1", cloud.compute_hosts["compute1"])
    cloud.create_volume(tenant, "data-vol", VOLUME_SIZE)

    bus = ObsBus(sim)
    storm = StorM(sim, cloud)
    install_default_services(storm)
    instrument(bus, storm=storm)  # late-created gateways/boxes self-wire
    injector = FaultInjector(sim, seed=42, obs=bus)  # fault timeline rides the bus

    chain = [
        storm.provision_middlebox(
            tenant, ServiceSpec("fwd-a", "noop", relay="fwd", placement="compute2")
        ),
        storm.provision_middlebox(
            tenant, ServiceSpec("fwd-b", "noop", relay="fwd", placement="compute3")
        ),
    ]
    mb_a, mb_b = chain

    loop = Reconciler(storm, default_policy="fail-open")

    def scenario():
        flow = yield sim.process(
            storm.attach_with_services(tenant, vm, "data-vol", chain)
        )
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
        result = yield sim.process(job.run())
        return flow, result

    flow, result = sim.run(until=sim.process(scenario()))
    sim.run()  # drain the control loop

    print("== chain_failover: fio through fwd-a -> fwd-b under a middle-box kill ==")
    print(
        f"fio: {result.completed} IOs in {result.elapsed:.3f}s sim-time "
        f"({result.completed / result.elapsed:,.0f} IOPS) across the failover"
    )
    bypasses = events_of(bus.records, kind="watchdog.bypass")
    reinstates = events_of(bus.records, kind="watchdog.reinstate")
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
    assert Reconciler(storm).audit() == [], "reconciler audit found drift"
    assert storm.intent_log.incomplete() == [], "intent log left in-flight sagas"
    assert trace is not None, "no traced write found in the export"
    print(
        "OK: failover absorbed — bypass + reinstate, audit clean, "
        f"{len(storm.intent_log)} sagas journaled"
    )


if __name__ == "__main__":
    main()
