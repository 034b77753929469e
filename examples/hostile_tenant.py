"""A hostile tenant versus the end-to-end integrity layer.

A compromised middle-box host launches the full attack repertoire
against a monitored, integrity-protected volume: payload tamper on the
wire, PDU replay, in-flight reordering, a fuzz barrage of adversarial
bytes aimed at the semantic monitor's filesystem reconstruction, a
tamper *burst* (which trips the per-flow breaker and makes the
watchdog hold the flow fail-closed until the attack stops), and
finally an unauthorized SDN re-steer that bypasses a configured box —
caught by the SICS-style traversal proof, failing the I/O closed
rather than letting unaudited data through.

Every attack is detected, attributed, and — where a clean copy can be
re-driven — recovered from transparently.  The detection ledger is
compared against the injector's ground truth at the end: exact match,
zero false positives.

Run:  python examples/hostile_tenant.py [--trace out.jsonl] [--chrome out.json]
"""

import argparse

from repro.blockdev.disk import BLOCK_SIZE
from repro.cloud import CloudController
from repro.cloud.params import CloudParams
from repro.core import ChainWatchdog, StorM
from repro.core.policy import ServiceSpec
from repro.faults import FaultInjector
from repro.fs import ExtFilesystem, SessionDevice, fsck
from repro.integrity import IntegrityError
from repro.obs import ObsBus, instrument, make_event_log
from repro.services import install_default_services
from repro.sim import Simulator
from repro.workloads import HostileWorkload

VOLUME_SIZE = 2048 * BLOCK_SIZE


def block(value):
    return bytes([value]) * BLOCK_SIZE


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--trace", metavar="PATH", help="export the trace stream as JSONL"
    )
    parser.add_argument(
        "--chrome", metavar="PATH", help="export a chrome://tracing JSON file"
    )
    args = parser.parse_args()

    sim = Simulator()
    params = CloudParams(
        integrity=True,
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
    volume = cloud.create_volume(tenant, "data-vol", VOLUME_SIZE)
    ExtFilesystem.mkfs(volume)

    storm = StorM(sim, cloud)
    install_default_services(storm)
    bus = ObsBus(sim)
    log = make_event_log(bus)  # the attack timeline rides the trace bus
    injector = FaultInjector(sim, seed=42, log=log)
    instrument(bus, storm=storm)
    integrity = cloud.integrity

    audit = storm.provision_middlebox(
        tenant, ServiceSpec("audit", "noop", relay="passive", placement="compute2")
    )
    mon = storm.provision_middlebox(
        tenant,
        ServiceSpec(
            "mon", "monitor", relay="active", placement="compute3",
            options={"mount_point": "/mnt/app1"},
        ),
    )
    dog = ChainWatchdog(storm, event_log=log)
    sim.process(dog.run(duration=30.0))

    def scenario():
        flow = yield sim.process(
            storm.attach_with_services(tenant, vm, "data-vol", [audit, mon])
        )
        session = flow.session
        iqn = volume.iqn
        fs = ExtFilesystem(sim, SessionDevice(session, VOLUME_SIZE // BLOCK_SIZE))
        yield sim.process(fs.mount())
        scratch = VOLUME_SIZE // 2

        # -- 1. payload tamper: rejected at the target, retried clean --
        injector.tamper_payload(mon, count=1)
        yield session.write(scratch, BLOCK_SIZE, block(1))
        readback = yield session.read(scratch, BLOCK_SIZE)
        assert readback == block(1), "tampered write did not recover"

        # -- 2. replay + reorder through the compromised active relay --
        injector.replay_pdu(mon, count=1)
        yield session.read(scratch, BLOCK_SIZE)
        yield session.read(scratch, BLOCK_SIZE)
        injector.reorder_pdus(mon, count=1)
        pending = [
            session.read(scratch, BLOCK_SIZE),
            session.read(scratch + BLOCK_SIZE, BLOCK_SIZE),
        ]
        for event in pending:
            yield event

        # -- 3. fuzz the semantic monitor, on the wire and point-blank --
        hostile = HostileWorkload(session, seed=9, blocks=32, offset=scratch)
        yield sim.process(hostile.run())
        injector.fuzz_semantic_monitor(mon.service, blocks=32)

        # -- 4. tamper burst: breaker trips, watchdog fails closed -----
        for i in range(3):
            injector.tamper_payload(mon, count=1)
            yield session.write(scratch + i * BLOCK_SIZE, BLOCK_SIZE, block(i + 2))
        assert integrity.tripped(iqn), "burst did not trip the breaker"
        yield sim.timeout(0.5)
        assert flow.chain.quiesced, "watchdog did not quiesce the flow"
        yield sim.timeout(3.0)  # cooldown passes, lockout lifts
        assert not flow.chain.quiesced, "lockout never lifted"

        # -- 5. unauthorized chain bypass: fail closed -----------------
        injector.chain_bypass(flow, audit)
        try:
            yield session.write(scratch, BLOCK_SIZE, block(99))
            raise AssertionError("bypassed write was accepted")
        except IntegrityError:
            pass

        # legitimate state stayed consistent through the whole campaign
        report = fsck(volume)
        assert report.clean, report
        return flow, session

    flow, session = sim.run(until=sim.process(scenario()))

    detections = integrity.detections
    truth = injector.adversarial
    print("== hostile_tenant: every attack detected, attributed, recovered ==")
    print(f"detections ({len(detections)}):")
    for d in detections:
        print(
            f"  t={d.when:7.4f}  {d.kind:16s} {d.direction:10s} "
            f"at {d.where}: {d.op} offset={d.offset} seq={d.seq}"
        )
    print(f"ground truth rows: {len(truth)}")
    print(
        f"counters: stamped={integrity.stamped} verified={integrity.verified} "
        f"retries={integrity.retries} breaker_trips={integrity.breaker.trips} "
        f"monitor_garbage={mon.service.garbage_accesses}"
    )
    print()
    print("-- attack & recovery timeline (repro.obs.EventLog) --")
    print(log.format())

    # -- invariants: exactness ---------------------------------------------
    # point attacks (tamper/replay/reorder) match ground truth row for row
    point_detected = sorted(
        (d.kind, d.flow, d.seq) for d in detections if d.kind != "chain-violation"
    )
    point_injected = sorted(
        (r["kind"], r["flow"], r["seq"]) for r in truth if r["kind"] != "chain-violation"
    )
    assert point_detected == point_injected, "ledger diverged from ground truth"
    # the persistent bypass was caught on the write and on every retry
    violations = [d for d in detections if d.kind == "chain-violation"]
    assert len(violations) == 1 + integrity.max_retries
    # two bursts tripped the breaker: the tamper volley, then the
    # bypass write's rapid-fire retries
    assert integrity.breaker.trips == 2
    assert log.count("watchdog.integrity-trip") == 1
    assert log.count("watchdog.integrity-clear") == 1
    assert mon.service.garbage_accesses >= 1, "fuzz never reached the monitor"
    assert bus.metrics.counter("integrity.detections", volume.iqn).value == len(
        detections
    )
    print(
        f"OK: {len(detections)} detections == ground truth, "
        "burst tripped fail-closed lockout, bypass failed closed, fsck clean"
    )
    if args.trace:
        bus.export_jsonl(args.trace)
        print(f"wrote JSONL trace to {args.trace}")
    if args.chrome:
        bus.export_chrome(args.chrome)
        print(f"wrote chrome trace to {args.chrome} (open in chrome://tracing)")


if __name__ == "__main__":
    main()
