"""A hostile tenant versus the end-to-end integrity layer.

A compromised middle-box host launches the full attack repertoire
against a monitored, integrity-protected volume: payload tamper on the
wire, PDU replay, in-flight reordering, a fuzz barrage of adversarial
bytes aimed at the semantic monitor's filesystem reconstruction, a
tamper *burst* (which trips the per-flow breaker and makes the
control loop hold the flow fail-closed until the attack stops), and
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
from repro.core import Reconciler
from repro.fs import ExtFilesystem, SessionDevice, fsck
from repro.integrity import IntegrityError
from repro.obs import format_timeline
from repro.testbed import Testbed, recovery_params
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

    # the attack timeline rides the bus
    bed = Testbed(
        recovery_params(integrity=True, tcp_rto=0.02, iscsi_relogin_backoff=0.02),
        volume_size=VOLUME_SIZE, obs=True, seed=42,
    )
    sim, bus, injector, volume = bed.sim, bed.bus, bed.injector, bed.volume
    integrity = bed.cloud.integrity
    ExtFilesystem.mkfs(volume)
    flow, (audit, mon) = bed.attach([
        bed.spec("audit", relay="passive", placement="compute2"),
        bed.spec("mon", "monitor", placement="compute3", mount_point="/mnt/app1"),
    ])
    dog = Reconciler(bed.storm)
    sim.process(dog.run(duration=30.0))

    def scenario():
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

        # -- 4. tamper burst: breaker trips, the loop fails closed -----
        for i in range(3):
            injector.tamper_payload(mon, count=1)
            yield session.write(scratch + i * BLOCK_SIZE, BLOCK_SIZE, block(i + 2))
        assert integrity.tripped(iqn), "burst did not trip the breaker"
        yield sim.timeout(0.5)
        assert flow.chain.quiesced, "the control loop did not quiesce the flow"
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

    bed.run(scenario())

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
    print("-- attack & recovery timeline (repro.obs bus) --")
    prefixes = ("fault.", "tamper.", "watchdog.")
    print(format_timeline([e for e in bed.events() if e["kind"].startswith(prefixes)]))

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
    assert len(bed.events("watchdog.integrity-trip")) == 1
    assert len(bed.events("watchdog.integrity-clear")) == 1
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
