"""Express-mode equivalence matrix.

The flow-level express path (``repro.net.express``) replaces the
packet-by-packet walk of an established TCP flow with an analytic
event walk; the contract is that every *application-level* result —
IOPS, every individual latency sample, transaction counts, filesystem
operation counts, and final simulated time — is byte-identical to
packet mode.  This matrix runs fio, OLTP, and Postmark under both
modes and compares bit-for-bit, and additionally asserts that the
express runs really did engage the fast path (a learner that is always
refused would pass equivalence vacuously).
"""

import pytest

from repro.blockdev.disk import BLOCK_SIZE
from repro.cloud import CloudParams
from repro.core.policy import ServiceSpec
from repro.fs import ExtFilesystem, SessionDevice
from repro.obs import ObsBus, instrument
from repro.testbed import Testbed
from repro.workloads import (
    MySqlServer,
    OltpClient,
    OltpConfig,
    PostmarkConfig,
    PostmarkJob,
    Timeline,
)

from benchmarks.harness import (
    LEGACY, MB_ACTIVE, MB_FWD, MB_PASSIVE, VOLUME_SIZE, attach_mode, build_testbed, fio,
)
from tests.workloads.test_fio import legacy_session


def _bed(mode, express):
    """``build_testbed(mode)``, express on or off."""
    bed = Testbed(CloudParams(express=express), compute_hosts=5, volume_size=VOLUME_SIZE)
    return attach_mode(bed, mode)


def _fio_stream(mode, io_size, ios, express):
    """Application-visible event stream of one fio run: per-IO latency
    samples in completion order plus the summary counters."""
    bed = _bed(mode, express)
    result = fio(bed, io_size, ios_per_thread=ios)
    stream = (
        result.completed,
        result.errors,
        result.iops,
        result.latency.mean,
        result.latency.p(99),
        result.elapsed,
        tuple(result.latency.samples),
        bed.sim.now,
    )
    return stream, bed.sim.express


@pytest.mark.parametrize(
    "mode,io_size,ios",
    [
        (LEGACY, 16 * 1024, 60),
        (MB_ACTIVE, 16 * 1024, 60),
        # multi-segment PDUs exercise the streamed cut-through path
        (MB_ACTIVE, 64 * 1024, 40),
    ],
    ids=["legacy-16k", "active-16k", "active-64k"],
)
def test_fio_express_stream_identical(mode, io_size, ios):
    packet, _ = _fio_stream(mode, io_size, ios, express=False)
    express, manager = _fio_stream(mode, io_size, ios, express=True)
    assert manager is not None and manager.promotions > 0, "fast path never engaged"
    assert express == packet


@pytest.mark.parametrize(
    "mode,outcome",
    [(MB_PASSIVE, (0, 17)), (MB_FWD, (2, 0))],
    ids=["passive-refused", "fwd-promoted"],
)
def test_fio_express_stream_identical_whatever_the_learners_find(mode, outcome):
    """The passive relay's forward hook refuses every learner (each
    counted once, none promoted); a forwarding middle-box is one more
    FIFO step.  Either way the application sees packet mode."""
    packet, _ = _fio_stream(mode, 16 * 1024, 40, express=False)
    express, manager = _fio_stream(mode, 16 * 1024, 40, express=True)
    assert (manager.promotions, manager.probes_failed) == outcome
    assert express == packet


def _side_effect_totals(express):
    """Everything a packet leaves behind on the elements it crosses,
    after an instrumented MB-ACTIVE fio run driven to quiescence."""
    bed = _bed(MB_ACTIVE, express)
    bus = ObsBus(bed.sim)
    instrument(bus, storm=bed.storm)
    fio(bed, 16 * 1024, ios_per_thread=60)
    bed.sim.run(until=bed.sim.now + 0.05)  # trailing ACKs land
    cloud = bed.cloud
    switches = [cloud.storage_switch, cloud.fabric]
    switches += [host.ovs for host in cloud.compute_hosts.values()]
    totals = {
        "metrics": bus.metrics.snapshot(),
        "ports": {
            (switch.name, name): (
                port.tx_packets, port.rx_packets, port.tx_bytes, port.rx_bytes
            )
            for switch in switches
            for name, port in switch.ports.items()
        },
        "switched": {switch.name: switch.packets_switched for switch in switches},
        "rule_hits": {
            (switch.name, n): rule.hits
            for switch in switches
            for n, rule in enumerate(switch.flow_table.rules)
        },
    }
    return totals, bed.sim.express


def test_learned_plan_replays_every_per_hop_side_effect():
    """Application-level equality cannot see an element that forgets to
    report a counter to the learner; the totals at quiescence can."""
    packet, _ = _side_effect_totals(express=False)
    express, manager = _side_effect_totals(express=True)
    assert manager.promotions == 4
    assert len(packet["metrics"]) > 30 and sum(packet["rule_hits"].values()) > 0
    assert express == packet


def _fio_across_reconfigure(express):
    """MB-FWD fio with the chain swapped to a spare middle-box mid-run."""
    bed = _bed(MB_FWD, express)
    spare = bed.storm.provision_middlebox(
        bed.tenant, ServiceSpec("spare", "noop", relay="fwd", placement="compute5")
    )
    manager = bed.sim.express
    around = []

    def swap():
        yield bed.sim.timeout(0.05)
        around.append(manager and (manager.active_flows, manager.demotions))
        bed.storm.reconfigure_chain(bed.flow, [spare])
        around.append(manager and (manager.active_flows, manager.demotions))

    bed.sim.process(swap())
    result = fio(bed, 16 * 1024, ios_per_thread=40)
    stream = (tuple(result.latency.samples), result.elapsed, bed.sim.now)
    assert spare.interfaces[0].rx_packets > 0, "traffic never moved to the spare"
    return stream, around, manager


def test_chain_reconfigure_demotes_through_the_crossed_tables():
    """No controller-side hook: the steering generation lands on flow
    tables the learners crossed, and those announce it themselves."""
    packet, _, _ = _fio_across_reconfigure(express=False)
    express, around, manager = _fio_across_reconfigure(express=True)
    assert around == [(2, 0), (0, 2)]
    assert manager.promotions == 4  # both flows learnt the new way
    assert express == packet


def test_fio_express_identical_on_the_tie_heavy_seed():
    """Regression: the end-to-end benchmark's fio chain at ``--seed 14
    --scale 1.5625`` (16 x 100 I/Os) has packets reaching one element
    at the same simulated instant.  The per-direction pumps broke such
    ties by process wake-up order and 275 of 1601 values differed from
    express by a forwarding-delay quantum; on the shared horizon both
    modes serve ties in delivering-event order and agree exactly."""
    from benchmarks.e2e.workloads import WORKLOADS

    outcomes = {}
    for name in ("fio_packet", "fio_express"):
        workload = WORKLOADS[name](14, 1.5625)
        workload.setup()
        outcomes[name] = workload.run()
    packet, express = outcomes["fio_packet"], outcomes["fio_express"]
    assert len(packet.latencies) == 1600 and packet.failed == 0
    assert express.latencies == packet.latencies
    assert express.sim_elapsed == packet.sim_elapsed


def _oltp_stream(express):
    env = Testbed(CloudParams(express=express), volume_size=4096 * BLOCK_SIZE)
    session = legacy_session(env)
    config = OltpConfig(threads_per_client=2, table_pages=1024)
    server = MySqlServer(env.sim, env.vm, session, env.cloud.params, config)
    timeline = Timeline()
    clients = []
    for i, host in enumerate(["compute2", "compute3"]):
        vm = env.cloud.boot_vm(env.tenant, f"client{i}", env.cloud.compute_hosts[host])
        clients.append(OltpClient(env.sim, vm, env.vm.ip, config, timeline))

    def drive():
        procs = [env.sim.process(c.run(2.0)) for c in clients]
        for p in procs:
            yield p

    env.run(drive())
    stream = (
        server.transactions_committed,
        server.errors,
        tuple(c.completed for c in clients),
        tuple(sorted(timeline._buckets.items())),
        env.sim.now,
    )
    return stream, env.sim.express


def test_oltp_express_stream_identical():
    packet, _ = _oltp_stream(express=False)
    express, manager = _oltp_stream(express=True)
    assert manager is not None and manager.promotions > 0, "fast path never engaged"
    assert express == packet


def _postmark_stream(express):
    env = Testbed(CloudParams(express=express), volume_size=8192 * BLOCK_SIZE)
    session = legacy_session(env)
    device = SessionDevice(session, env.volume.size // BLOCK_SIZE)
    ExtFilesystem.mkfs(env.volume)
    fs = ExtFilesystem(env.sim, device)
    env.run(fs.mount())
    job = PostmarkJob(
        env.sim,
        fs,
        PostmarkConfig(file_count=10, transactions=30),
        vm=env.vm,
        params=env.cloud.params,
    )
    result = env.run(job.run())
    stream = (
        result.creations,
        result.deletions,
        result.reads,
        result.appends,
        result.bytes_read,
        result.bytes_written,
        result.elapsed,
        env.sim.now,
    )
    return stream, env.sim.express


def test_postmark_express_stream_identical():
    packet, _ = _postmark_stream(express=False)
    express, manager = _postmark_stream(express=True)
    assert manager is not None and manager.promotions > 0, "fast path never engaged"
    assert express == packet


def test_express_run_twice_identical():
    """Express mode is itself deterministic, not merely equivalent."""
    first, _ = _fio_stream(MB_ACTIVE, 16 * 1024, 60, express=True)
    second, _ = _fio_stream(MB_ACTIVE, 16 * 1024, 60, express=True)
    assert first == second


def test_express_off_by_default():
    """``--exact`` semantics: a testbed built without the knob has no
    express manager at all, so packet mode is exactly the seed kernel."""
    bed = build_testbed(LEGACY)
    assert bed.sim.express is None
