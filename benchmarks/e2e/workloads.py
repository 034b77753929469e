"""The five workloads: what is built, what runs, what is checked.

Nothing here reads a wall clock: a workload is a pure function of
``(seed, scale)``, so everything it returns repeats bit for bit.  The
runner times ``setup()`` and ``run()`` from outside.

Sizes at ``scale=1.0`` are chosen so one round takes 1-5 host seconds
on the reference machine; ``--scale`` multiplies the op counts only.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

from repro.cloud import CloudController, CloudParams
from repro.core import StorM
from repro.core.policy import ServiceSpec
from repro.core.saga import COMMITTED
from repro.fleet import FleetConfig, FleetRun
from repro.fleet.generator import FleetRunError
from repro.fs import ExtFilesystem, SessionDevice, dump_layout
from repro.fs.layout import BLOCK_SIZE
from repro.obs import ObsBus, RingSink, instrument
from repro.services import install_default_services
from repro.sim import Simulator
from repro.workloads import FioConfig, FioJob, PostmarkConfig, PostmarkJob


class CheckFailed(Exception):
    """A workload's outputs are wrong (not a performance result)."""


@dataclass
class Outcome:
    """What one run did, in simulated terms only."""

    attempted: int
    failed: int
    #: simulated seconds the attempted ops took
    sim_elapsed: float
    #: simulated seconds per completed op
    latencies: list[float]
    #: extra exact output folded into the digest (fleet trace digest)
    extra: str = ""

    def digest(self) -> str:
        """blake2s over every exact simulated output.  The event count
        is left out on purpose: an optimisation may lower it."""
        h = hashlib.blake2s()
        h.update(repr((self.attempted, self.failed, self.extra)).encode())
        h.update(struct.pack(f"<{len(self.latencies) + 1}d", self.sim_elapsed, *self.latencies))
        return h.hexdigest()


class TimedSession:
    """Records simulated latency per I/O at the iSCSI session boundary.

    The benchmark's own span: it wraps the calls *into* the stack, so
    Fio I/Os and filesystem block I/Os are timed the same way without
    touching ``src/``.
    """

    def __init__(self, sim: Simulator, session) -> None:
        self.sim = sim
        self.session = session
        self.reset()

    def reset(self) -> None:
        self.issued = 0
        self.failed = 0
        self.latencies: list[float] = []

    def _time(self, event):
        self.issued += 1
        issued_at = self.sim.now

        def done(ev) -> None:
            if ev.ok:
                self.latencies.append(self.sim.now - issued_at)
            else:
                self.failed += 1

        event.callbacks.append(done)
        return event

    def read(self, offset: int, length: int):
        return self._time(self.session.read(offset, length))

    def write(self, offset: int, length: int, data=None):
        return self._time(self.session.write(offset, length, data))

    def outcome(self, sim_elapsed: float) -> Outcome:
        return Outcome(self.issued, self.failed, sim_elapsed, list(self.latencies))


class Bed:
    """The paper's §V-A testbed: one tenant VM, one volume, and a
    service chain placed worst case (VM, ingress gateway, middle-boxes
    and egress gateway all on different hosts)."""

    def __init__(
        self,
        params: CloudParams,
        volume_size: int = 16 * 1024 * 1024,
        ha: bool = False,
        obs: bool = False,
    ) -> None:
        self.sim = Simulator()
        self.cloud = CloudController(self.sim, params)
        for i in range(1, 6):
            self.cloud.add_compute_host(f"compute{i}")
        self.cloud.add_storage_host("storage1")
        self.tenant = self.cloud.create_tenant("acme")
        self.vm = self.cloud.boot_vm(self.tenant, "vm1", self.cloud.compute_hosts["compute1"])
        self.volume = self.cloud.create_volume(self.tenant, "vol1", volume_size)
        self.storm = StorM(self.sim, self.cloud, ha=ha)
        install_default_services(self.storm)
        self.bus = None
        if obs:
            # bounded ring instead of the default unbounded collector:
            # what a long-running deployment would wire
            self.bus = ObsBus(self.sim)
            self.ring = RingSink(capacity=32768)
            self.bus.sinks[:] = [self.ring]
            instrument(self.bus, storm=self.storm)
        if ha:
            self.storm.ha.start()
        self.middleboxes: list = []
        self.session: TimedSession | None = None

    def run(self, gen):
        return self.sim.run(until=self.sim.process(gen))

    def provision(self, name: str, kind: str, placement: str, **options):
        mb = self.storm.provision_middlebox(
            self.tenant,
            ServiceSpec(name, kind, relay="active", placement=placement, options=options),
        )
        self.middleboxes.append(mb)
        return mb

    def attach(self) -> None:
        hosts = self.cloud.compute_hosts
        flow = self.run(
            self.storm.attach_with_services(
                self.tenant,
                self.vm,
                "vol1",
                self.middleboxes,
                ingress_host=hosts["compute2"],
                egress_host=hosts["compute4"],
            )
        )
        self.session = TimedSession(self.sim, flow.session)

    def cache_target_disk(self) -> None:
        """The target's page cache absorbs the working set (paper's
        multi-thread runs), so simulated latency is path-bound."""
        for storage_host in self.cloud.storage_hosts.values():
            storage_host.disk.seek_penalty = 0.5e-3
            storage_host.disk.set_queue_depth(32)


def _scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


class Workload:
    """One named workload instance; fresh per round."""

    name = ""
    why = ""
    #: what one "op" is in ``attempted`` / ``sim_ops_per_s`` / latency
    op = ""
    #: open or closed loop, with client count or rate
    load = ""
    #: a workload whose simulated results this one claims bit for bit
    twin: "type[Workload] | None" = None
    #: what the traced pass must show, as (layer, "share>=" | "share<="
    #: | "calls==", value).  These are properties of the workload: a
    #: change that breaks one has changed what the benchmark measures.
    #: Upper limits sit at twice what the reference machine shows,
    #: because profile shares move with the host.
    layer_checks: tuple[tuple[str, str, float], ...] = ()

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.scale = scale

    def setup(self) -> None:
        """Everything up to 'ready for the first op'."""
        raise NotImplementedError

    def run(self) -> Outcome:
        raise NotImplementedError

    def verify(self, outcome: Outcome) -> None:
        """Output checks beyond the digest; raises :class:`CheckFailed`."""

    def events(self) -> int:
        raise NotImplementedError

    def plants(self) -> list[tuple[CloudController, StorM]]:
        raise NotImplementedError

    def counters(self) -> dict[str, float]:
        """Exact per-layer counters, read after an untraced run."""
        out = _zero_counters()
        for cloud, storm in self.plants():
            for key, value in plant_counters(cloud, storm).items():
                out[key] += value
        out["sim.events"] = self.events()
        self.extra_counters(out)
        return out

    def extra_counters(self, out: dict[str, float]) -> None:
        """Counters that live outside the cloud + platform pairs."""

    def span_records(self) -> list[dict]:
        """``repro.obs`` records the workload emitted (none when obs is off)."""
        return []


class BedWorkload(Workload):
    """A workload on one :class:`Bed` with one tenant session."""

    bed: Bed

    def events(self) -> int:
        return self.bed.sim._sequence

    def plants(self):
        return [(self.bed.cloud, self.bed.storm)]

    def extra_counters(self, out: dict[str, float]) -> None:
        bed = self.bed
        session = bed.session.session
        out["iscsi.reads_completed"] = session.reads_completed
        out["iscsi.writes_completed"] = session.writes_completed
        out["iscsi.commands_reissued"] = session.commands_reissued
        out["iscsi.relogins"] = session.relogins
        out["net.tcp.bytes_sent"] += session.socket.bytes_sent
        out["net.tcp.retransmits"] += session.socket.retransmits
        out["cloud.vm_cpu_busy_sim_s"] = bed.vm.cpu.busy_time
        if bed.bus is not None:
            out["obs.spans_started"] = bed.bus.spans_started
            out["obs.events_emitted"] = bed.bus.events_emitted

    def span_records(self) -> list[dict]:
        return self.bed.ring.records if self.bed.bus is not None else []


# -- fio family --------------------------------------------------------------


class FioPacket(BedWorkload):
    name = "fio_packet"
    why = (
        "Paper SecV-A chain (ACTIVE relay + stream cipher) per packet: the oracle "
        "data path; sim kernel and net.fabric do the work, control plane ~0."
    )
    op = "one 16 KB Fio I/O"
    load = "closed loop, 16 clients"

    layer_checks = (
        ("net.fabric", "share>=", 0.20),
        ("net.express", "calls==", 0),
        ("core.control", "share<=", 0.01),
        ("crypto", "share<=", 0.04),
        ("obs", "calls==", 0),
        ("integrity", "calls==", 0),
    )

    threads = 16
    ios_per_thread = 64
    carry_data = False
    ha = False
    obs = False

    def params(self) -> CloudParams:
        return CloudParams()

    def setup(self) -> None:
        bed = self.bed = Bed(self.params(), ha=self.ha, obs=self.obs)
        bed.provision("svc", "encryption", "compute3", algorithm="stream")
        bed.attach()
        bed.cache_target_disk()
        config = FioConfig(
            io_size=16 * 1024,
            num_threads=self.threads,
            read_fraction=0.5,
            pattern="random",
            ios_per_thread=_scaled(self.ios_per_thread, self.scale),
            region_size=bed.volume.size,
            seed=self.seed,
            carry_data=self.carry_data,
        )
        self.job = FioJob(bed.sim, bed.session, config, vm=bed.vm, params=bed.cloud.params)

    def run(self) -> Outcome:
        self.bed.session.reset()
        self.result = self.bed.run(self.job.run())
        return self.bed.session.outcome(self.result.elapsed)

    def verify(self, outcome: Outcome) -> None:
        result = self.result
        planned = self.job.config.num_threads * self.job.config.ios_per_thread
        if outcome.attempted != planned:
            raise CheckFailed(f"{outcome.attempted} I/Os issued, {planned} planned")
        if (result.completed, result.errors) != (len(outcome.latencies), outcome.failed):
            raise CheckFailed("FioResult disagrees with the session-boundary recorder")
        integrity = self.bed.cloud.integrity
        if integrity is not None and integrity.detections:
            raise CheckFailed(f"{len(integrity.detections)} integrity detections on a clean path")


class FioExpress(FioPacket):
    name = "fio_express"
    why = (
        "Same traffic as fio_packet over the express fast path: net.express does the "
        "work instead of net.fabric; sim results must equal fio_packet bit for bit."
    )
    twin = FioPacket
    layer_checks = (
        ("net.express", "share>=", 0.20),
        ("net.fabric", "share<=", 0.08),
        ("crypto", "share<=", 0.04),
    )

    def params(self) -> CloudParams:
        return CloudParams(express=True)


class FioHardened(FioPacket):
    name = "fio_hardened"
    why = (
        "fio_packet traffic with real payload bytes on the deployable configuration "
        "(reliable TCP, session recovery, integrity, eviction, HA, obs into a ring): "
        "the only workload where obs and integrity run."
    )
    layer_checks = (("obs", "share>=", 0.04), ("crypto", "share<=", 0.04))
    carry_data = True
    ha = True
    obs = True

    def params(self) -> CloudParams:
        return CloudParams(
            tcp_reliable=True,
            iscsi_session_recovery=True,
            integrity=True,
            evict_detached=True,
        )


# -- audit bundle --------------------------------------------------------------


class AuditPostmark(BedWorkload):
    name = "audit_postmark"
    why = (
        "Paper SecII-B bundle: monitor -> AES-CTR encryption under a filesystem running "
        "PostMark with real 4 KB payloads; the only user of crypto, services, "
        "core.semantics and fs."
    )
    op = "one 4 KB block I/O issued by the filesystem"
    load = "closed loop, 1 client"
    layer_checks = (("crypto", "share>=", 0.80),)

    volume_size = 48 * 1024 * 1024
    file_count = 4
    transactions = 8

    def setup(self) -> None:
        bed = self.bed = Bed(CloudParams(), volume_size=self.volume_size)
        ExtFilesystem.mkfs(bed.volume)
        self.monitor = bed.provision("audit", "monitor", "compute3").service
        self.crypt = bed.provision("crypt", "encryption", "compute5").service
        # monitor first: it sees plaintext, so its view comes from the
        # image before the at-rest copy turns into ciphertext
        self.monitor.use_view(dump_layout(bed.volume))
        self.crypt.encrypt_volume(bed.volume)
        bed.attach()
        self.fs = self._mount()
        config = PostmarkConfig(
            file_count=_scaled(self.file_count, self.scale),
            transactions=_scaled(self.transactions, self.scale),
            seed=self.seed,
        )
        self.job = PostmarkJob(bed.sim, self.fs, config, vm=bed.vm, params=bed.cloud.params)

    def _mount(self) -> ExtFilesystem:
        device = SessionDevice(self.bed.session, self.volume_size // BLOCK_SIZE)
        fs = ExtFilesystem(self.bed.sim, device, page_cache=False)
        self.bed.run(fs.mount())
        return fs

    def run(self) -> Outcome:
        bed = self.bed
        bed.session.reset()
        start = bed.sim.now
        self.result = bed.run(self.job.run())
        bed.run(self.fs.flush())
        return bed.session.outcome(bed.sim.now - start)

    def verify(self, outcome: Outcome) -> None:
        result = self.result
        directory = self.job.config.directory
        fresh = self._mount()
        names = self.bed.run(fresh.listdir(directory))
        expected = result.creations - result.deletions
        if len(names) != expected:
            raise CheckFailed(f"fresh mount lists {len(names)} files, expected {expected}")
        # the image is ciphertext, so fsck on the raw volume is not the
        # check: compare what sits at rest with what the tenant wrote
        _ino, inode = self.bed.run(fresh.stat(f"{directory}/{names[0]}"))
        at_rest = [
            self.bed.volume.read_sync(block * BLOCK_SIZE, BLOCK_SIZE)
            for block in (0, inode.direct[0])
        ]
        if at_rest[0] == self.fs.sb.pack() or at_rest[1] == bytes(BLOCK_SIZE):
            raise CheckFailed("at-rest volume holds plaintext")
        if not self.monitor.access_log:
            raise CheckFailed("monitor recorded no accesses")
        if self.monitor.garbage_accesses:
            raise CheckFailed(f"{self.monitor.garbage_accesses} garbage accesses on a clean path")


# -- control plane ---------------------------------------------------------------


class FleetChurn(Workload):
    name = "fleet_churn"
    why = (
        "Control plane only: seeded Poisson arrivals at 2000 sessions per simulated "
        "second run real HA attach/detach sagas on 4 shards, in the overloaded regime "
        "where attach latency is mutex queueing."
    )
    op = "one session (attach saga, hold, detach saga)"
    load = "open loop, 2000 sessions per simulated second"
    layer_checks = (("core.control", "share>=", 0.40), ("crypto", "share<=", 0.04))

    sessions = 4000
    storm_size = 100

    def setup(self) -> None:
        self.fleet = FleetRun(
            FleetConfig(
                seed=self.seed,
                shards=4,
                tenants=400,
                sessions=_scaled(self.sessions, self.scale),
                arrival_rate=2000.0,
                ha=True,
                churn_storms=2,
                storm_size=_scaled(self.storm_size, self.scale),
            )
        )

    def run(self) -> Outcome:
        fleet = self.fleet
        try:
            fleet.run()
        except FleetRunError:
            pass  # shows as failed ops below
        trace = fleet.trace
        if not trace:
            return Outcome(len(fleet.plan), len(fleet.plan), 0.0, [], fleet.trace_digest())
        # latency is timed from each session's scheduled arrival; the
        # window runs from the first arrival to the last attach done
        window = max(t["at"] + t["lat"] for t in trace) - min(t["at"] for t in trace)
        return Outcome(
            attempted=len(fleet.plan),
            failed=len(fleet.plan) - fleet.completed,
            sim_elapsed=window,
            latencies=[t["lat"] for t in trace],
            extra=fleet.trace_digest(),
        )

    def verify(self, outcome: Outcome) -> None:
        if outcome.failed:
            raise CheckFailed(f"{outcome.failed} planned sessions did not complete")
        for domain in self.fleet.domains:
            if domain.storm.flows:
                raise CheckFailed(f"domain {domain.domain_id} ends with live flows")

    def events(self) -> int:
        return self.fleet.kernel.events

    def plants(self):
        return [(domain.cloud, domain.storm) for domain in self.fleet.domains]

    def extra_counters(self, out: dict[str, float]) -> None:
        fleet = self.fleet
        out["fleet.sessions"] = fleet.completed
        out["fleet.peak_concurrent"] = fleet.peak_concurrent
        out["fleet.io_ops"] = fleet.metrics.counter("fleet.io.ops").value
        out["fleet.events_per_session"] = fleet.kernel.events / max(1, fleet.completed)
        # arrivals are released in simulated time, so never late
        out["fleet.generator_lag_s"] = 0.0


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (FioPacket, FioExpress, FioHardened, AuditPostmark, FleetChurn)
}


# -- exact counters ----------------------------------------------------------------

#: every counter a workload reports (zero where the layer does not run)
COUNTERS: dict[str, str] = {
    "sim.events": "count",
    "net.fabric.link_tx_packets": "count",
    "net.fabric.packets_switched": "count",
    "net.fabric.dropped_packets": "count",
    "net.tcp.bytes_sent": "bytes",
    "net.tcp.retransmits": "count",
    "net.express.promotions": "count",
    "net.express.demotions": "count",
    "net.express.probes_failed": "count",
    "iscsi.reads_completed": "count",
    "iscsi.writes_completed": "count",
    "iscsi.commands_served": "count",
    "iscsi.commands_reissued": "count",
    "iscsi.relogins": "count",
    "core.relay.pdus_relayed": "count",
    "core.relay.pdus_replayed": "count",
    "core.relay.nvm_peak": "count",
    "core.relay.mb_cpu_busy_sim_s": "s",
    "core.control.sagas_committed": "count",
    "core.control.sagas_rolled_back": "count",
    "core.control.journal_entries": "count",
    "core.control.elections": "count",
    "cloud.vm_cpu_busy_sim_s": "s",
    "blockdev.reads": "count",
    "blockdev.writes": "count",
    "blockdev.busy_sim_s": "s",
    "blockdev.errors": "count",
    "services.bytes_encrypted": "bytes",
    "services.bytes_decrypted": "bytes",
    "services.monitor_records": "count",
    "services.garbage_accesses": "count",
    "integrity.stamped": "count",
    "integrity.verified": "count",
    "integrity.retries": "count",
    "integrity.detections": "count",
    "integrity.trips": "count",
    "obs.spans_started": "count",
    "obs.events_emitted": "count",
    "fleet.sessions": "count",
    "fleet.peak_concurrent": "count",
    "fleet.io_ops": "count",
    "fleet.events_per_session": "count",
    "fleet.generator_lag_s": "s",
}


def _zero_counters() -> dict[str, float]:
    return dict.fromkeys(COUNTERS, 0)


def plant_counters(cloud: CloudController, storm: StorM) -> dict[str, float]:
    """Counters of one cloud + platform, from their public attributes."""
    out = _zero_counters()
    switches = [cloud.storage_switch, cloud.fabric]
    switches += [host.ovs for host in cloud.compute_hosts.values()]
    out["net.fabric.packets_switched"] = sum(s.packets_switched for s in switches)
    # every fabric link has a switch port on one end
    nics = {}
    for switch in switches:
        for port in switch.ports.values():
            if port.link is not None:
                nics[id(port.link.a)] = port.link.a
                nics[id(port.link.b)] = port.link.b
    out["net.fabric.link_tx_packets"] = sum(nic.tx_packets for nic in nics.values())
    nodes = {id(nic.owner): nic.owner for nic in nics.values()}
    out["net.fabric.dropped_packets"] = sum(
        node.stack.dropped_packets for node in nodes.values() if hasattr(node, "stack")
    )

    express = cloud.sim.express
    if express is not None:
        out["net.express.promotions"] = express.promotions
        out["net.express.demotions"] = express.demotions
        out["net.express.probes_failed"] = express.probes_failed

    for mb in storm.middleboxes.values():
        out["core.relay.mb_cpu_busy_sim_s"] += mb.cpu.busy_time
        relay = mb.relay
        if hasattr(relay, "pairs"):  # the active relay
            out["core.relay.pdus_relayed"] += relay.pdus_relayed
            out["core.relay.pdus_replayed"] += relay.pdus_replayed
            out["core.relay.nvm_peak"] += relay.nvm_peak
            for pair in relay.pairs:
                for sock in (pair.server, pair.client):
                    out["net.tcp.bytes_sent"] += sock.bytes_sent
                    out["net.tcp.retransmits"] += sock.retransmits
        service = mb.service
        if hasattr(service, "bytes_encrypted"):
            out["services.bytes_encrypted"] += service.bytes_encrypted
            out["services.bytes_decrypted"] += service.bytes_decrypted
        if hasattr(service, "access_log"):
            out["services.monitor_records"] += len(service.access_log)
            out["services.garbage_accesses"] += service.garbage_accesses

    log = storm.intent_log
    if log is not None:
        resolved = [saga for saga in log.sagas if not saga.incomplete]
        committed = sum(1 for saga in resolved if saga.status == COMMITTED)
        out["core.control.sagas_committed"] = log.compacted_committed + committed
        out["core.control.sagas_rolled_back"] = (
            log.compacted_aborted + len(resolved) - committed
        )
    if storm.ha is not None:
        out["core.control.elections"] = storm.ha.elections
        out["core.control.journal_entries"] = storm.ha.logs[storm.ha.leader_name].last_index

    for host in cloud.storage_hosts.values():
        stats = host.disk.stats
        out["blockdev.reads"] += stats.reads
        out["blockdev.writes"] += stats.writes
        out["blockdev.busy_sim_s"] += stats.busy_time
        out["blockdev.errors"] += stats.errors
        out["iscsi.commands_served"] += host.target.commands_served

    integrity = cloud.integrity
    if integrity is not None:
        out["integrity.stamped"] = integrity.stamped
        out["integrity.verified"] = integrity.verified
        out["integrity.retries"] = integrity.retries
        out["integrity.detections"] = len(integrity.detections)
        out["integrity.trips"] = integrity.breaker.trips
    return out


#: span-name prefix -> hop
HOPS = {"iscsi": "initiator", "relay": "relay", "service": "service", "target": "target"}


def hop_self_ms(records: list[dict]) -> dict[str, float]:
    """Mean simulated self time per request by hop, from the span
    records ``fio_hardened`` already emits.  A span's self time is its
    duration minus the part its child spans cover.  The ring drops its
    oldest records, so only requests that started after the oldest kept
    record are counted: all their spans are still there."""
    if not records:
        return {f"sim_hop_ms.{hop}": 0.0 for hop in HOPS.values()}
    oldest = records[0]
    horizon = oldest["end"] if oldest["type"] == "span" else oldest["ts"]
    spans = [r for r in records if r["type"] == "span"]
    children: dict[int, list[dict]] = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    requests = [
        s for s in children.get(None, [])
        if s["name"] in ("iscsi.read", "iscsi.write") and s["start"] > horizon
    ]
    totals = dict.fromkeys(HOPS.values(), 0.0)
    stack = list(requests)
    while stack:
        span = stack.pop()
        below = sorted(children.get(span["span"], []), key=lambda c: c["start"])
        stack += below
        covered, cursor = 0.0, span["start"]
        for child in below:
            lo, hi = max(child["start"], cursor), min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        hop = HOPS.get(span["name"].split(".")[0])
        if hop is not None:
            totals[hop] += (span["end"] - span["start"]) - covered
    return {
        f"sim_hop_ms.{hop}": 1e3 * total / len(requests) if requests else 0.0
        for hop, total in totals.items()
    }
