"""Case study 3: tenant-defined replica dispatch (paper §V-B3).

For writes, the middle-box forwards to the primary volume *and* copies
the same data, in the same order, to every attached replica volume.
For reads, it stripes across all available copies (primary included),
aggregating their throughput.  A replica that fails (connection reset,
I/O error) is ejected from rotation; its in-flight reads are reissued
against the survivors — the behaviour behind the paper's Figure 13.

Every write is also journaled (seq, offset, length, data) so an
ejected replica can *rejoin*: re-login its iSCSI session, replay the
journal entries past its last synced sequence number, and re-enter
rotation byte-identical to the primary.  Replayed writes overlap ones
that were issued-but-unacked at ejection time; both are idempotent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.middlebox import StorageService, payload_bytes
from repro.iscsi.initiator import IscsiSession, SessionDead
from repro.iscsi.pdu import DataInPdu, ScsiCommandPdu, ScsiResponsePdu


@dataclass
class ReplicaState:
    name: str
    session: IscsiSession
    alive: bool = True
    reads_served: int = 0
    writes_applied: int = 0
    #: highest journal seq known durable on this replica (contiguous)
    synced_seq: int = 0
    last_issued_seq: int = 0
    rejoins: int = 0
    rejoining: bool = False
    outstanding: set = field(default_factory=set)


class ReplicationService(StorageService):
    """Ordered write fan-out + striped reads + failure ejection."""

    name = "replication"
    cpu_per_byte = 0.5e-9

    def __init__(self):
        super().__init__()
        self.replicas: list[ReplicaState] = []
        self._rotation = 0
        self.primary_reads = 0
        self.primary_writes = 0
        self.failovers = 0
        #: ordered write journal: (seq, offset, length, data)
        self.write_journal: list[tuple] = []
        self._write_seq = 0
        self.resyncs = 0
        self.ejections = 0
        #: optional :class:`repro.obs.EventLog` for recovery timelines
        self.event_log = None

    def _log(self, kind: str, target: str, **detail) -> None:
        if self.event_log is not None:
            self.event_log.record(self.middlebox.sim.now, kind, target, **detail)
        if self.obs is not None:
            scope = self.middlebox.tenant.name if self.middlebox else ""
            self.obs.metrics.counter(f"svc.{kind}", scope).inc()
            self.obs.event(kind, target=target, **detail)

    # -- configuration -------------------------------------------------------

    def add_replica(self, session: IscsiSession, name: str = "") -> ReplicaState:
        state = ReplicaState(name or f"replica-{len(self.replicas) + 1}", session)
        self.replicas.append(state)
        return state

    def alive_replicas(self) -> list[ReplicaState]:
        return [r for r in self.replicas if r.alive]

    @property
    def replication_factor(self) -> int:
        """Primary plus currently-alive replicas."""
        return 1 + len(self.alive_replicas())

    # -- data path --------------------------------------------------------------

    def process(self, pdu, direction: str, ctx, charged: bool = False):
        cost = 0.0 if charged else self.cpu_per_byte * payload_bytes(pdu)
        if cost and self.middlebox is not None:
            yield from self.middlebox.cpu.consume(cost)
        self.pdus_processed += 1
        if direction == "downstream" or not isinstance(pdu, ScsiCommandPdu):
            ctx.forward(pdu)
            return
        if pdu.op == "write":
            self._fan_out_write(pdu)
            self.primary_writes += 1
            ctx.forward(pdu)
            return
        # read: stripe across primary + alive replicas
        sources = self.alive_replicas()
        choice = self._rotation % (1 + len(sources))
        self._rotation += 1
        if choice == 0 or not sources:
            self.primary_reads += 1
            ctx.forward(pdu)
            return
        replica = sources[choice - 1]
        ctx.consumed = True  # we own this PDU's fate now
        self.middlebox.sim.process(self._read_from_replica(replica, pdu, ctx))

    # -- writes ---------------------------------------------------------------------

    def _fan_out_write(self, pdu: ScsiCommandPdu) -> None:
        """Issue the same write to every replica, in arrival order.

        Writes are issued (not awaited) inline so ordering across all
        volumes matches the primary stream; completion is watched in the
        background, and a failing replica is ejected.
        """
        self._write_seq += 1
        seq = self._write_seq
        self.write_journal.append((seq, pdu.offset, pdu.length, pdu.data))
        for replica in self.alive_replicas():
            try:
                event = replica.session.write(pdu.offset, pdu.length, pdu.data)
            except SessionDead:
                self._eject(replica)
                continue
            replica.writes_applied += 1
            replica.last_issued_seq = seq
            replica.outstanding.add(seq)
            self.middlebox.sim.process(self._watch_write(replica, event, seq))

    def _watch_write(self, replica: ReplicaState, event, seq: int):
        try:
            yield event
        except SessionDead:
            self._eject(replica)
            return
        replica.outstanding.discard(seq)
        if not replica.alive:
            return
        # synced = the contiguous prefix of acknowledged writes
        replica.synced_seq = max(
            replica.synced_seq,
            min(replica.outstanding) - 1
            if replica.outstanding
            else replica.last_issued_seq,
        )

    # -- reads ------------------------------------------------------------------------

    def _read_from_replica(self, replica: ReplicaState, pdu: ScsiCommandPdu, ctx):
        try:
            data = yield replica.session.read(pdu.offset, pdu.length)
        except SessionDead:
            self._eject(replica)
            yield from self._retry_read(pdu, ctx)
            return
        replica.reads_served += 1
        ctx.reply(DataInPdu(pdu.task_tag, pdu.length, data, offset=pdu.offset))
        ctx.reply(ScsiResponsePdu(pdu.task_tag, "good"))

    def _retry_read(self, pdu: ScsiCommandPdu, ctx):
        """Serve an interrupted read from one of the other copies."""
        self.failovers += 1
        for replica in self.alive_replicas():
            try:
                data = yield replica.session.read(pdu.offset, pdu.length)
            except SessionDead:
                self._eject(replica)
                continue
            replica.reads_served += 1
            ctx.reply(DataInPdu(pdu.task_tag, pdu.length, data, offset=pdu.offset))
            ctx.reply(ScsiResponsePdu(pdu.task_tag, "good"))
            return
        # all replicas gone: fall back to the primary path
        self.primary_reads += 1
        ctx.forward(pdu)

    def _eject(self, replica: ReplicaState) -> None:
        if not replica.alive:
            return
        replica.alive = False
        # issued-but-unacked writes are no longer trusted: the rejoin
        # replay restarts from the contiguous synced prefix
        replica.outstanding.clear()
        self.ejections += 1
        self._log("replica.eject", replica.name, synced_seq=replica.synced_seq)

    # -- rejoin & resync ---------------------------------------------------------

    def rejoin(self, replica: ReplicaState):
        """Process: bring an ejected replica back into rotation.

        Re-logins the iSCSI session if it died, replays every journal
        entry past ``synced_seq`` (catch-up resync), and only then
        marks the replica alive — there is no yield between the final
        catch-up check and re-entry, so a rejoined replica is always
        byte-identical to the journal at the moment it rejoins.
        Returns True on success.
        """
        if replica.alive or replica.rejoining:
            return replica.alive
        replica.rejoining = True
        try:
            session = replica.session
            if not session.alive:
                ok = yield from session.relogin()
                if not ok:
                    return False
            self.resyncs += 1
            self._log(
                "replica.resync",
                replica.name,
                behind=self._write_seq - replica.synced_seq,
            )
            while replica.synced_seq < self._write_seq:
                for seq, offset, length, data in list(self.write_journal):
                    if seq <= replica.synced_seq:
                        continue
                    try:
                        yield session.write(offset, length, data)
                    except SessionDead:
                        return False
                    replica.writes_applied += 1
                    replica.synced_seq = seq
            replica.alive = True
            replica.rejoins += 1
            self._log("replica.rejoin", replica.name, synced_seq=replica.synced_seq)
            return True
        finally:
            replica.rejoining = False

    def monitor(self, interval: float = 0.5):
        """Process: periodically rejoin any ejected replica."""
        sim = self.middlebox.sim
        while True:
            yield sim.timeout(interval)
            for replica in self.replicas:
                if not replica.alive and not replica.rejoining:
                    sim.process(self.rejoin(replica))

    def compact_journal(self) -> int:
        """Drop journal entries every replica (alive or not) has synced;
        an ejected replica's ``synced_seq`` holds the floor so its
        catch-up data is retained.  Returns how many entries dropped."""
        floor = min(
            (r.synced_seq for r in self.replicas), default=self._write_seq
        )
        before = len(self.write_journal)
        self.write_journal = [e for e in self.write_journal if e[0] > floor]
        return before - len(self.write_journal)
