"""HA control plane: replicated intent log + deterministic failover.

PR 3 made every control operation a crash-replayable saga, but the
intent log lived on a *single* :class:`~repro.core.saga.ControlPlaneNode`
— kill it and no attach, detach, heal, or reconfigure can make
progress until it restarts.  This module removes that single point of
truth, following the argument Stratos makes for middle-box clouds
generally: chains keep forwarding while the brain is down, so the
orchestration layer must itself tolerate failures and be able to
rebuild its state from the data plane.

:class:`HaCluster` runs two-plus controller replicas with:

- **Deterministic leader election** (Raft-shaped): term numbers,
  per-replica randomized election timeouts drawn from named
  :class:`~repro.sim.rng.SeededRNG` child streams (no global RNG),
  and an election restriction — a replica only grants its vote to a
  candidate whose replicated log is at least as long as its own, so a
  new leader is guaranteed to hold every quorum-acknowledged entry.
  Heartbeats and votes travel as real packets over real simulated
  :class:`~repro.net.link.Link`\\ s between the replicas, so
  control-plane partitions and link latency genuinely delay failover.

- **Synchronous intent-log shipping**: every saga journal entry is
  replicated to a quorum of reachable replicas *before* the step it
  records executes (the :class:`~repro.core.saga.Saga` journal hook
  calls :meth:`HaCluster.ship_mark` from inside ``mark``).  If the
  quorum is unreachable the entry does not commit: the leader steps
  down and the executor sees :class:`~repro.core.saga.QuorumLost`
  (a :class:`~repro.core.saga.ControllerCrashed`), leaving the saga
  in-flight for the next leader's takeover.  Replication acks are
  modeled synchronously — control ops in this repo are synchronous
  method calls — so the per-follower ack round-trip is charged to the
  ``ha.ship.lag`` histogram rather than the simulation clock, while
  *reachability* (crashes, partitions, downed links) gates acks for
  real and failover detection is genuinely clock-driven.  A ship walks
  one route per leader, built once (the cabling never changes), reads
  the three reachability flags live (the fault injector writes them
  directly; no verdict is cached) and costs one count bump per acking
  replica: a replica acks by count (:class:`ReplicaSagaRecord`), never
  by copying the entry.  A quorum-failed ship is retracted from
  exactly the logs that acked its index.  A saga whose first entry
  finds no quorum is settled as aborted through the engine, like any
  other settlement.

- **Takeover**: on winning an election the new leader adopts every
  in-flight saga in its replicated log — re-stamping it with the new
  term — and hands them to the routine single-node recovery uses
  (:meth:`~repro.core.saga.SagaEngine.resolve`): roll *forward* past
  the pivot step, compensate before it.  Resolution
  reads the saga's live journal (the shared object models the new
  leader inspecting actual switch/NAT state), which can only exceed
  the quorum-acknowledged journal by the unacknowledged tail; undo
  closures tolerate both unexecuted and partially-applied steps, so
  every divergence still lands on one of the two audited outcomes.

- **Rebuild from switch tables**: if the *entire* replicated log is
  lost (:meth:`lose_intent_log`), the leader starts a fresh
  :class:`~repro.core.saga.IntentLog` and runs a
  :class:`~repro.core.reconcile.Reconciler` repair sweep — the switch
  and NAT tables are the ground truth from which transient artifacts
  of the lost in-flight sagas are swept and committed flows' rule
  sets are re-completed.

- **Compaction**: whenever the engine compacts the intent log
  (:meth:`~repro.core.saga.IntentLog.compact`) the replica logs drop
  the same resolved sagas (:meth:`HaCluster.compact`), so crash replay
  and follower catch-up are O(active sagas).

``StorM(..., ha=False)`` builds none of this: the same engine then
answers to one :class:`~repro.core.saga.ControlPlaneNode`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator, Optional

from repro.core.saga import (
    ABORTED,
    ControllerCrashed,
    ControlPlaneNode,
    IntentLog,
    QuorumLost,
    Saga,
)
from repro.net.link import Interface, Link
from repro.net.packet import HEADER_BYTES, Packet
from repro.sim.rng import SeededRNG

if TYPE_CHECKING:
    from repro.core.platform import StorM

#: Replica roles (Raft nomenclature).
FOLLOWER = "follower"
CANDIDATE = "candidate"
LEADER = "leader"

#: Wire size of one control message (header + term/index/kind fields).
_HA_MESSAGE_BYTES = HEADER_BYTES + 24


@dataclass
class HaConfig:
    """Knobs for the replicated control plane."""

    #: number of ControlPlaneNode replicas (>= 1; 1 degenerates to the
    #: single-node PR 3 behavior, just with the shipping plumbing on)
    replicas: int = 3
    #: acks (including the leader's own) required to commit a journal
    #: entry; ``None`` = majority of replicas
    quorum: Optional[int] = None
    #: leader heartbeat period; also the replica state-machine tick
    heartbeat_interval: float = 0.05
    #: base election timeout — a follower that hears no heartbeat for
    #: ``election_timeout + U(0, election_jitter)`` starts an election
    election_timeout: float = 0.15
    election_jitter: float = 0.1
    #: replication-link overrides; ``None`` = the cloud's
    #: ``control_link_latency`` / ``control_link_bandwidth`` params
    link_latency: Optional[float] = None
    link_bandwidth: Optional[float] = None
    #: seed for the per-replica timeout jitter streams
    seed: int = 0


@dataclass
class HaMessage:
    """One control-plane packet payload (heartbeat / vote traffic)."""

    kind: str  # "heartbeat" | "vote-request" | "vote-grant"
    term: int
    sender: str
    log_index: int = 0


class ReplicaSagaRecord:
    """One saga's shipped journal as a replica sees it.

    ``saga`` references the shared live object (replicas replicate the
    *journal*; the object graph stands in for the serialized form), and
    ``acked`` counts the entries of its journal this replica has
    acknowledged: the replica's copy is ``saga.journal[:acked]``.  An
    ack bumps the count; no entry string is copied.
    """

    __slots__ = ("saga", "acked")

    def __init__(self, saga: Saga, acked: int = 0) -> None:
        self.saga = saga
        self.acked = acked


class ReplicaLog:
    """One replica's copy of the shipped intent log."""

    def __init__(self, owner: str) -> None:
        self.owner = owner
        #: index of the last shipped entry this replica acknowledged
        #: (the election restriction compares these)
        self.last_index = 0
        #: saga_id -> record, insertion-ordered
        self.records: dict[int, ReplicaSagaRecord] = {}
        #: resolved sagas dropped by compaction (bookkeeping only)
        self.compacted = 0

    def retract(self, saga_id: int) -> None:
        """Abort-undo of the ack of the last shipped entry, for a
        quorum-failed ship: un-count the entry (and drop the whole
        record, if it was the first) so a failed synchronous ship
        leaves no trace in any replica's log — logs only ever contain
        quorum-acknowledged entries, which is what the election
        restriction compares."""
        record = self.records.get(saga_id)
        if record is not None:
            record.acked -= 1
            if not record.acked:
                del self.records[saga_id]
        self.last_index -= 1

    def active(self) -> list[ReplicaSagaRecord]:
        """Records of sagas not yet resolved (commit/abort unshipped)."""
        return [r for r in self.records.values() if r.saga.incomplete]

    def resolved_count(self) -> int:
        return sum(1 for r in self.records.values() if not r.saga.incomplete)

    def compact(self, settled: list[Saga]) -> None:
        """Snapshot the settled sagas' records out of the log (the ones
        present: a snapshot or a failed ship may have dropped some
        already); O(active) remains."""
        records = self.records
        for saga in settled:
            record = records.get(saga.saga_id)
            if record is not None and record.saga is saga:
                del records[saga.saga_id]
                self.compacted += 1

    def install_snapshot(self, source: "ReplicaLog") -> int:
        """Catch up from ``source`` in O(active sagas): replace our
        records with copies of the source's *active* records and jump
        to its index.  Resolved history is not re-shipped (it is
        exactly what compaction drops)."""
        skipped = source.last_index - self.last_index
        self.compacted += self.resolved_count()
        self.records = {
            record.saga.saga_id: ReplicaSagaRecord(record.saga, record.acked)
            for record in source.active()
        }
        self.last_index = source.last_index
        return skipped

    def wipe(self) -> None:
        """Total log loss (fault injection): drop every record."""
        self.records.clear()


class HaCluster:
    """Two-plus controller replicas with leader election, synchronous
    quorum log shipping, saga takeover, and rebuild-from-switch-tables.

    Replica 0 is seated as the leader of term 1 at construction, so
    control operations issued synchronously at t=0 (before any sim
    events run) work exactly as on the single-node platform; elections
    only happen on failover.  Call :meth:`start` to spawn the per-node
    heartbeat/election loops (needed for any failover scenario), and
    drive the simulation with ``sim.run(until=<horizon>)`` — the loops
    are immortal, so a bare ``run()`` would never drain.
    """

    def __init__(self, storm: "StorM", config: Optional[HaConfig] = None) -> None:
        self.storm = storm
        self.sim = storm.sim
        self.config = config or HaConfig()
        if self.config.replicas < 1:
            raise ValueError("ha needs at least one control-plane replica")
        majority = self.config.replicas // 2 + 1
        self.quorum = self.config.quorum if self.config.quorum is not None else majority
        if not 1 <= self.quorum <= self.config.replicas:
            raise ValueError(
                f"quorum {self.quorum} impossible with {self.config.replicas} replicas"
            )
        self.rng = SeededRNG(self.config.seed, name="ha")
        self.stopped = False
        self.elections = 0
        self.term = 1
        self._log_lost = False
        self._global_index = 0

        #: the replicas, in index order (cp-0 boots as leader)
        self.nodes: list[ControlPlaneNode] = []
        self.logs: dict[str, ReplicaLog] = {}
        #: per-replica state machines, keyed by node name
        self._roles: dict[str, str] = {}
        self._terms: dict[str, int] = {}
        self._voted: dict[str, tuple[int, str]] = {}
        self._grants: dict[str, int] = {}
        self._last_heartbeat: dict[str, float] = {}
        self._timeout: dict[str, float] = {}
        self._timeout_rng: dict[str, SeededRNG] = {}
        self._by_name: dict[str, ControlPlaneNode] = {}
        #: (owner name, peer name) -> owner's NIC towards the peer
        self._ifaces: dict[tuple[str, str], Interface] = {}
        self._links: dict[tuple[str, str], Link] = {}

        for index in range(self.config.replicas):
            node = ControlPlaneNode(self.sim, name=f"storm-cp{index}")
            node.on_message = self._make_message_handler(node)
            node.on_restart = self._make_rejoin_handler(node)
            self.nodes.append(node)
            self._by_name[node.name] = node
            self.logs[node.name] = ReplicaLog(node.name)
            self._roles[node.name] = FOLLOWER
            self._terms[node.name] = 1
            self._grants[node.name] = 0
            self._last_heartbeat[node.name] = self.sim.now
            rng = self.rng.child(f"timeout:{node.name}")
            self._timeout_rng[node.name] = rng
            self._timeout[node.name] = self._draw_timeout(node.name)
        self._cable_replicas()
        #: leader name -> ``(peer, peer's log, leader's NIC towards the
        #: peer)`` for every other replica.  The cabling and the logs
        #: never change after this point, so the routes are built once;
        #: what can change (crashes, unplugged NICs, downed links) is
        #: read live on every use — see :meth:`_reachable`.
        self._routes: dict[str, list[tuple[ControlPlaneNode, ReplicaLog, Interface]]] = {
            node.name: [
                (peer, self.logs[peer.name], self._ifaces[(node.name, peer.name)])
                for peer in self.nodes
                if peer is not node
            ]
            for node in self.nodes
        }

        self.leader_name: Optional[str] = self.nodes[0].name
        self._roles[self.leader_name] = LEADER
        self._update_gauges()

    # -- plumbing -----------------------------------------------------------

    def _cable_replicas(self) -> None:
        """Full-mesh replication links: one NIC per (replica, peer)
        pair, self-addressed MACs outside the cloud allocator so the
        data-plane address sequence is untouched."""
        for i, a in enumerate(self.nodes):
            for j in range(i + 1, len(self.nodes)):
                b = self.nodes[j]
                iface_a = Interface(f"{a.name}.ha{j}", mac=f"02:ha:{i:02x}:{j:02x}:aa")
                iface_b = Interface(f"{b.name}.ha{i}", mac=f"02:ha:{i:02x}:{j:02x}:bb")
                a.add_interface(iface_a)
                b.add_interface(iface_b)
                link = self.storm.cloud.cable_control(
                    iface_a,
                    iface_b,
                    bandwidth=self.config.link_bandwidth,
                    latency=self.config.link_latency,
                )
                self._ifaces[(a.name, b.name)] = iface_a
                self._ifaces[(b.name, a.name)] = iface_b
                self._links[(a.name, b.name)] = link

    def _draw_timeout(self, name: str) -> float:
        rng = self._timeout_rng[name]
        return self.config.election_timeout + rng.uniform(
            0.0, self.config.election_jitter
        )

    def node(self, name: str) -> ControlPlaneNode:
        node = self._by_name.get(name)
        if node is None:
            raise KeyError(f"no control-plane replica named {name!r}")
        return node

    @property
    def leader_node(self) -> Optional[ControlPlaneNode]:
        return None if self.leader_name is None else self._by_name[self.leader_name]

    def link_between(self, a_name: str, b_name: str) -> Link:
        """The replication link between two replicas (for fault
        injection: flap it, down it, make it lossy)."""
        link = self._links.get((a_name, b_name)) or self._links.get((b_name, a_name))
        if link is None:
            raise KeyError(f"no replication link {a_name}<->{b_name}")
        return link

    def replication_links(self) -> Iterator[Link]:
        yield from self._links.values()

    def role(self, name: str) -> str:
        return self._roles[name]

    @staticmethod
    def _reachable(peer: ControlPlaneNode, iface: Interface) -> bool:
        """Can a message from a live replica reach ``peer`` through its
        NIC ``iface`` (one entry of :attr:`_routes`) right now?  A
        crashed peer, an unplugged NIC and a downed link all say no —
        the same conditions that would drop the packet on the wire.
        The fault injector writes these flags directly, so they are
        read on every call and no verdict is ever cached;
        :meth:`ship_mark` inlines exactly these three reads."""
        if peer.crashed:
            return False
        link = iface.link
        if link is None:
            return False
        faults = link.faults
        return faults is None or faults.up

    # -- observability ------------------------------------------------------

    def _update_gauges(self) -> None:
        obs = self.storm.obs
        if obs is None:
            return
        obs.metrics.gauge("ha.term").set(float(self.term))
        obs.metrics.gauge("ha.quorum").set(float(self.quorum))
        for node in self.nodes:
            leading = 1.0 if node.name == self.leader_name else 0.0
            obs.metrics.gauge("ha.leader", scope=node.name).set(leading)

    def _demote_express(self, reason: str) -> None:
        express = self.sim.express
        if express is not None:
            express.demote_all(reason)

    # -- messaging ----------------------------------------------------------

    def _make_message_handler(self, node: ControlPlaneNode) -> Any:
        def handler(payload: Any) -> None:
            if isinstance(payload, HaMessage):
                self._on_message(node, payload)

        return handler

    def _make_rejoin_handler(self, node: ControlPlaneNode) -> Any:
        def rejoin() -> None:
            self._on_rejoin(node)

        return rejoin

    def _send(self, src: ControlPlaneNode, dst_name: str, message: HaMessage) -> None:
        iface = self._ifaces.get((src.name, dst_name))
        if iface is None:
            return
        peer = self._ifaces[(dst_name, src.name)]
        packet = Packet(
            src_mac=iface.mac,
            dst_mac=peer.mac,
            src_ip=src.name,
            dst_ip=dst_name,
            src_port=0,
            dst_port=0,
            protocol="ha",
            size=_HA_MESSAGE_BYTES,
            payload=message,
        )
        iface.send(packet)  # drops silently if the NIC is unplugged

    def _broadcast(self, src: ControlPlaneNode, message: HaMessage) -> None:
        for peer in self.nodes:
            if peer is not src:
                self._send(src, peer.name, message)

    # -- the per-replica loop ----------------------------------------------

    def start(self, duration: Optional[float] = None) -> None:
        """Spawn one heartbeat/election loop per replica.  The loops
        run until :meth:`stop` (or ``duration`` elapses); while they
        live, drive the sim with ``run(until=...)``."""
        for node in self.nodes:
            self.sim.process(self._node_loop(node, duration))

    def stop(self) -> None:
        self.stopped = True

    def _node_loop(self, node: ControlPlaneNode, duration: Optional[float]) -> Any:
        deadline = None if duration is None else self.sim.now + duration
        name = node.name
        while not self.stopped and (deadline is None or self.sim.now < deadline):
            delay = self.config.heartbeat_interval
            if self._roles[name] != LEADER and not node.crashed:
                # wake at the exact timeout expiry, not the next tick:
                # the seeded jitter then genuinely staggers candidates
                # instead of being quantized away (split-vote avoidance)
                expiry = self._last_heartbeat[name] + self._timeout[name]
                remaining = expiry - self.sim.now
                if remaining < delay:
                    delay = max(remaining, self.config.heartbeat_interval / 8.0)
            yield self.sim.timeout(delay)
            if self.stopped or node.crashed:
                continue
            if self._roles[name] == LEADER:
                self._broadcast(
                    node,
                    HaMessage("heartbeat", self._terms[name], name,
                              self.logs[name].last_index),
                )
                self._catch_up_followers(node)
            else:
                elapsed = self.sim.now - self._last_heartbeat[name]
                if elapsed >= self._timeout[name]:
                    self._start_election(node)

    # -- election -----------------------------------------------------------

    def _start_election(self, node: ControlPlaneNode) -> None:
        name = node.name
        self._terms[name] += 1
        term = self._terms[name]
        self._roles[name] = CANDIDATE
        self._voted[name] = (term, name)
        self._grants[name] = 1  # own vote
        self._last_heartbeat[name] = self.sim.now
        self._timeout[name] = self._draw_timeout(name)
        self.elections += 1
        obs = self.storm.obs
        if obs is not None:
            obs.metrics.counter("ha.elections").inc()
            obs.event("ha.elect", target=name, term=term,
                      index=self.logs[name].last_index)
        if self._grants[name] >= self.quorum:  # single-replica cluster
            self._become_leader(node)
            return
        self._broadcast(
            node, HaMessage("vote-request", term, name, self.logs[name].last_index)
        )

    def _on_message(self, node: ControlPlaneNode, message: HaMessage) -> None:
        if self.stopped or node.crashed:
            return
        name = node.name
        if message.term > self._terms[name]:
            # a higher term always demotes: stale leaders and losing
            # candidates fall back to follower
            self._terms[name] = message.term
            if self._roles[name] == LEADER and self.leader_name == name:
                self._step_down(node, reason="higher-term")
            else:
                self._roles[name] = FOLLOWER
        if message.kind == "heartbeat":
            if message.term < self._terms[name]:
                return  # stale leader asserting a dead term
            self._roles[name] = FOLLOWER
            self._last_heartbeat[name] = self.sim.now
        elif message.kind == "vote-request":
            if message.term < self._terms[name]:
                return
            voted = self._voted.get(name)
            if voted is not None and voted[0] == message.term and voted[1] != message.sender:
                return  # one vote per term
            if message.log_index < self.logs[name].last_index:
                return  # election restriction: candidate's log is behind
            self._voted[name] = (message.term, message.sender)
            self._last_heartbeat[name] = self.sim.now
            self._send(
                node,
                message.sender,
                HaMessage("vote-grant", message.term, name, self.logs[name].last_index),
            )
        elif message.kind == "vote-grant":
            if self._roles[name] != CANDIDATE or message.term != self._terms[name]:
                return
            self._grants[name] += 1
            if self._grants[name] >= self.quorum:
                self._become_leader(node)

    def _become_leader(self, node: ControlPlaneNode) -> None:
        name = node.name
        self._roles[name] = LEADER
        previous = self.leader_name
        self.term = self._terms[name]
        self.leader_name = name
        self.storm.controller = node
        obs = self.storm.obs
        if obs is not None:
            obs.event("ha.leader", target=name, term=self.term, previous=previous or "")
        self._update_gauges()
        if previous != name:
            # the control plane moved: any compiled express path built
            # under the old leadership must re-validate in packet mode
            self._demote_express("ha-failover")
        self._broadcast(
            node, HaMessage("heartbeat", self.term, name, self.logs[name].last_index)
        )
        self._catch_up_followers(node)
        self._takeover(node)

    def _step_down(self, node: ControlPlaneNode, reason: str) -> None:
        name = node.name
        self._roles[name] = FOLLOWER
        self._last_heartbeat[name] = self.sim.now
        if self.leader_name == name:
            self.leader_name = None
            obs = self.storm.obs
            if obs is not None:
                obs.event("ha.quorum-lost", target=name, reason=reason)
            self._update_gauges()

    # -- log shipping -------------------------------------------------------

    def ship_begin(self, saga: Saga) -> None:
        """Replicate a saga's creation before any step runs.  On
        quorum failure the (side-effect-free) saga is settled as
        aborted, locally, through the engine like any other settlement,
        so it never masks reconciler audits as 'in flight' and the next
        compaction drops it."""
        engine = self.storm.engine
        leader = self.leader_node
        if leader is None or leader.crashed:
            engine.settle(saga, ABORTED)
            raise QuorumLost(saga.op, "begin")
        saga.term = self.term
        saga.origin = leader.name
        saga.shipper = self.ship_mark
        try:
            self.ship_mark(saga, "begin")
        except QuorumLost:
            saga.shipper = None  # the abort record stays local
            engine.settle(saga, ABORTED)
            raise

    def ship_mark(self, saga: Saga, entry: str) -> None:
        """Synchronously replicate one journal entry to a quorum.

        Raises :class:`QuorumLost` — and steps the leader down — when
        fewer than ``quorum`` replicas (including the leader) are
        reachable, or when the shipping saga no longer belongs to the
        current leadership (a deposed leader's stragglers must not
        commit through the new leader's log).

        The hot path of every control operation (each saga journals
        about a dozen entries): one pass over the leader's route, the
        reachability flags read live, one count bump per acking
        replica (the entry itself is already in ``saga.journal``)."""
        name = self.leader_name
        if name is None or saga.origin != name or saga.term != self.term:
            raise QuorumLost(saga.op, entry)
        leader = self._by_name[name]
        if leader.crashed:
            raise QuorumLost(saga.op, entry)
        index = self._global_index = self._global_index + 1
        saga_id = saga.saga_id
        # the leader's own ack
        leader_log = self.logs[name]
        record = leader_log.records.get(saga_id)
        if record is None:
            record = leader_log.records[saga_id] = ReplicaSagaRecord(saga)
        record.acked += 1
        leader_log.last_index = index
        acks = 1
        obs = self.storm.obs
        entry_rtt = 0.0
        for peer, peer_log, iface in self._routes[name]:
            # _reachable, inlined: the flags are read live on every ship
            link = iface.link
            if peer.crashed or link is None:
                continue
            faults = link.faults
            if faults is not None and not faults.up:
                continue
            if peer_log.last_index < index - 1:
                self._catch_up(leader, peer)  # snapshot includes this entry
            else:
                record = peer_log.records.get(saga_id)
                if record is None:
                    record = peer_log.records[saga_id] = ReplicaSagaRecord(saga)
                record.acked += 1
                peer_log.last_index = index
            acks += 1
            rtt = 2.0 * link.latency
            if rtt > entry_rtt:
                entry_rtt = rtt
            if obs is not None:
                obs.metrics.histogram("ha.ship.lag").observe(rtt)
        # the synchronous ship waits for the slowest acked peer, so the
        # saga is charged that peer's round trip for this entry
        saga.ship_rtt += entry_rtt
        if obs is not None:
            obs.metrics.counter("ha.ship.entries").inc()
        if acks < self.quorum:
            # the synchronous ship aborts: every log that acked this
            # index (by count or by snapshot) retracts it, so replica
            # logs only ever hold quorum-acknowledged entries
            for log in self.logs.values():
                if log.last_index == index:
                    log.retract(saga_id)
            self._global_index -= 1
            self._step_down(leader, reason="quorum-lost")
            raise QuorumLost(saga.op, entry)

    def _catch_up(self, leader: ControlPlaneNode, peer: ControlPlaneNode) -> None:
        skipped = self.logs[peer.name].install_snapshot(self.logs[leader.name])
        obs = self.storm.obs
        if obs is not None:
            obs.event("ha.catch-up", target=peer.name, skipped=skipped)
            obs.metrics.counter("ha.ship.catchups").inc()

    def _catch_up_followers(self, leader: ControlPlaneNode) -> None:
        leader_log = self.logs[leader.name]
        for peer, peer_log, iface in self._routes[leader.name]:
            if self._reachable(peer, iface) and peer_log.last_index < leader_log.last_index:
                self._catch_up(leader, peer)

    def compact(self, settled: list[Saga]) -> None:
        """Drop the sagas settled since the last compaction from every
        replica log.  Called by :meth:`~repro.core.saga.IntentLog.compact`,
        so the replicas compact exactly when the logical log does.
        Local-only state surgery — always safe, any time."""
        for log in self.logs.values():
            log.compact(settled)

    # -- takeover -----------------------------------------------------------

    def has_authority(self, saga: Saga) -> bool:
        """Does the cluster still stand behind this saga's executor?
        The engine checks this at every step boundary
        (:attr:`~repro.core.saga.SagaEngine.authority`); a leadership
        change, leader crash, or quorum loss revokes authority and the
        executor raises :class:`~repro.core.saga.ControllerCrashed`."""
        name = self.leader_name
        return (
            name is not None
            and saga.origin == name
            and saga.term == self.term
            and not self._by_name[name].crashed
        )

    def _takeover(self, node: ControlPlaneNode) -> None:
        """Adopt every in-flight saga in the new leader's replicated
        log and resolve them through the engine — the single-node
        recovery routine, quorum-shipped."""
        if self._log_lost:
            self.rebuild()
        log = self.logs[node.name]
        pending = [
            log.records[saga_id].saga
            for saga_id in sorted(log.records)
            if log.records[saga_id].saga.incomplete
        ]
        obs = self.storm.obs
        span = None
        if obs is not None:
            span = obs.span("saga.takeover", node=node.name, term=self.term,
                            pending=len(pending))
        for saga in pending:
            # adopt: the new leader commits the old leader's entries
            # under its own term (Raft's rule for inherited entries)
            saga.term = self.term
            saga.origin = node.name
        # a QuorumLost mid-way (leadership lost again) stops the
        # resolution; the next leader finishes
        summary = self.storm.engine.resolve(pending)
        if span is not None:
            span.finish("ok")
        if obs is not None:
            obs.event("ha.takeover", target=node.name, term=self.term, **summary)

    # -- total log loss ------------------------------------------------------

    def lose_intent_log(self) -> None:
        """Fault: every replica's log is gone (correlated storage loss
        of the controller fleet).  If a healthy leader is seated it
        rebuilds immediately; otherwise the next elected leader does."""
        for node in self.nodes:
            self.logs[node.name].wipe()
        self._log_lost = True
        leader = self.leader_node
        if leader is not None and not leader.crashed:
            self.rebuild()

    def rebuild(self) -> int:
        """Reconstruct control-plane intent from the data plane: start
        a fresh intent log and run a reconciler repair sweep with the
        switch/NAT tables as ground truth.  Transient artifacts of the
        lost in-flight sagas (wildcard rules, attach NAT) are swept;
        committed flows keep — or get back — their full rule sets."""
        from repro.core.reconcile import Reconciler

        fresh = IntentLog()
        fresh.shipper = self
        self.storm.engine.log = fresh
        try:
            drifts = Reconciler(self.storm).repair()
        except ControllerCrashed:
            return 0  # authority lost mid-sweep: the next leader rebuilds
        self._log_lost = False
        obs = self.storm.obs
        if obs is not None:
            obs.event("ha.log-rebuild", target=self.leader_name or "", drifts=len(drifts))
            obs.metrics.counter("ha.rebuilds").inc()
        return len(drifts)

    # -- restart ------------------------------------------------------------

    def _on_rejoin(self, node: ControlPlaneNode) -> None:
        """A restarted replica rejoins as a follower of the current
        term; the leader's next heartbeat tick (or the next shipped
        entry) snapshots it back up to date."""
        name = node.name
        self._roles[name] = FOLLOWER
        self._terms[name] = max(self._terms[name], self.term)
        self._last_heartbeat[name] = self.sim.now
        self._timeout[name] = self._draw_timeout(name)
        obs = self.storm.obs
        if obs is not None:
            obs.event("ha.rejoin", target=name, term=self._terms[name])
