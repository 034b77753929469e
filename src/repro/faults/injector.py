"""The fault injector: seeded, schedulable, kernel-composable.

Design constraints, in order:

1. **Zero overhead when off.**  Components carry a ``None`` hook
   (``Link.faults``, ``Disk.fault_hook``) checked once per operation;
   nothing else changes on the fast path.
2. **Determinism.**  Every per-packet / per-I/O decision comes from a
   child RNG stream named after the fault site (link endpoints, disk
   name), so decisions do not depend on injector call order, and the
   same seed reproduces the same fault schedule bit-for-bit.
3. **Crash semantics.**  A crashed node keeps its Python objects (the
   disk contents, bound listeners, NAT/conntrack state model the
   machine's persistent state across a service restart) but loses its
   connections and its links: sockets are reset (RST on the wire for a
   fail-fast crash, silently for a power-loss crash) and interfaces
   are unplugged until :meth:`FaultInjector.restart`.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Optional

from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.tcp import ConnectionReset
from repro.sim import Simulator
from repro.sim.rng import SeededRNG


class LinkFaults:
    """Per-link fault state consulted by ``Link`` once per packet, at its
    serialization start.

    :meth:`judge` returns a non-negative extra delay to deliver the
    packet, or a negative value to drop it.  Corruption is modeled as
    a checksum-failure drop (counted separately).
    """

    __slots__ = (
        "rng",
        "name",
        "up",
        "drop_prob",
        "corrupt_prob",
        "delay_prob",
        "delay_range",
        "match",
        "drop_next_count",
        "dropped",
        "corrupted",
        "delayed",
        "passed",
    )

    def __init__(self, rng: SeededRNG, name: str):
        self.rng = rng
        self.name = name
        self.up = True
        self.drop_prob = 0.0
        self.corrupt_prob = 0.0
        self.delay_prob = 0.0
        self.delay_range = (0.0005, 0.005)
        #: optional packet predicate restricting probabilistic faults
        #: to a flow (e.g. ``lambda p: p.src_port == 49160``)
        self.match: Optional[Callable[[Packet], bool]] = None
        self.drop_next_count = 0
        self.dropped = 0
        self.corrupted = 0
        self.delayed = 0
        self.passed = 0

    def inert_for(self, packet: Packet) -> bool:
        """True if :meth:`judge` passes every packet of this one's flow
        untouched whatever the RNG draws (express may skip the call)."""
        if not self.up or self.drop_next_count > 0:
            return False
        if self.match is not None and not self.match(packet):
            return True
        return not (self.drop_prob or self.corrupt_prob or self.delay_prob)

    def judge(self, packet: Packet) -> float:
        if not self.up:
            self.dropped += 1
            return -1.0
        if self.match is not None and not self.match(packet):
            self.passed += 1
            return 0.0
        if self.drop_next_count > 0:
            self.drop_next_count -= 1
            self.dropped += 1
            return -1.0
        if self.drop_prob and self.rng.random() < self.drop_prob:
            self.dropped += 1
            return -1.0
        if self.corrupt_prob and self.rng.random() < self.corrupt_prob:
            self.corrupted += 1
            return -1.0  # bad checksum: the receiver discards it
        if self.delay_prob and self.rng.random() < self.delay_prob:
            self.delayed += 1
            return self.rng.uniform(*self.delay_range)
        self.passed += 1
        return 0.0


class RelayAdversary:
    """A compromised middle-box's egress hook (``relay.adversary``).

    Armed by the injector with bounded counters, consumed in PDU
    arrival order — the same run replays the same hostile schedule.
    Every *executed* action records ground truth: a ``tamper.*`` entry
    in the injector timeline plus a row in
    :attr:`FaultInjector.adversarial` whose ``kind`` matches the
    :class:`~repro.integrity.layer.Detection` kind the endpoint must
    raise — so tests assert detected-set == injected-set exactly.
    """

    def __init__(self, injector: "FaultInjector", middlebox: Any, rng: SeededRNG):
        self.injector = injector
        self.middlebox = middlebox
        self.rng = rng
        self.tamper_next = 0
        self.replay_next = 0
        self.reorder_next = 0
        #: whole-PDU holds awaiting release on the next egress
        self._held: list[tuple] = []
        self.tampered = 0
        self.replayed = 0
        self.reordered = 0

    # -- plumbing ------------------------------------------------------

    def _truth(self, kind: str, event: str, pdu: Any, **detail: Any) -> None:
        tag = getattr(pdu, "tag", None)
        flow = getattr(tag, "flow", "") or self.middlebox.name
        seq = getattr(tag, "seq", -1)
        self.injector.adversarial.append(
            {"kind": kind, "flow": flow, "seq": seq, "mb": self.middlebox.name}
        )
        self.injector._record(
            f"tamper.{event}", flow, mb=self.middlebox.name, seq=seq, **detail
        )

    @staticmethod
    def _send_quietly(socket: Any, pdu: Any) -> None:
        try:
            socket.send(pdu, pdu.wire_size)
        except ConnectionReset:
            pass

    def _after_current(self, action: Callable[[], None]) -> None:
        """Defer until after the relay's own send of the current PDU:
        a 0-delay event fires once the current callback completes, so
        injected PDUs land *behind* the triggering one in TCP order."""
        self.injector.sim.timeout(0).callbacks.append(lambda _event: action())

    # -- the egress hook (called by PassiveRelay / ActiveRelay) --------

    def on_egress(self, pdu: Any, direction: str, socket: Any, streamed: bool) -> Any:
        """Returns the PDU to send (possibly mutated), or None to hold
        it (whole-PDU active-relay path only)."""
        if self._held and self.reorder_next == 0:
            held, self._held = self._held, []

            def release() -> None:
                for held_pdu, held_socket in held:
                    self._send_quietly(held_socket, held_pdu)

            self._after_current(release)
        if self.reorder_next > 0 and not streamed and socket is not None:
            self.reorder_next -= 1
            self.reordered += 1
            self._held.append((pdu, socket))
            self._truth("reorder", "reorder", pdu)
            return None
        if self.tamper_next > 0 and getattr(pdu, "data", None):
            self.tamper_next -= 1
            self.tampered += 1
            data = pdu.data
            index = self.rng.randint(0, len(data) - 1)
            pdu.data = data[:index] + bytes([data[index] ^ 0xFF]) + data[index + 1 :]
            self._truth("tamper", "payload", pdu, index=index)
        if (
            self.replay_next > 0
            and socket is not None
            and getattr(pdu, "tag", None) is not None
        ):
            self.replay_next -= 1
            self.replayed += 1
            dup = copy.copy(pdu)
            self._truth("replay", "replay", pdu)
            self._after_current(lambda: self._send_quietly(socket, dup))
        return pdu



class FaultInjector:
    """Injects seeded/scheduled faults into a running simulation.

    Every injected fault (and every adversarial action's ground truth)
    is a ``fault.*`` / ``tamper.*`` event on ``obs``.  The injector is
    not part of the plant, so :func:`repro.obs.instrument` cannot reach
    it: pass the bus here.  None records nothing.
    """

    def __init__(self, sim: Simulator, seed: int = 0, obs: Any = None):
        self.sim = sim
        self.rng = SeededRNG(seed, name="faults")
        self.obs = obs
        #: ground truth of executed adversarial actions, in order:
        #: {"kind", "flow", "seq", "mb"} rows matching Detection kinds
        self.adversarial: list[dict] = []

    def _record(self, kind: str, target: str, **detail: Any) -> None:
        if self.obs is not None:
            self.obs.event(kind, target=target, **detail)

    def _demote_express(self, reason: str) -> None:
        """Any injected fault may touch a promoted flow's links or
        nodes: mandatory fallback to packet mode (lossless — the next
        segments simply take the packet path, where the fault applies)."""
        express = self.sim.express
        if express is not None:
            express.demote_all(reason)

    # -- scheduling -----------------------------------------------------

    def at(self, when: float, action: Callable, *args: Any) -> None:
        """Run ``action(*args)`` at absolute simulated time ``when``."""
        delay = when - self.sim.now
        if delay < 0:
            raise ValueError(f"cannot schedule in the past ({when} < {self.sim.now})")
        self.sim.timeout(delay).callbacks.append(lambda _event: action(*args))

    # -- packet faults ---------------------------------------------------

    def _link_name(self, link: Link) -> str:
        return f"{link.a.name}<->{link.b.name}"

    def _faults_for(self, link: Link) -> LinkFaults:
        if link.faults is None:
            name = self._link_name(link)
            link.install_faults(LinkFaults(self.rng.child(f"link:{name}"), name))
        return link.faults

    def lossy_link(
        self,
        link: Link,
        drop: float = 0.0,
        corrupt: float = 0.0,
        delay_prob: float = 0.0,
        delay_range: tuple[float, float] = (0.0005, 0.005),
        match: Optional[Callable[[Packet], bool]] = None,
    ) -> LinkFaults:
        """Make a link probabilistically drop/corrupt/delay packets."""
        self._demote_express("lossy-link")
        faults = self._faults_for(link)
        faults.drop_prob = drop
        faults.corrupt_prob = corrupt
        faults.delay_prob = delay_prob
        faults.delay_range = delay_range
        faults.match = match
        self._record(
            "fault.lossy-link", faults.name, drop=drop, corrupt=corrupt, delay=delay_prob
        )
        return faults

    def drop_next(self, link: Link, count: int = 1) -> None:
        """Deterministically drop the next ``count`` matching packets."""
        self._demote_express("drop-next")
        faults = self._faults_for(link)
        faults.drop_next_count += count
        self._record("fault.drop-next", faults.name, count=count)

    def clear_link(self, link: Link) -> None:
        """Remove all fault state from a link (restores the fast path)."""
        if link.faults is not None:
            self._demote_express("clear-link")
            self._record("fault.clear-link", link.faults.name)
            link.faults = None

    # -- link up/down -----------------------------------------------------

    def link_down(self, link: Link) -> None:
        faults = self._faults_for(link)
        if faults.up:
            self._demote_express("link-down")
            faults.up = False
            self._record("fault.link-down", faults.name)

    def link_up(self, link: Link) -> None:
        faults = self._faults_for(link)
        if not faults.up:
            self._demote_express("link-up")
            faults.up = True
            self._record("fault.link-up", faults.name)

    def flap_link(self, link: Link, down_at: float, down_for: float) -> None:
        """Schedule the link to go down at ``down_at`` for ``down_for``."""
        self.at(down_at, self.link_down, link)
        self.at(down_at + down_for, self.link_up, link)

    def partition(self, *nodes: Any) -> None:
        """Down every link attached to the given nodes."""
        for node in nodes:
            for iface in node.interfaces:
                if iface.link is not None:
                    self.link_down(iface.link)

    def heal_partition(self, *nodes: Any) -> None:
        for node in nodes:
            for iface in node.interfaces:
                if iface.link is not None:
                    self.link_up(iface.link)

    # -- control-plane faults (repro.core.ha clusters) ---------------------

    def control_partition(self, cluster: Any, *names: str) -> None:
        """Partition the named control-plane replicas from the rest of
        the cluster by downing their replication links.  ``names`` is
        one side of the split (e.g. the minority); the same seeded
        ``heal_partition``-style reversal is :meth:`heal_control_partition`.
        """
        nodes = [cluster.node(name) for name in names]
        self._record("fault.control-partition", ",".join(names))
        self.partition(*nodes)

    def heal_control_partition(self, cluster: Any, *names: str) -> None:
        nodes = [cluster.node(name) for name in names]
        self._record("fault.control-heal", ",".join(names))
        self.heal_partition(*nodes)

    def isolate_leader(self, cluster: Any) -> Any:
        """Split-brain injection: cut the current leader's replication
        links (the node itself stays up — it only loses its peers).
        Returns the isolated node (None if the cluster is leaderless).
        """
        leader = cluster.leader_node
        if leader is not None:
            self.control_partition(cluster, leader.name)
        return leader

    def crash_leader(self, cluster: Any, restart_after: Optional[float] = None,
                     silent: bool = False) -> Any:
        """Crash whichever replica currently leads the cluster.
        Returns the crashed node (None if leaderless)."""
        leader = cluster.leader_node
        if leader is not None:
            self.crash(leader, restart_after=restart_after, silent=silent)
        return leader

    def lose_intent_log(self, cluster: Any) -> None:
        """Total intent-log loss across every replica (correlated
        controller-fleet storage failure): the cluster must rebuild
        its state from the switch tables."""
        self._record("fault.log-loss", ",".join(n.name for n in cluster.nodes))
        cluster.lose_intent_log()

    # -- node crash / restart ---------------------------------------------

    def crash(
        self, node: Any, restart_after: Optional[float] = None, silent: bool = False
    ) -> None:
        """Crash a node (VM, middle-box, compute or storage host).

        Connections die: abortively with RST on the wire (fail-fast
        crash, the hypervisor/peer stack notices immediately) or
        *silently* (power loss — peers only find out via retransmission
        exhaustion).  Interfaces are unplugged; persistent state (disk
        contents, listener bindings, conntrack) survives for the
        restart.
        """
        if node.crashed:
            return
        self._demote_express("crash")
        node.crashed = True
        for socket in list(node.stack._sockets.values()):
            if silent:
                socket._enter_reset()
            else:
                socket.reset()
        for iface in node.interfaces:
            iface._saved_wiring = (iface.link, iface.owner)
            iface.link = None
            iface.owner = None
        self._record(
            "fault.crash", node.name, silent=silent, restart_after=restart_after
        )
        if restart_after is not None:
            self.at(self.sim.now + restart_after, self.restart, node)

    def restart(self, node: Any) -> None:
        """Re-plug a crashed node's interfaces and mark it healthy."""
        if not node.crashed:
            return
        self._demote_express("restart")
        for iface in node.interfaces:
            saved = getattr(iface, "_saved_wiring", None)
            if saved is not None:
                iface.link, iface.owner = saved
                iface._saved_wiring = None
        node.crashed = False
        self._record("fault.restart", node.name)
        # crash-recovery hook (e.g. the StorM controller replays its
        # intent log); runs after the node is healthy again
        hook = getattr(node, "on_restart", None)
        if hook is not None:
            hook()

    # -- disk faults --------------------------------------------------------

    def disk_errors(
        self, disk: Any, read_error_prob: float = 0.0, write_error_prob: float = 0.0
    ) -> None:
        """Make a disk's I/Os fail probabilistically with DiskIOError."""
        rng = self.rng.child(f"disk:{disk.name}")

        def hook(op: str, offset: int, length: int) -> bool:
            prob = read_error_prob if op == "read" else write_error_prob
            return prob > 0.0 and rng.random() < prob

        disk.fault_hook = hook
        self._record(
            "fault.disk-errors",
            disk.name,
            read=read_error_prob,
            write=write_error_prob,
        )

    def fail_next_disk_io(
        self, disk: Any, op: Optional[str] = None, count: int = 1
    ) -> None:
        """Deterministically fail the next ``count`` I/Os (optionally
        only of one op kind)."""
        state = {"remaining": count}

        def hook(io_op: str, offset: int, length: int) -> bool:
            if op is not None and io_op != op:
                return False
            if state["remaining"] > 0:
                state["remaining"] -= 1
                if state["remaining"] == 0:
                    disk.fault_hook = None
                return True
            return False

        disk.fault_hook = hook
        self._record("fault.disk-fail-next", disk.name, op=op or "any", count=count)

    def clear_disk(self, disk: Any) -> None:
        disk.fault_hook = None
        self._record("fault.clear-disk", disk.name)

    # -- adversarial (hostile-tenant) actions ------------------------------

    def _adversary_for(self, mb: Any) -> RelayAdversary:
        relay = getattr(mb, "relay", None)
        if relay is None:
            raise ValueError(
                f"middle-box {mb.name} has no relay to compromise "
                "(forwarding-mode boxes never touch PDUs)"
            )
        if relay.adversary is None:
            relay.adversary = RelayAdversary(
                self, mb, self.rng.child(f"adversary:{mb.name}")
            )
        return relay.adversary

    @staticmethod
    def _require_active_relay(mb: Any, action: str) -> None:
        # duck-typed (faults must not import repro.core): only the
        # active relay owns sockets to inject cloned PDUs into
        if not hasattr(mb.relay, "nvm"):
            raise ValueError(f"{action} needs an active (redirect-mode) relay")

    def tamper_payload(self, mb: Any, count: int = 1) -> RelayAdversary:
        """Compromise ``mb``: flip one seeded byte in the payload of
        the next ``count`` data-bearing PDUs it relays, *after* hop
        stamping — the endpoint's MAC check is what must catch it."""
        self._demote_express("tamper")
        adversary = self._adversary_for(mb)
        adversary.tamper_next += count
        self._record("fault.tamper-armed", mb.name, count=count)
        return adversary

    def replay_pdu(self, mb: Any, count: int = 1) -> RelayAdversary:
        """Compromise ``mb``: re-send a clone of the next ``count``
        stamped PDUs right behind the originals (a replay attack; the
        endpoint's sequence window must reject the duplicates)."""
        self._demote_express("replay")
        adversary = self._adversary_for(mb)
        self._require_active_relay(mb, "replay")
        adversary.replay_next += count
        self._record("fault.replay-armed", mb.name, count=count)
        return adversary

    def reorder_pdus(self, mb: Any, count: int = 1) -> RelayAdversary:
        """Compromise ``mb``: hold the next ``count`` whole-PDU
        commands it relays and release them behind the following PDU —
        an in-flight reordering the endpoint's window must flag."""
        self._demote_express("reorder")
        adversary = self._adversary_for(mb)
        self._require_active_relay(mb, "reorder")
        adversary.reorder_next += count
        self._record("fault.reorder-armed", mb.name, count=count)
        return adversary

    def chain_bypass(self, flow: Any, mb: Any) -> None:
        """Maliciously reprogram the SDN rules so ``flow`` skips
        ``mb``, *without* the control plane's authorized
        re-registration (which attach/reconfigure perform).  The
        endpoint's traversal proof must catch the missing hop mark."""
        if mb not in flow.middleboxes:
            raise ValueError(f"{mb.name} is not on {flow.cookie}")
        if mb.relay is not None and hasattr(mb.relay, "nvm"):
            raise ValueError(
                "cannot bypass an active relay mid-flow (it owns TCP state)"
            )
        self._demote_express("chain-bypass")
        remaining = [m for m in flow.middleboxes if m is not mb]
        flow.chain.retire(flow.chain.stage(middleboxes=remaining))
        self.adversarial.append(
            {"kind": "chain-violation", "flow": self._flow_name(flow),
             "seq": -1, "mb": mb.name}
        )
        self._record("tamper.bypass", flow.cookie, mb=mb.name)

    @staticmethod
    def _flow_name(flow: Any) -> str:
        """The name integrity detections key on: the volume IQN for
        block flows, the raw flow name otherwise."""
        name = flow.volume_name
        if name.startswith("objstore://"):
            return name
        from repro.iscsi.pdu import volume_iqn

        return volume_iqn(name)

    def fuzz_semantic_monitor(
        self, monitor: Any, blocks: int = 64, base_offset: int = 0,
        misaligned: int = 4,
    ) -> int:
        """Feed adversarial payloads straight through the monitor's
        upstream transform — the bytes a compromised VM would write —
        plus ``misaligned`` hostile-geometry accesses.  Returns PDUs
        fed; the monitor must survive every one of them (no exception,
        bounded state, still logging afterwards)."""
        from repro.fs.layout import BLOCK_SIZE
        from repro.iscsi.pdu import ScsiCommandPdu
        from repro.workloads.hostile import hostile_dirent_corpus

        rng = self.rng.child("fuzz:monitor")
        corpus = hostile_dirent_corpus(seed=rng.randint(0, 2**31 - 1), count=blocks)
        fed = 0
        for i, payload in enumerate(corpus):
            pdu = ScsiCommandPdu(
                "write", base_offset + i * BLOCK_SIZE, BLOCK_SIZE,
                next(self.sim.task_tags), payload,
            )
            monitor.transform_upstream(pdu)
            fed += 1
        for _ in range(misaligned):
            offset = base_offset + rng.randint(1, BLOCK_SIZE - 1)
            pdu = ScsiCommandPdu(
                "write", offset, BLOCK_SIZE, next(self.sim.task_tags),
                rng.randbytes(BLOCK_SIZE),
            )
            monitor.transform_upstream(pdu)
            fed += 1
        self._record("tamper.fuzz", getattr(monitor, "name", "monitor"), pdus=fed)
        return fed
