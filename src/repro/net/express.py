"""Flow-level express path: simulate established flows, not packets.

Once a TCP flow is established and its forwarding decisions are stable,
per-packet simulation of that flow is mechanical replay: every segment
crosses the same elements, pays the same serialization/latency
arithmetic, and hits the same cached decisions.  The express path
promotes such a flow to a *compiled conduit* and replays the arithmetic
directly: one scheduled call per FIFO element, skipping the switch
pipelines, table lookups and NAT hooks in between, while producing
**bit-identical timing**.

Exactness argument (DESIGN.md §12 has the long form):

- Every FIFO element (a link direction, a stack's software-forward
  path) is one :class:`~repro.net.link.Horizon`.  A packet commits its
  slot on it in ``Interface.send`` / ``NetworkStack.handle_receive``, an
  express segment in :meth:`ExpressManager._hop`; both run inside the
  kernel occurrence that delivers the packet to the element, so both
  commit in the order those occurrences fire.  There is no second
  mechanism to align with: the commit *is* the schedule.
- The per-element arithmetic is float-op-for-float-op the same
  (``start + (size / bandwidth + overhead)``, then ``+ latency``), and
  the chained times are pushed as *absolute* times
  (:meth:`Simulator.call_at`), so no extra rounding is introduced.
- The conduit is learned, not modelled: after enough clean ACKs one
  ordinary segment carries a :class:`CompiledPath` as ``packet.plan``
  through the packet path, and every element reports what it *did*
  with that packet where it really decides.  An element whose decision
  could differ for the next packet (packet taps, forward hooks, flood,
  packet-in, a NAT match that created state, a non-inert fault
  injector) calls :meth:`CompiledPath.refuse`.
- Demotion is mandatory and lossless: any flow-table or NAT install /
  removal on a crossed table, a route change on a crossed stack, or any
  fault-injector action demotes every flow back to packet mode (and
  voids the learners still in flight); the next segments take the
  packet path and read the same horizons, so their timing is seamless.

Side effects that packet mode applies per hop (interface counters,
``packets_switched``, rule hit counts, ``packet.trace``, per-hop obs
events) are applied in bulk at delivery time — same totals, same trace
contents, same causal span tree; only the intermediate timestamps of
*observability* events collapse to the delivery instant.
"""

from __future__ import annotations

from typing import Any

from repro.sim.core import Simulator
from repro.net.packet import Packet

#: clean data ACKs received before a socket sends a learning segment
PROMOTE_AFTER = 4
#: after a learner that was lost, refused or stale, retry every
#: this-many further ACKs
RETRY_EVERY = 16


class CompiledPath:
    """The way one socket's segments take, as reported by the elements
    a real packet crossed.  It rides on that packet as ``packet.plan``
    while it learns and is walkable once :meth:`arrived` accepted it."""

    __slots__ = (
        "mgr", "socket", "epoch", "refused", "pre", "steps", "final",
        "dst_stack", "key", "hops", "tx", "rx", "switches", "mac_learns",
        "rules", "faults", "counters", "steers",
    )

    def __init__(self, mgr: "ExpressManager", socket: Any) -> None:
        self.mgr = mgr
        self.socket = socket
        self.epoch = mgr._epoch
        self.refused = False
        #: pure delays (switch pipelines) crossed since the last step
        self.pre: list[float] = []
        #: ``(pre, horizon, bandwidth, overhead, latency)`` per FIFO element
        self.steps: list[tuple] = []
        self.final: tuple = ()
        self.dst_stack: Any = None
        self.key: tuple = ()
        self.hops: tuple = ()
        self.tx: list[Any] = []
        self.rx: list[Any] = []
        self.switches: list[Any] = []
        self.mac_learns: list[tuple] = []
        self.rules: list[Any] = []
        self.faults: list[Any] = []
        self.counters: list[tuple] = []
        self.steers: list[tuple] = []

    # -- what the elements report ---------------------------------------

    def step(self, horizon: Any, bandwidth: float, overhead: float, latency: float) -> None:
        """A FIFO element committed the packet's slot on ``horizon``
        (``bandwidth`` 0: a fixed slot of ``overhead``, no wire)."""
        self.steps.append((tuple(self.pre), horizon, bandwidth, overhead, latency))
        del self.pre[:]

    def watch(self, table: Any) -> None:
        """The way depended on ``table``: its next change demotes."""
        table._x_on_change = self.mgr._on_invalidate

    def refuse(self) -> None:
        """The packet is still delivered, but not replayably."""
        self.refused = True

    def arrived(self, stack: Any, packet: Packet, peer: Any) -> None:
        """Local delivery of the learning packet at ``stack`` (``peer``
        is the socket it demuxed to, if any): promote iff every element
        on the way is replayable and nothing changed since emission."""
        mgr = self.mgr
        socket = self.socket
        if socket._xpath is not None:
            return  # an earlier learner already promoted the flow
        if (
            self.refused
            or self.epoch != mgr._epoch
            or peer is None
            or peer.state != "established"
            or socket.state != "established"
        ):
            mgr.probes_failed += 1
            return
        self.dst_stack = stack
        self.key = (packet.dst_ip, packet.dst_port, packet.src_ip, packet.src_port)
        self.hops = tuple(packet.trace)
        self.final = (
            packet.src_mac, packet.dst_mac, packet.src_ip,
            packet.dst_ip, packet.src_port, packet.dst_port,
        )
        socket._xpath = self
        mgr._active[socket] = self
        mgr.promotions += 1
        obs = mgr.obs
        if obs is not None:
            obs.event("flow.promote", target=mgr._label(socket), hops=len(self.hops))


class ExpressManager:
    """Owns promotion, the compiled walks, and demotion for one sim.

    ``ExpressManager(sim)`` registers itself as ``sim.express``; the
    elements it walks need no preparation (their horizons always exist).
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        #: observability bus (wired by ``repro.obs.instrument``)
        self.obs: Any = None
        self._active: dict[Any, CompiledPath] = {}
        #: bumped by every invalidation; a learner emitted under an
        #: older epoch arrives stale
        self._epoch = 0
        self.promotions = 0
        self.demotions = 0
        #: learning packets that arrived refused or stale
        self.probes_failed = 0
        sim.express = self

    # -- promotion -----------------------------------------------------

    def on_ack(self, socket: Any) -> None:
        """Called by the TCP layer for every ACK that advances a
        not-yet-promoted socket: after enough clean ACKs, arm it so its
        next data/ack segment learns the way."""
        n = socket._x_acks + 1
        socket._x_acks = n
        if n < PROMOTE_AFTER or socket.state != "established":
            return
        if (n - PROMOTE_AFTER) % RETRY_EVERY:
            return
        socket._x_learn = True

    def learner(self, socket: Any) -> CompiledPath:
        """Entry from ``TcpSocket._emit`` on an armed socket: the plan
        this segment carries through the packet path."""
        socket._x_learn = False
        return CompiledPath(self, socket)

    @staticmethod
    def _label(socket: Any) -> str:
        return socket.express_label or f"{socket.local_ip}:{socket.local_port}"

    # -- demotion ------------------------------------------------------

    def demote(self, socket: Any, reason: str = "") -> None:
        if self._active.pop(socket, None) is None:
            return
        socket._xpath = None
        socket._x_acks = 0
        socket._x_learn = False
        self.demotions += 1
        obs = self.obs
        if obs is not None:
            obs.event("flow.demote", target=self._label(socket), reason=reason)

    def demote_all(self, reason: str = "") -> None:
        """Mandatory lossless fallback: flows revert to packet mode,
        which reads the same horizons, so timing stays exact; learners
        in flight arrive stale."""
        self._epoch += 1
        for socket in list(self._active):
            self.demote(socket, reason)

    def _on_invalidate(self) -> None:
        """Bound to the ``_x_on_change`` hook of every table/stack a
        learning packet depended on."""
        self.demote_all("state-change")

    @property
    def active_flows(self) -> int:
        return len(self._active)

    # -- the walk ------------------------------------------------------

    def send(self, socket: Any, packet: Packet) -> None:
        """Entry from ``TcpSocket._emit``: element 0 is committed inline
        (transmission out of the source stack is synchronous)."""
        self._hop(socket._xpath, packet, 0, self.sim.now)

    def _hop(self, path: CompiledPath, packet: Packet, i: int, t: float) -> None:
        _pre, st, bw, oh, lat = path.steps[i]
        busy = st.busy
        start = busy if busy > t else t
        if bw:
            dep = start + (packet.size / bw + oh)
            out = dep + lat
        else:
            dep = start + oh
            out = dep
        st.busy = dep
        i += 1
        steps = path.steps
        if i < len(steps):
            for d in steps[i][0]:
                out = out + d
            self.sim.call_at(out, self._hop, path, packet, i, out)
        else:
            self.sim.call_at(out, self._deliver, path, packet)

    def _deliver(self, path: CompiledPath, packet: Packet) -> None:
        """Arrival at the destination stack: apply the side effects the
        crossed elements reported, then hand the segment to its socket
        as ``NetworkStack._deliver_local`` would (through which this
        measured 4% slower on ``fio_express``)."""
        size = packet.size
        for iface in path.tx:
            iface.tx_packets += 1
            iface.tx_bytes += size
        for iface in path.rx:
            iface.rx_packets += 1
            iface.rx_bytes += size
        for switch in path.switches:
            switch.packets_switched += 1
        for table, mac, port in path.mac_learns:
            table[mac] = port
        for rule in path.rules:
            rule.hits += 1
        for faults in path.faults:
            faults.passed += 1
        for counter, by_size in path.counters:
            counter.inc(size if by_size else 1)
        packet.trace.extend(path.hops)
        ctx = packet.ctx
        if ctx is not None:
            for name in path.hops:
                ctx.hop(name, packet)
            for name, cookie in path.steers:
                ctx.event("switch.steer", target=name, cookie=cookie)
        (
            packet.src_mac,
            packet.dst_mac,
            packet.src_ip,
            packet.dst_ip,
            packet.src_port,
            packet.dst_port,
        ) = path.final
        stack = path.dst_stack
        socket = stack._sockets.get(path.key)
        if socket is not None:
            socket.handle_segment(packet.payload, packet)
        elif path.key[1] not in stack._listeners:  # a listener ignores data/ack
            stack.dropped_packets += 1
