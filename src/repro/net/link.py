"""Interfaces and point-to-point links.

A :class:`Link` joins two :class:`Interface` objects.  Each direction
serializes packets (``size / bandwidth``), then delays them by the
propagation/processing latency, then delivers to the far interface's
owner.  ``per_packet_overhead`` models fixed per-frame cost — for VM
virtual interfaces this is the single-threaded virtio copy path the
paper identifies as the dominant intra-host cost.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.sim import Simulator
from repro.net.packet import Packet

if TYPE_CHECKING:
    from repro.net.stack import Node

#: 1 GbE in bytes/second, the paper's testbed NICs.
GIGABIT_BPS = 125_000_000


class Interface:
    """A NIC: a named attachment point with a MAC and optional IP."""

    def __init__(self, name: str, mac: str, ip: Optional[str] = None):
        self.name = name
        self.mac = mac
        self.ip = ip
        self.owner: Optional["Node"] = None
        self.link: Optional[Link] = None
        self.tx_packets = 0
        self.rx_packets = 0
        self.tx_bytes = 0
        self.rx_bytes = 0

    def send(self, packet: Packet) -> None:
        """Transmit onto the attached link (drops if unplugged): the near
        half of a link transit.  The packet commits its slot
        ``start..done`` on this direction's :class:`Horizon`; on a link
        with no injector its arrival at the far end
        (:meth:`Link._arrive`) is scheduled at once."""
        link = self.link
        if link is None:
            return
        size = packet.size
        self.tx_packets += 1
        self.tx_bytes += size
        horizon, dst = link._directions[self]
        sim = link.sim
        now = sim.now
        busy = horizon.busy
        start = busy if busy > now else now
        done = start + (size / link.bandwidth + link.per_packet_overhead)
        horizon.busy = done
        obs = link._obs
        if obs is not None:
            counters = link._counters
            if counters is None:  # first transmit since a bus was wired
                metrics = obs.metrics
                counters = link._counters = (
                    metrics.counter("link.tx", link.obs_name),
                    metrics.counter("link.tx_bytes", link.obs_name),
                )
            counters[0].inc()
            counters[1].inc(size)
        plan = packet.plan
        if plan is not None:
            link._report(plan, self, dst, horizon)
        if link.faults is None:
            sim.call_at(done + link.latency, link._arrive, dst, packet, start, done)
        elif start > now:
            # Queued behind a backlog with an injector installed: the
            # verdict belongs to the instant serialization starts (a
            # link that goes down meanwhile drops the backlog).
            sim.call_at(start, link._serialize, dst, packet, start, done)
        else:
            link._serialize(dst, packet, start, done)

    def __repr__(self) -> str:
        return f"Interface({self.name}, mac={self.mac}, ip={self.ip})"


class Horizon:
    """Occupancy horizon of one FIFO element (a link direction, a
    stack's software-forward path): ``busy`` is the absolute time its
    last committed slot ends.  Packets and express segments alike commit
    ``start = max(busy, now)`` in the order their delivering events
    fire, so the element never overlaps two slots and never reorders,
    and schedule the delivery at once: one kernel occurrence per packet
    (DESIGN.md §7)."""

    __slots__ = ("busy",)

    def __init__(self) -> None:
        self.busy: float = 0.0


class Link:
    """Full-duplex link: independent serialization per direction."""

    def __init__(
        self,
        sim: Simulator,
        a: Interface,
        b: Interface,
        bandwidth: float = GIGABIT_BPS,
        latency: float = 50e-6,
        per_packet_overhead: float = 0.0,
    ):
        if bandwidth <= 0:
            raise ValueError("link bandwidth must be positive")
        self.sim = sim
        self.a = a
        self.b = b
        self.bandwidth = bandwidth
        self.latency = latency
        self.per_packet_overhead = per_packet_overhead
        #: installed by :class:`repro.faults.FaultInjector` — when
        #: non-None, every packet is judged (drop / corrupt / delay /
        #: link-down) at its serialization start.  ``None`` keeps the
        #: fast path branch-free beyond one identity check.
        self.faults = None
        self._obs = None
        #: ``(link.tx, link.tx_bytes)`` of the wired bus, bound by the
        #: first transmit after wiring (``Interface.send``)
        self._counters: Optional[tuple] = None
        self.obs_name = f"{a.name}<->{b.name}"
        a.link = self
        b.link = self
        #: sending interface -> (that direction's horizon, far interface);
        #: express walks commit on the same horizons (repro.net.express).
        self._directions = {a: (Horizon(), b), b: (Horizon(), a)}

    @property
    def obs(self):
        """Observability bus hook (same zero-cost-off pattern as
        ``faults``): when non-None, per-packet transmit/drop counters
        are recorded.  Wiring a bus drops the counter handles bound to
        the previous one."""
        return self._obs

    @obs.setter
    def obs(self, bus) -> None:
        self._obs = bus
        self._counters = None

    def _report(self, plan, from_iface: Interface, dst: Interface, horizon: Horizon) -> None:
        """Tell an express learner (:mod:`repro.net.express`) what
        :meth:`Interface.send` did with the packet carrying it."""
        plan.tx.append(from_iface)
        plan.rx.append(dst)
        if self.obs is not None:
            metrics = self.obs.metrics
            plan.counters.append((metrics.counter("link.tx", self.obs_name), False))
            plan.counters.append((metrics.counter("link.tx_bytes", self.obs_name), True))
        plan.step(horizon, self.bandwidth, self.per_packet_overhead, self.latency)

    def _serialize(self, dst: Interface, packet: Packet, start: float, done: float) -> None:
        """Serialization start of the slot ``start..done`` on a link with
        an injector (see also :meth:`install_faults`): judge the packet,
        if the injector is still installed, and schedule its arrival at
        the far end."""
        extra = 0.0
        faults = self.faults
        if faults is not None:
            plan = packet.plan
            if plan is not None:
                if faults.inert_for(packet):
                    plan.faults.append(faults)
                else:
                    plan.refuse()
            extra = faults.judge(packet)
            if extra < 0.0:
                # dropped — but the sender still paid the wire time (the
                # loss happens at the far end of the pipe)
                if self.obs is not None:
                    self.obs.metrics.counter("link.drop", self.obs_name).inc()
                return
        self.sim.call_at(done + (self.latency + extra), self._arrive, dst, packet, start, done)

    def _arrive(self, dst: Interface, packet: Packet, start: float, done: float) -> None:
        """Far end of the wire: count the packet on ``dst`` and hand it
        to ``dst``'s owner.  The slot rides along so that
        :meth:`install_faults` can find the ones that have not begun."""
        dst.rx_packets += 1
        dst.rx_bytes += packet.size
        owner = dst.owner
        if owner is not None:
            owner.receive(packet, dst)

    def install_faults(self, faults) -> None:
        """Install an injector, possibly mid-transfer.  Packets committed
        unjudged whose serialization has not begun are judged when it
        does, exactly as if the injector had been there when they were
        sent: going down with a backlog queued drops the backlog."""
        sim = self.sim
        now = sim.now
        # the unjudged arrivals never fire; their slots are judged instead
        for args in sim.disarm_calls(self._arrive, lambda args: args[2] > now):
            sim.call_at(args[2], self._serialize, *args)
        self.faults = faults
