"""Interfaces and point-to-point links.

A :class:`Link` joins two :class:`Interface` objects.  Each direction
serializes packets (``size / bandwidth``), then delays them by the
propagation/processing latency, then lands them on the far interface:
the far element's landing runs ``delay`` after the arrival (a switch's
pure-delay pipeline, zero for a NIC).  ``per_packet_overhead`` models
fixed per-frame cost — for VM virtual interfaces this is the
single-threaded virtio copy path the paper identifies as the dominant
intra-host cost.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, Optional

from repro.sim import Simulator
from repro.net.packet import Packet

#: 1 GbE in bytes/second, the paper's testbed NICs.
GIGABIT_BPS = 125_000_000


class Interface:
    """A NIC: a named attachment point with a MAC and optional IP.  A
    packet reaching it runs its ``landing(iface, packet, start, done,
    arrive)`` ``delay`` after the arrival: a switch's pass, a node's
    ``receive``, or :meth:`land` for any other owner."""

    def __init__(self, name: str, mac: str, ip: Optional[str] = None):
        self.name = name
        self.mac = mac
        self.ip = ip
        self.owner: Any = None  # a Node, a Switch, or anything with receive()
        self.link: Optional[Link] = None
        self.landing: Callable[..., None] = Interface.land
        self.delay = 0.0
        self.port: Optional[str] = None  # the name, on a switch's port
        #: this direction's horizon and the far interface, set by the link
        self._horizon: Optional[Horizon] = None
        self._peer: Optional[Interface] = None
        self.tx_packets = 0
        self.rx_packets = 0
        self.tx_bytes = 0
        self.rx_bytes = 0

    def send(self, packet: Packet) -> None:
        """Transmit onto the attached link (drops if unplugged): the near
        half of a link transit.  The packet commits its slot
        ``start..done`` on this direction's :class:`Horizon`; on a link
        with no injector the far interface's landing is scheduled at
        once, at ``(done + latency) + delay``."""
        link = self.link
        if link is None:
            return
        size = packet.size
        self.tx_packets += 1
        self.tx_bytes += size
        horizon = self._horizon
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
        dst = self._peer
        plan = packet.plan
        if plan is not None:
            link._report(plan, self, dst, horizon)
        if link.faults is None:
            arrive = done + link.latency
            seq = sim._sequence  # Simulator.call_at's heap entry, without its frame
            sim._sequence = seq + 1
            args = (dst, packet, start, done, arrive)
            heappush(sim._heap, (arrive + dst.delay, seq, dst.landing, args))
        elif start > now:
            # Queued behind a backlog with an injector installed: the
            # verdict belongs to the instant serialization starts (a
            # link that goes down meanwhile drops the backlog).
            sim.call_at(start, link._serialize, dst, packet, start, done)
        else:
            link._serialize(dst, packet, start, done)

    def land(self, packet: Packet, start: float, done: float, arrive: float) -> None:
        """Default landing: count the packet and hand it to the owner's
        ``receive(packet, iface)``.  The slot rides along in every
        landing so that :meth:`Link.install_faults` can find the ones
        that have not begun."""
        self.rx_packets += 1
        self.rx_bytes += packet.size
        owner = self.owner
        if owner is not None:
            owner.receive(packet, self)

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
        for iface in (a, b):
            iface._horizon, iface._peer = self._directions[iface]

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
        if the injector is still installed, and schedule its landing on
        the far interface."""
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
        arrive = done + (self.latency + extra)
        self.sim.call_at(arrive + dst.delay, dst.landing, dst, packet, start, done, arrive)

    def install_faults(self, faults) -> None:
        """Install an injector, possibly mid-transfer.  Packets committed
        unjudged whose serialization has not begun are judged when it
        does, exactly as if the injector had been there when they were
        sent: going down with a backlog queued drops the backlog."""
        sim = self.sim
        now = sim.now
        # the unjudged landings never fire; their slots are judged instead
        a, b = self.a, self.b
        for args in sim.disarm_calls(
            (a.landing, b.landing), lambda args: (args[0] is a or args[0] is b) and args[2] > now
        ):
            sim.call_at(args[2], self._serialize, *args[:4])
        self.faults = faults
