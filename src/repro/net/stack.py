"""Per-node IP stack: L2 filtering, ARP, routing, NAT, IP forwarding.

Every host, VM, gateway, and middle-box owns a :class:`NetworkStack`.
NAT is applied exactly once per node traversal (at PREROUTING for
received packets, at OUTPUT for locally originated ones), mirroring
the iptables hook points StorM programs in the paper.  Middle-boxes
enable ``ip_forward`` — the only in-guest configuration the paper
requires of them.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.sim import Simulator, Store
from repro.net.link import Horizon, Interface
from repro.net.nat import NatTable
from repro.net.packet import Packet

if TYPE_CHECKING:
    from repro.net.tcp import TcpListener, TcpSocket

BROADCAST_MAC = "ff:ff:ff:ff:ff:ff"

#: Filled on first use by :meth:`NetworkStack._deliver_local`.
_TcpSegment = None


class ArpTable:
    """IP→MAC resolution for one L2 domain (one network of Fig. 1)."""

    def __init__(self, name: str):
        self.name = name
        self._entries: dict[str, str] = {}

    def register(self, ip: str, mac: str) -> None:
        self._entries[ip] = mac

    def unregister(self, ip: str) -> None:
        self._entries.pop(ip, None)


@dataclass
class Route:
    """Longest-prefix-match routing entry."""

    network: ipaddress.IPv4Network
    iface: Interface
    via: Optional[str] = None  # next-hop IP; None = on-link

    @property
    def prefixlen(self) -> int:
        return self.network.prefixlen


class Node:
    """Anything with interfaces and an IP stack (host, VM, gateway)."""

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self.interfaces: list[Interface] = []
        #: set by :class:`repro.faults.FaultInjector` while the node is
        #: down; health checks (e.g. the autoscaler) read it.
        self.crashed = False
        self.stack = NetworkStack(sim, self)

    def add_interface(self, iface: Interface, arp: Optional[ArpTable] = None) -> Interface:
        iface.owner = self
        iface.landing = self.receive
        self.interfaces.append(iface)
        self.stack.register_interface(iface, arp)
        return iface

    def receive(self, iface: Interface, packet: Packet,
                start: float, done: float, arrive: float) -> None:
        """The landing of this node's NICs (an override lands instead):
        count the frame, drop it on a crashed node's unplugged NIC, then
        the L2 filter, the hop record and the stack."""
        iface.rx_packets += 1
        iface.rx_bytes += packet.size
        if iface.owner is None:
            return
        dst_mac = packet.dst_mac
        if dst_mac != iface.mac and dst_mac != BROADCAST_MAC:
            return  # not addressed to this NIC at L2
        name = self.name
        packet.trace.append(name)
        ctx = packet.ctx
        if ctx is not None:
            ctx.hop(name, packet, arrive)
        self.stack.handle_receive(packet, iface)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


class NetworkStack:
    """Routing, NAT, IP forwarding, and TCP demultiplexing for a node."""

    def __init__(self, sim: Simulator, node: Node):
        self.sim = sim
        self.node = node
        self.routes: list[Route] = []
        self.nat = NatTable()
        self.ip_forward = False
        #: Extra per-packet delay when forwarding (software IP path).
        self.forward_delay: float = 0.0
        #: dst_ip -> Route (or None) memo; cleared when routes change.
        self._route_cache: dict[str, Optional[Route]] = {}
        #: cached set of local interface IPs; rebuilt when NICs change.
        self._local_ips: set[str] = set()
        self._arp_by_iface: dict[str, ArpTable] = {}
        self._sockets: dict[tuple[str, int, str, int], "TcpSocket"] = {}
        self._listeners: dict[int, "TcpListener"] = {}
        self.dropped_packets = 0
        #: Optional observer invoked for every packet that reaches the
        #: stack (after the L2 filter).
        self.packet_taps: list[Callable[[Packet, Interface], None]] = []
        #: Optional generator hook run inside the FORWARD path, before a
        #: forwarded packet is re-routed.  This is the passive relay's
        #: netfilter-style attachment point: it can delay (kernel→user
        #: copies, service processing) and mutate the packet in place.
        self.forward_hook: Optional[Callable[[Packet], object]] = None
        #: FIFO software-forwarding path (single kernel thread, like the
        #: virtio/netfilter path the paper measures): its occupancy
        #: horizon, shared with express walks, and the queue feeding the
        #: hook process (created with the first hooked packet).
        self._fwd = Horizon()
        self._hook_queue = None
        #: Express-path change notification (:mod:`repro.net.express`),
        #: fired when routes change so compiled flows demote.
        self._x_on_change: Optional[Callable[[], None]] = None
        #: Obs bus (wired by ``repro.obs.instrument``) — lets the TCP
        #: hot path skip per-packet context copies while it is None.
        self.obs_bus = None

    # -- configuration -------------------------------------------------

    def register_interface(self, iface: Interface, arp: Optional[ArpTable]) -> None:
        if iface.ip is not None:
            self._local_ips.add(iface.ip)
        if arp is not None:
            self._arp_by_iface[iface.name] = arp
            if iface.ip is not None:
                arp.register(iface.ip, iface.mac)

    def add_route(self, cidr: str, iface: Interface, via: Optional[str] = None) -> None:
        self.routes.append(Route(ipaddress.ip_network(cidr), iface, via))
        self.routes.sort(key=lambda r: -r.prefixlen)
        self._route_cache.clear()
        if self._x_on_change is not None:
            self._x_on_change()

    def allocate_port(self) -> int:
        """An ephemeral port unique across the whole simulated cloud:
        source ports identify flows at gateways and in steering rules, so
        two stacks both picking 49152 would alias flows.  Real deployments
        rely on the (ip, port) pair; one allocator per run, on the
        Simulator, is the simulation's shortcut."""
        return next(self.sim.ports)

    # -- TCP demux -----------------------------------------------------

    def bind_socket(self, socket: "TcpSocket") -> None:
        self._sockets[socket.demux_key()] = socket

    def unbind_socket(self, socket: "TcpSocket") -> None:
        self._sockets.pop(socket.demux_key(), None)

    def bind_listener(self, listener: "TcpListener") -> None:
        if listener.port in self._listeners:
            raise ValueError(f"port {listener.port} already bound on {self.node.name}")
        self._listeners[listener.port] = listener

    def unbind_listener(self, listener: "TcpListener") -> None:
        self._listeners.pop(listener.port, None)

    # -- data plane ------------------------------------------------------

    def handle_receive(self, packet: Packet, iface: Interface) -> None:
        plan = packet.plan
        if plan is not None:  # an express learner (repro.net.express)
            plan.watch(self.nat)
        if self.packet_taps:
            if plan is not None:
                plan.refuse()  # a tap sees every packet, not one sample
            for tap in self.packet_taps:
                tap(packet, iface)
        self.nat.translate(packet, hook="prerouting")
        if packet.dst_ip in self._local_ips:
            self._deliver_local(packet)
            return
        if self.ip_forward:
            if self.forward_hook is not None:
                if plan is not None:
                    plan.refuse()  # the hook's duration is its own business
                queue = self._hook_queue
                if queue is None:
                    queue = self._hook_queue = Store(self.sim)
                    self.sim.process(self._hook_pump(), name=f"fwd:{self.node.name}")
                queue.put(packet)
                return
            # One slot of forward_delay on the horizon, one scheduled
            # occurrence: the re-route at the slot's end.
            horizon = self._fwd
            now = self.sim.now
            busy = horizon.busy
            done = (busy if busy > now else now) + self.forward_delay
            horizon.busy = done
            if plan is not None:
                plan.step(horizon, 0.0, self.forward_delay, 0.0)
            self.sim.call_at(done, self.route_and_send, packet)
            return
        self.dropped_packets += 1

    def _hook_pump(self):
        """FORWARD path under a generator ``forward_hook`` (the passive
        relay): the hook's duration is only known once it has run, so
        these packets keep a serial process, which starts each one on
        the shared horizon and moves the horizon to where it finished."""
        horizon = self._fwd
        sim = self.sim
        while True:
            packet = yield self._hook_queue.get()
            if horizon.busy > sim.now:
                yield sim.timeout(horizon.busy - sim.now)
            if self.forward_delay:
                yield sim.timeout(self.forward_delay)
            if self.forward_hook is not None:
                yield from self.forward_hook(packet)
            horizon.busy = sim.now
            self.route_and_send(packet)

    def send_ip(self, packet: Packet) -> None:
        """Transmit a locally generated packet (OUTPUT NAT, then route)."""
        if packet.plan is not None:
            packet.plan.watch(self.nat)
        self.nat.translate(packet, hook="output")
        self.route_and_send(packet)

    def route_and_send(self, packet: Packet) -> None:
        if packet.plan is not None:
            packet.plan.watch(self)
        dst_ip = packet.dst_ip
        try:
            route = self._route_cache[dst_ip]
        except KeyError:
            route = self._lookup_route(dst_ip)
        if route is None:
            self.dropped_packets += 1
            return
        iface = route.iface
        arp = self._arp_by_iface.get(iface.name)
        dst_mac = arp._entries.get(route.via or dst_ip) if arp is not None else None
        if dst_mac is None:
            self.dropped_packets += 1
            return
        packet.src_mac = iface.mac
        packet.dst_mac = dst_mac
        iface.send(packet)

    def _lookup_route(self, dst_ip: str) -> Optional[Route]:
        """Longest-prefix match for a destination the route cache has
        not seen; memoizes the answer (None included)."""
        address = ipaddress.ip_address(dst_ip)
        found = None
        for route in self.routes:  # sorted by prefix length, longest first
            if address in route.network:
                found = route
                break
        self._route_cache[dst_ip] = found
        return found

    def _deliver_local(self, packet: Packet) -> None:
        global _TcpSegment
        if _TcpSegment is None:  # deferred import to avoid a cycle
            from repro.net.tcp import TcpSegment as _TcpSegment  # noqa: F811

        segment = packet.payload
        if not isinstance(segment, _TcpSegment):
            self.dropped_packets += 1
            return
        key = (packet.dst_ip, packet.dst_port, packet.src_ip, packet.src_port)
        socket = self._sockets.get(key)
        if packet.plan is not None:
            packet.plan.arrived(self, packet, socket)
        if socket is not None:
            socket.handle_segment(segment, packet)
            return
        listener = self._listeners.get(packet.dst_port)
        if listener is not None:
            listener.handle_segment(segment, packet)
            return
        self.dropped_packets += 1
