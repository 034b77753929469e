"""The store-and-forward element model: one horizon, one occurrence.

Every FIFO element of ``repro.net`` (link direction, software
forwarder) is an occupancy horizon on which packets and express
segments commit ``start = max(busy, now)``; each costs one scheduled
kernel occurrence.  These tests pin the three properties the model
rests on: delivery times equal to the old per-direction pump's to the
last bit, the tie rule, and the event budget; and the Python-call
budget of the packet path beside it.
"""

import sys
from collections import Counter
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.net
from repro.net import ArpTable, Interface, Link, Node, Packet
from repro.net.express import CompiledPath, ExpressManager
from repro.sim import Simulator

from tests.net.helpers import routed_pair, two_hosts_one_switch

BANDWIDTH = 125_000_000
OVERHEAD = 3e-6
LATENCY = 50e-6


def raw_packet(size, **kw):
    headers = dict(
        src_mac="m:a", dst_mac="m:b", src_ip="10.0.0.1", dst_ip="10.0.0.2",
        src_port=1, dst_port=2,
    )
    headers.update(kw)
    return Packet(size=size, **headers)


def reference_pump(arrivals):
    """The old ``Link._pump`` as arithmetic: FIFO in arrival order, no
    overlap, ``deliver = max(arrival, previous done) + serialize +
    latency``.  ``arrivals`` is ``[(time, size)]`` in firing order."""
    deliveries = []
    done = 0.0
    for arrival, size in arrivals:
        start = done if done > arrival else arrival
        done = start + (size / BANDWIDTH + OVERHEAD)
        deliveries.append(done + LATENCY)
    return deliveries


class Recorder:
    """Stands in for a node (packets) and a socket (express claims)."""

    name = "recorder"

    def __init__(self, sim):
        self.sim = sim
        self.times = {}

    def receive(self, packet, iface):
        self.times[packet.payload] = self.sim.now

    def handle_segment(self, payload, packet):
        self.times[payload] = self.sim.now


class StubStack:
    def __init__(self, socket):
        self._sockets = {"flow": socket}
        self._listeners = {}
        self.dropped_packets = 0


#: arrival instants drawn from a small grid so that ties and
#: back-to-back backlogs are common, plus arbitrary floats
instants = st.one_of(
    st.sampled_from([0.0, 1e-6, 2e-6, 5e-6, 1e-5, 1e-4]),
    st.floats(min_value=0.0, max_value=2e-4, allow_nan=False),
)
arrival = st.tuples(
    instants,
    st.integers(min_value=40, max_value=9000),  # size
    st.booleans(),  # direction: a->b or b->a
    st.booleans(),  # an express claim instead of a packet
)


@settings(max_examples=120, deadline=None)
@given(st.lists(arrival, min_size=1, max_size=40), st.booleans())
def test_link_delivery_times_equal_the_reference_pump(arrivals, with_claims):
    sim = Simulator()
    manager = ExpressManager(sim)
    a, b = Interface("a", "m:a"), Interface("b", "m:b")
    recorder = Recorder(sim)
    a.owner = b.owner = recorder
    link = Link(
        sim, a, b, bandwidth=BANDWIDTH, latency=LATENCY, per_packet_overhead=OVERHEAD
    )
    # a one-element compiled conduit per direction: what a promoted
    # flow crossing only this link would walk
    paths = {}
    for iface in (a, b):
        horizon, _dst = link._directions[iface]
        path = paths[iface] = CompiledPath(manager, None)
        path.step(horizon, BANDWIDTH, OVERHEAD, LATENCY)
        path.final = ("m:a", "m:b", "10.0.0.1", "10.0.0.2", 1, 2)
        path.dst_stack, path.key = StubStack(recorder), "flow"

    expected = {}
    per_direction = {a: [], b: []}
    # sim.call_at allocates sequence numbers in list order, so firing
    # order is the stable sort by time: the reference's arrival order
    for index, (when, size, forward, claim) in enumerate(arrivals):
        iface = a if forward else b
        packet = raw_packet(size, payload=index)
        if claim and with_claims:
            sim.call_at(when, manager._hop, paths[iface], packet, 0, when)
        else:
            sim.call_at(when, iface.send, packet)
        per_direction[iface].append((when, size, index))
    for entries in per_direction.values():
        entries.sort(key=lambda entry: entry[0])
        times = reference_pump([(when, size) for when, size, _ in entries])
        expected.update({index: t for (_, _, index), t in zip(entries, times)})
    sim.run()
    assert recorder.times == expected  # float ==: bit-identical


def forwarding_fan_in(forward_delay):
    """src1, src2 -> router -> sink, over three private links."""
    sim = Simulator()
    router = Node(sim, "router")
    router.stack.ip_forward = True
    router.stack.forward_delay = forward_delay
    arp = ArpTable("out")
    sources = []
    for n in (1, 2):
        src = Interface(f"src{n}", f"m:s{n}")
        rin = Interface(f"r.in{n}", f"m:r{n}")
        router.add_interface(rin)
        Link(sim, src, rin, bandwidth=BANDWIDTH, latency=LATENCY)
        sources.append(src)
    rout = Interface("r.out", "m:ro", "10.0.1.1")
    router.add_interface(rout, arp)
    router.stack.add_route("10.0.1.0/24", rout)
    sink_iface = Interface("sink", "m:sink", "10.0.1.2")
    arp.register("10.0.1.2", "m:sink")
    recorder = Recorder(sim)
    sink_iface.owner = recorder
    Link(sim, rout, sink_iface, bandwidth=BANDWIDTH, latency=LATENCY)
    return sim, sources, recorder


def test_same_instant_arrivals_are_served_in_delivery_event_order():
    """The tie rule: two packets that reach one element at the same
    simulated instant take their slots in the order the kernel fired
    the occurrences that delivered them (sequence order), whichever
    link each came over."""
    for first, second in ((0, 1), (1, 0)):
        sim, sources, recorder = forwarding_fan_in(forward_delay=6e-6)
        for n in (first, second):
            sources[n].send(
                raw_packet(1000, dst_mac=f"m:r{n + 1}", dst_ip="10.0.1.2", payload=n)
            )
        sim.run()
        arrive = 0.0 + 1000 / BANDWIDTH + LATENCY  # both, bit for bit
        slot1 = arrive + 6e-6
        slot2 = slot1 + 6e-6
        wire1 = slot1 + 1000 / BANDWIDTH
        wire2 = (wire1 if wire1 > slot2 else slot2) + 1000 / BANDWIDTH
        assert recorder.times == {first: wire1 + LATENCY, second: wire2 + LATENCY}


def test_event_budget_one_occurrence_per_link_and_switch_hop():
    """A clean path costs one kernel occurrence per link traversal and
    one per switch hop: no per-packet process, store or second timer
    can creep back in unnoticed."""
    sim, _arp, _switch, a, b = two_hosts_one_switch()
    sim.run()
    packets = 50
    before = sim._sequence
    for n in range(packets):
        a.stack.send_ip(
            raw_packet(1500, src_mac="", dst_mac="", payload=n)
        )
    sim.run()
    assert b.interfaces[0].rx_packets == packets
    links, switch_hops = 2, 1
    assert sim._sequence - before <= packets * (links + switch_hops)


def test_event_budget_one_occurrence_per_software_forward():
    sim, sources, recorder = forwarding_fan_in(forward_delay=6e-6)
    packets = 50
    before = sim._sequence
    for n in range(packets):
        sources[0].send(raw_packet(1500, dst_mac="m:r1", dst_ip="10.0.1.2", payload=n))
    sim.run()
    assert len(recorder.times) == packets
    assert sim._sequence - before <= packets * 3  # link, forwarder, link


NET_DIR = str(Path(repro.net.__file__).parent)
#: the IP stack's side of an element: node, stack, NAT, packet helpers
STACK_FILES = ("stack.py", "nat.py", "packet.py")


def net_calls(sim, stack, packet):
    """Python-level calls into ``repro.net``, by file name, while
    ``stack`` sends ``packet`` and the simulator runs to quiescence."""
    calls = Counter()

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename.startswith(NET_DIR):
            calls[Path(frame.f_code.co_filename).name] += 1

    sys.setprofile(profile)
    try:
        stack.send_ip(packet)
        sim.run()
    finally:
        sys.setprofile(None)
    return calls


def one_warm_packet(sim, a, b, dst_ip):
    """Calls for one packet from ``a`` to ``dst_ip`` once one packet each
    way has taught the switch both MACs and filled every decision cache."""
    for src, dst, ip in ((a, b, dst_ip), (b, a, "10.0.0.1")):
        src.stack.send_ip(raw_packet(100, src_ip=src.interfaces[0].ip, dst_ip=ip))
        sim.run()
    before = b.interfaces[0].rx_packets
    calls = net_calls(sim, a.stack, raw_packet(1500, dst_ip=dst_ip))
    assert b.interfaces[0].rx_packets == before + 1
    return calls


def test_call_budget_per_link_switch_and_forward():
    """A link transit is two calls (``Interface.send``, ``Link._arrive``),
    a switch pass two (``receive``, ``_apply_pipeline``: a decision-cache
    hit is a dict probe) and a software forward five (``Node.receive``,
    ``Packet.record_hop``, ``handle_receive``, ``NatTable.translate``,
    ``route_and_send``: route cache and ARP are dict probes)."""
    sim, _arp, _switch, a, b = two_hosts_one_switch()
    direct = one_warm_packet(sim, a, b, "10.0.0.2")
    assert direct["link.py"] <= 2 * 2
    assert direct["switch.py"] <= 2 * 1
    sim, _switch, a, _router, b, _last = routed_pair()
    routed = one_warm_packet(sim, a, b, "10.0.1.2")
    assert routed["link.py"] <= 2 * 3
    assert routed["switch.py"] <= 2 * 1
    # both paths start and end in the same stack code; the difference is
    # the router's forward
    forward = sum(routed[f] for f in STACK_FILES) - sum(direct[f] for f in STACK_FILES)
    assert forward <= 5
