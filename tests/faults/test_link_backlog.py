"""Link faults against a queued backlog.

A packet's verdict belongs to the instant its serialization starts, in
start order, whether or not an injector existed when it was handed to
the link.  Every scenario here gives the same drops, delivery order and
delivery times on the per-direction pump this model replaced: the
expectations are that pump's behaviour written out.  Each scenario
runs against every kind of far end, because each kind has its own
landing: a bare receiver, a switch port (whose landing is the switch's
pass, a forwarding delay after the arrival) and a node's NIC.
"""

from repro.faults import FaultInjector
from repro.net import FlowRule, Interface, Link, Node, Packet, Switch
from repro.net.switch import ToController
from repro.sim import Simulator
from repro.sim.rng import SeededRNG

MS = 1e-3
#: 1000 B at 1 MB/s: each packet holds the wire for exactly 1 ms, so
#: ten packets sent at t=0 start serializing at 0, 1, ..., 9 ms
BANDWIDTH = 1_000_000
LATENCY = 2 * MS
#: the far switch's pipeline; a landing on a NIC adds nothing
SWITCH_DELAY = 3e-6

FAR_ENDS = ("sink", "switch", "node")


def slot_ends(count=10):
    """When each back-to-back slot ends, summed the way the link does."""
    ends, done = [], 0.0
    for _ in range(count):
        done = done + (1000 / BANDWIDTH + 0.0)
        ends.append(done)
    return ends


def send(iface, n):
    iface.send(
        Packet(
            src_mac="m:a", dst_mac="m:b", src_ip="10.0.0.1", dst_ip="10.0.0.2",
            src_port=1, dst_port=2, size=1000, payload=n,
        )
    )


def far_end(sim, kind, delivered):
    """The far interface of the link and the delay its landing adds to
    the arrival; ``delivered`` collects ``(payload, time)`` as the far
    element handles each packet."""
    if kind == "sink":
        b = Interface("b", "m:b")

        class Sink:
            name = "sink"

            def receive(self, packet, iface):
                delivered.append((packet.payload, sim.now))

        b.owner = Sink()
        return b, 0.0
    if kind == "switch":
        switch = Switch(sim, "sw", forwarding_delay=SWITCH_DELAY)
        switch.flow_table.install(FlowRule(priority=1, actions=[ToController()]))
        switch.controller = lambda _sw, packet, _port: delivered.append(
            (packet.payload, sim.now)
        )
        return switch.add_port("b"), SWITCH_DELAY
    node = Node(sim, "far")
    b = node.add_interface(Interface("b", "m:b"))
    node.stack.packet_taps.append(lambda packet, _iface: delivered.append(
        (packet.payload, sim.now)
    ))
    return b, 0.0


def backlog(kind, count=10, seed=5):
    sim = Simulator()
    delivered = []
    a = Interface("a", "m:a")
    b, delay = far_end(sim, kind, delivered)
    link = Link(sim, a, b, bandwidth=BANDWIDTH, latency=LATENCY)
    injector = FaultInjector(sim, seed=seed)
    for n in range(count):
        send(a, n)
    return sim, link, injector, delivered, delay


def test_flap_drops_the_backlog_that_starts_while_down():
    """The injector is first installed by the flap itself, mid-backlog:
    packets already on the wire (started by 3.5 ms) arrive, those whose
    slot starts while the link is down are lost, the rest arrive."""
    for kind in FAR_ENDS:
        sim, link, injector, delivered, delay = backlog(kind)
        injector.flap_link(link, down_at=3.5 * MS, down_for=3 * MS)
        sim.run()
        assert [n for n, _ in delivered] == [0, 1, 2, 3, 7, 8, 9], kind
        assert link.faults.dropped == 3
        assert link.faults.passed == 3  # 0-3 left unjudged: no injector yet
        ends = slot_ends()
        assert [t for _, t in delivered] == [
            (ends[n] + LATENCY) + delay for n in (0, 1, 2, 3, 7, 8, 9)
        ], kind
        assert link.b.rx_packets == 7


def test_injector_installed_mid_transfer_judges_the_unstarted_slots():
    for kind in FAR_ENDS:
        sim, link, injector, delivered, _delay = backlog(kind)
        injector.at(3.5 * MS, injector.drop_next, link, 2)
        sim.run()
        assert [n for n, _ in delivered] == [0, 1, 2, 3, 6, 7, 8, 9], kind
        assert (link.faults.dropped, link.faults.drop_next_count) == (2, 0)


def test_mid_transfer_delays_are_drawn_in_start_order():
    for kind in FAR_ENDS:
        sim, link, injector, delivered, delay = backlog(kind, seed=11)
        injector.at(
            3.5 * MS, injector.lossy_link, link, 0.0, 0.0, 1.0, (0.5 * MS, 5 * MS)
        )
        sim.run()
        rng = SeededRNG(11, name="faults").child(f"link:{link.obs_name}")
        ends = slot_ends()
        expected = {n: (ends[n] + LATENCY) + delay for n in range(4)}
        for n in range(4, 10):
            assert rng.random() < 1.0  # judge()'s delay_prob draw
            expected[n] = (ends[n] + (LATENCY + rng.uniform(0.5 * MS, 5 * MS))) + delay
        assert dict(delivered) == expected, kind
        assert link.faults.delayed == 6


def test_injector_removed_mid_backlog_frees_the_rest():
    """Down before the first send, cleared at 4.5 ms: slots 0-4 start
    while down, slots 5-9 start with no injector and are not judged."""
    for kind in FAR_ENDS:
        sim, link, injector, delivered, _delay = backlog(kind, count=0)
        injector.link_down(link)
        faults = link.faults
        for n in range(10):
            send(link.a, n)
        injector.at(4.5 * MS, injector.clear_link, link)
        sim.run()
        assert [n for n, _ in delivered] == [5, 6, 7, 8, 9], kind
        assert (faults.dropped, faults.passed) == (5, 0)
        assert link.faults is None


def test_a_node_crashed_before_its_landing_drops_what_lands_meanwhile():
    """The NIC of a node the injector crashed has no owner: what lands
    while it is down is counted on the NIC and dropped, what lands after
    the restart is delivered.  Packet 0 lands at 3 ms, before the crash."""
    sim, link, injector, delivered, _delay = backlog("node")
    node = link.b.owner
    injector.at(3.5 * MS, injector.crash, node, 3 * MS)
    sim.run()
    assert [n for n, _ in delivered] == [0, 4, 5, 6, 7, 8, 9]
    ends = slot_ends()
    assert [t for _, t in delivered] == [ends[n] + LATENCY for n in (0, 4, 5, 6, 7, 8, 9)]
    assert (link.b.rx_packets, node.stack.dropped_packets) == (10, 7)
    assert not node.crashed


def test_a_port_removed_inside_the_switch_delay_still_forwards_what_arrived():
    """A frame that arrived on a port before ``remove_port`` finishes its
    pass: it is counted, forwarded at the pipeline's end, and the MAC it
    taught the switch is forgotten with the port."""
    sim = Simulator()
    switch = Switch(sim, "sw", forwarding_delay=SWITCH_DELAY)
    src = Interface("src", "m:src")
    link_in = Link(sim, src, switch.add_port("in"), bandwidth=1e9, latency=1e-5)
    out_port = switch.add_port("out")
    dst = Interface("dst", "m:dst")
    delivered = []

    class Sink:
        name = "sink"

        def receive(self, packet, iface):
            delivered.append((packet.payload, sim.now))

    dst.owner = Sink()
    Link(sim, out_port, dst, bandwidth=1e9, latency=1e-5)
    switch._mac_table["m:dst"] = "out"
    src.send(Packet(src_mac="m:src", dst_mac="m:dst", src_ip="10.0.0.1",
                    dst_ip="10.0.0.2", src_port=1, dst_port=2, size=1000, payload="p"))
    arrive = (0.0 + (1000 / 1e9 + 0.0)) + 1e-5

    def unplug():
        port = switch.remove_port("in")
        src.link = port.link = None

    sim.call_at(arrive + 1e-6, unplug)
    sim.run()
    passed = arrive + SWITCH_DELAY
    assert delivered == [("p", (passed + (1000 / 1e9 + 0.0)) + 1e-5)]
    assert switch.packets_switched == 1
    assert link_in.b.rx_packets == 1
    assert switch._mac_table == {"m:dst": "out"}
