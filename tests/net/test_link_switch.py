"""Tests for links, switches, flow tables, and steering actions."""

from repro.net import FlowRule, Interface, Link, ModDstMac, Output, Packet, Switch
from repro.net.switch import Drop, Normal
from repro.sim import Simulator

from tests.net.helpers import two_hosts_one_switch


def drain(sim, horizon=1.0):
    sim.run(until=horizon)


def raw_packet(src_mac, dst_mac, size=1000, **kw):
    defaults = dict(src_ip="10.0.0.1", dst_ip="10.0.0.2", src_port=1, dst_port=2)
    defaults.update(kw)
    return Packet(src_mac=src_mac, dst_mac=dst_mac, size=size, **defaults)


class SinkNode:
    """Minimal receiver that records delivered packets."""

    def __init__(self, name):
        self.name = name
        self.received = []

    def receive(self, packet, iface):
        self.received.append((packet, iface))


def wire(sim, a_iface, b_iface, **kw):
    return Link(sim, a_iface, b_iface, **kw)


def test_link_delivers_with_serialization_and_latency():
    sim = Simulator()
    a, b = Interface("a", "m:a"), Interface("b", "m:b")
    sink = SinkNode("sink")
    b.owner = sink
    wire(sim, a, b, bandwidth=1_000_000, latency=0.01)  # 1 MB/s
    a.send(raw_packet("m:a", "m:b", size=1000))
    sim.run()
    assert len(sink.received) == 1
    # 1000B at 1MB/s = 1ms serialize + 10ms latency
    assert abs(sim.now - 0.011) < 1e-9


def test_link_serializes_back_to_back_packets():
    sim = Simulator()
    a, b = Interface("a", "m:a"), Interface("b", "m:b")
    times = []

    class TimedSink:
        name = "sink"

        def receive(self, packet, iface):
            times.append(sim.now)

    b.owner = TimedSink()
    wire(sim, a, b, bandwidth=1_000_000, latency=0.0)
    for _ in range(3):
        a.send(raw_packet("m:a", "m:b", size=1000))
    sim.run()
    assert times == [0.001, 0.002, 0.003]


def test_interface_counters():
    sim = Simulator()
    a, b = Interface("a", "m:a"), Interface("b", "m:b")
    b.owner = SinkNode("sink")
    wire(sim, a, b)
    a.send(raw_packet("m:a", "m:b", size=500))
    sim.run()
    assert (a.tx_packets, a.tx_bytes) == (1, 500)
    assert (b.rx_packets, b.rx_bytes) == (1, 500)


def test_switch_learns_and_forwards():
    sim, _arp, switch, a, b = two_hosts_one_switch()
    seen = []
    b.stack.packet_taps.append(lambda p, i: seen.append(p))
    # a floods first (unknown mac), b replies unicast
    pkt = raw_packet("aa:00:00:00:00:01", "aa:00:00:00:00:02")
    a.interfaces[0].send(pkt)
    sim.run()
    assert len(seen) == 1
    assert switch._mac_table["aa:00:00:00:00:01"] == "host-a"


def test_switch_flood_does_not_reflect_to_ingress():
    sim, _arp, switch, a, b = two_hosts_one_switch()
    a_seen, b_seen = [], []
    a.stack.packet_taps.append(lambda p, i: a_seen.append(p))
    b.stack.packet_taps.append(lambda p, i: b_seen.append(p))
    a.interfaces[0].send(raw_packet("aa:00:00:00:00:01", "ff:ff:ff:ff:ff:ff"))
    sim.run()
    assert len(b_seen) == 1 and len(a_seen) == 0


def test_flow_rule_output_overrides_l2():
    sim = Simulator()
    switch = Switch(sim, "sw")
    sinks, hosts = {}, {}
    for name, mac in [("p1", "m:1"), ("p2", "m:2"), ("p3", "m:3")]:
        port = switch.add_port(name)
        sink_iface = Interface(f"{name}.host", mac)
        sink = SinkNode(f"sink-{name}")
        sink_iface.owner = sink
        Link(sim, port, sink_iface)
        sinks[name], hosts[name] = sink, sink_iface
    rule = FlowRule(priority=10, dst_port=3260, actions=[Output("p3")])
    switch.flow_table.install(rule)
    # inject a packet into the switch via port p1
    pkt = raw_packet("m:1", "m:2", dst_port=3260)
    hosts["p1"].send(pkt)
    sim.run()
    assert len(sinks["p3"].received) == 1
    assert len(sinks["p2"].received) == 0
    assert rule.hits == 1


def test_flow_rule_priority_order():
    sim = Simulator()
    switch = Switch(sim, "sw")
    low = FlowRule(priority=1, actions=[Drop()])
    high = FlowRule(priority=5, dst_port=3260, actions=[Drop()])
    switch.flow_table.install(low)
    switch.flow_table.install(high)
    assert switch.flow_table.rules[0] is high


def test_mod_dst_mac_steering():
    """The Fig. 3 primitive: rewrite dst MAC, then L2-forward to the MB."""
    sim = Simulator()
    switch = Switch(sim, "sw")
    mb_port = switch.add_port("mb")
    gw_port = switch.add_port("gw")
    in_port = switch.add_port("in")
    mb_iface = Interface("mb.eth0", "m:mb")
    gw_iface = Interface("gw.eth0", "m:gw")
    mb_sink, gw_sink = SinkNode("mb"), SinkNode("gw")
    mb_iface.owner, gw_iface.owner = mb_sink, gw_sink
    Link(sim, mb_port, mb_iface)
    Link(sim, gw_port, gw_iface)
    # prime MAC learning
    switch._mac_table.update({"m:mb": "mb", "m:gw": "gw"})
    switch.flow_table.install(
        FlowRule(priority=10, dst_mac="m:gw", dst_port=3260, actions=[ModDstMac("m:mb")])
    )
    pkt = raw_packet("m:src", "m:gw", dst_port=3260)
    src_iface = Interface("src.eth0", "m:src")
    Link(sim, src_iface, in_port)
    src_iface.send(pkt)
    sim.run()
    assert len(mb_sink.received) == 1 and len(gw_sink.received) == 0
    assert mb_sink.received[0][0].dst_mac == "m:mb"


def test_normal_action_falls_back_to_l2():
    sim, _arp, switch, a, b = two_hosts_one_switch()
    b_seen = []
    b.stack.packet_taps.append(lambda p, i: b_seen.append(p))
    switch.flow_table.install(FlowRule(priority=10, actions=[Normal()]))
    a.interfaces[0].send(raw_packet("aa:00:00:00:00:01", "aa:00:00:00:00:02"))
    sim.run()
    assert len(b_seen) == 1


def test_remove_by_cookie():
    sim = Simulator()
    switch = Switch(sim, "sw")
    switch.flow_table.install(FlowRule(priority=1, cookie="chain-1", actions=[Drop()]))
    switch.flow_table.install(FlowRule(priority=2, cookie="chain-1", actions=[Drop()]))
    switch.flow_table.install(FlowRule(priority=3, cookie="chain-2", actions=[Drop()]))
    assert switch.flow_table.remove_by_cookie("chain-1") == 2
    assert len(switch.flow_table) == 1


def test_packet_trace_records_hops():
    sim, _arp, switch, a, b = two_hosts_one_switch()
    received = []
    b.stack.packet_taps.append(lambda p, i: received.append(p))
    pkt = raw_packet("aa:00:00:00:00:01", "aa:00:00:00:00:02")
    a.interfaces[0].send(pkt)
    sim.run()
    assert received[0].trace == ["sw", "host-b"]
