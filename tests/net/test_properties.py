"""Property-based tests on the network layer."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import NatRule, NatTable, Packet, TcpListener, TcpSocket
from repro.net.packet import FiveTuple

from tests.net.helpers import two_hosts_one_switch


ips = st.sampled_from([f"10.0.0.{i}" for i in range(1, 6)])
ports = st.integers(min_value=1, max_value=65535)


@settings(max_examples=40, deadline=None)
@given(ips, ports, ips, ports)
def test_five_tuple_reversal_is_involution(src_ip, src_port, dst_ip, dst_port):
    tuple_ = FiveTuple("tcp", src_ip, src_port, dst_ip, dst_port)
    assert tuple_.reversed().reversed() == tuple_


@settings(max_examples=40, deadline=None)
@given(ips, ports, ips, ports, ips, ports)
def test_nat_forward_then_reply_restores_original(
    src_ip, src_port, dst_ip, dst_port, nat_ip, nat_port
):
    """conntrack invariant: reply translation inverts the forward one."""
    table = NatTable()
    table.install(
        NatRule(match_dst_ip=dst_ip, snat_ip=nat_ip, dnat_ip=nat_ip, dnat_port=nat_port)
    )
    forward = Packet(
        src_mac="", dst_mac="", src_ip=src_ip, dst_ip=dst_ip,
        src_port=src_port, dst_port=dst_port,
    )
    original = forward.five_tuple
    if not table.translate(forward):
        return
    reply = Packet(
        src_mac="", dst_mac="",
        src_ip=forward.dst_ip, dst_ip=forward.src_ip,
        src_port=forward.dst_port, dst_port=forward.src_port,
    )
    assert table.translate(reply)
    assert reply.five_tuple == original.reversed()


@settings(max_examples=15, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=60_000), min_size=1, max_size=8),
    st.sampled_from([2048, 4096, 8192]),
    st.sampled_from([8192, 32768, 131072]),
)
def test_tcp_delivers_all_messages_any_size_mix(sizes, mss, window):
    """TCP invariant: every message arrives, in order, intact, for any
    mix of message sizes, MSS, and window."""
    sim, _arp, _switch, a, b = two_hosts_one_switch()
    listener = TcpListener(sim, b.stack, "10.0.0.2", 9000, mss=mss, window=window)
    client = TcpSocket(sim, a.stack, "10.0.0.1", a.stack.allocate_port(), mss=mss, window=window)
    received = []

    def server():
        sock = yield listener.accept()
        for _ in sizes:
            message, size = yield sock.recv()
            received.append((message, size))

    def run_client():
        yield client.connect("10.0.0.2", 9000)
        for index, size in enumerate(sizes):
            client.send(("msg", index), size)

    sim.process(server())
    sim.process(run_client())
    sim.run()
    assert received == [(("msg", i), s) for i, s in enumerate(sizes)]
    assert client.bytes_sent == sum(sizes)


@settings(max_examples=10, deadline=None)
@given(st.lists(st.integers(min_value=100, max_value=20_000), min_size=1, max_size=5))
def test_tcp_streamed_send_equals_plain_send(sizes):
    """A message pushed through send_stream arrives exactly like send."""
    sim, _arp, _switch, a, b = two_hosts_one_switch()
    listener = TcpListener(sim, b.stack, "10.0.0.2", 9000)
    client = TcpSocket(sim, a.stack, "10.0.0.1", a.stack.allocate_port())
    received = []

    def server():
        sock = yield listener.accept()
        for _ in sizes:
            message, size = yield sock.recv()
            received.append((message, size))

    def run_client():
        yield client.connect("10.0.0.2", 9000)
        for index, size in enumerate(sizes):
            handle = client.send_stream(size)
            # drip-feed credit in 1 KB steps, then finish
            credited = 0
            while credited + 1024 < size:
                handle.credit(1024)
                credited += 1024
                yield sim.timeout(0.0001)
            handle.finish(("streamed", index))

    sim.process(server())
    sim.process(run_client())
    sim.run()
    assert received == [(("streamed", i), s) for i, s in enumerate(sizes)]


def test_flow_rule_wildcard_semantics():
    from repro.net import FlowRule

    rule = FlowRule(priority=1, dst_port=3260)
    packet = Packet(
        src_mac="a", dst_mac="b", src_ip="1.1.1.1", dst_ip="2.2.2.2",
        src_port=99, dst_port=3260,
    )
    assert rule.matches(packet, in_port="any-port")
    packet.dst_port = 80
    assert not rule.matches(packet, in_port="any-port")


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=1, max_value=10))
def test_packet_copy_is_independent(seed, hops):
    packet = Packet(
        src_mac="m1", dst_mac="m2", src_ip="1.1.1.1", dst_ip="2.2.2.2",
        src_port=1, dst_port=2, size=seed % 9000 + 66,
    )
    for hop in range(hops):
        packet.record_hop(f"hop{hop}")
    clone = packet.copy()
    assert clone.trace == packet.trace
    clone.record_hop("extra")
    assert len(clone.trace) == len(packet.trace) + 1
