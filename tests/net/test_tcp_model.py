"""``repro.net.tcp`` against an independent sliding-window model.

The model is the textbook cumulative-ACK sender and in-order receiver:
``send_base`` (oldest unacknowledged byte) and ``next_seq`` (next new
byte), an ACK that only ever advances ``send_base`` (the window cannot
slide back), and a receiver that accepts only the next in-order byte.
It is replayed in lockstep on what one connection actually does under
seeded loss and reordering (a delayed packet overtaken by later ones),
with messages sent whole or streamed in drawn credits:

- every new data byte the sender emits lies inside the model's window
  and extends ``next_seq`` contiguously; a retransmission lies inside
  ``[send_base, next_seq)``;
- the sender's acknowledged byte count is the model's ``send_base``,
  and the receiver's in-order byte count is the model's;
- every message arrives once, whole and in order, and at quiescence
  both sides agree that every byte was acknowledged.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultInjector
from repro.net.tcp import TcpListener, TcpSocket

from tests.net.helpers import two_hosts_one_switch


class WindowModel:
    """A cumulative-ACK sliding window over one byte stream."""

    def __init__(self, window: int) -> None:
        self.window = window
        self.send_base = 0  # oldest unacknowledged byte
        self.next_seq = 0   # next byte never sent before
        self.expected = 0   # the receiver's next in-order byte

    def send(self, seq: int, length: int) -> None:
        if seq == self.next_seq:
            assert seq + length - self.send_base <= self.window, "window overrun"
            self.next_seq = seq + length
        else:
            assert self.send_base <= seq and seq + length <= self.next_seq, "bad retransmission"

    def ack(self, ack: int) -> None:
        assert ack <= self.next_seq, "ACK for bytes never sent"
        if ack > self.send_base:
            self.send_base = ack

    def receive(self, seq: int, length: int) -> None:
        if seq == self.expected:
            self.expected = seq + length


def run_connection(window, mss, plan, drop, delay, seed):
    """One client->server connection over a lossy, reordering link.

    ``plan`` holds ``(size, credits)`` per message: ``credits`` None
    sends it whole, otherwise it is streamed, credited in those
    increments one every 0.2 ms, and finished (which credits the rest,
    as the relay's last chunk does) 0.2 ms after the last.  Returns the
    model, both sockets and what the server received."""
    sim, _arp, _switch, a, b = two_hosts_one_switch()
    listener = TcpListener(sim, b.stack, "10.0.0.2", 3260, window=window, mss=mss,
                           rto=0.02, max_retransmits=40)
    client = TcpSocket(sim, a.stack, "10.0.0.1", a.stack.allocate_port(), window=window,
                       mss=mss, rto=0.02, max_retransmits=40)
    injector = FaultInjector(sim, seed=seed)
    injector.lossy_link(a.interfaces[0].link, drop=drop, delay_prob=delay,
                        delay_range=(0.0002, 0.003))
    model = WindowModel(window)
    server_side = {}

    def server_socket():
        if "socket" not in server_side:
            sockets = [s for s in b.stack._sockets.values() if s.local_port == 3260]
            if sockets:
                server_side["socket"] = sockets[0]
        return server_side.get("socket")

    def client_emits(send_ip):
        def hook(packet):
            segment = packet.payload
            assert client._acked_bytes == model.send_base
            if segment.kind == "data":
                model.send(segment.seq, segment.length)
            send_ip(packet)
        return hook

    def client_tap(packet, _iface):
        segment = packet.payload
        assert client._acked_bytes == model.send_base
        if segment.kind == "ack" and client.state == "established":
            model.ack(segment.ack)

    def server_tap(packet, _iface):
        segment = packet.payload
        socket = server_socket()
        if socket is not None:
            assert socket._rx_bytes == model.expected
        if segment.kind == "data":
            model.receive(segment.seq, segment.length)

    a.stack.send_ip = client_emits(a.stack.send_ip)
    a.stack.packet_taps.append(client_tap)
    b.stack.packet_taps.append(server_tap)
    received = []

    def server():
        socket = yield listener.accept()
        for _ in plan:
            received.append((yield socket.recv()))

    def streamer(handle, credits):
        for credit in credits:
            yield sim.timeout(0.0002)
            handle.credit(credit)
        handle.finish(("streamed", handle.total_size))

    def run_client():
        yield client.connect("10.0.0.2", 3260)
        for n, (size, credits) in enumerate(plan):
            if credits is None:
                client.send(("whole", n), size)
            else:
                handle = client.send_stream(size)
                sim.process(streamer(handle, credits))

    sim.process(server())
    sim.process(run_client())
    sim.run()
    return model, client, server_socket(), received


def credits_for(size):
    """Increments that leave some of ``size`` to :meth:`finish`: a
    stream's last byte goes out with its message object."""

    def below(parts):
        kept, total = [], 0
        for part in parts:
            if total + part >= size:
                break
            kept.append(part)
            total += part
        return kept

    return st.lists(st.integers(1, 9000), max_size=6).map(below)


message = st.integers(1, 24000).flatmap(
    lambda size: st.tuples(st.just(size), st.one_of(st.none(), credits_for(size)))
)


@settings(max_examples=60, deadline=None)
@given(
    window=st.sampled_from([4096, 8192, 12000, 65536]),
    mss=st.sampled_from([1000, 1460, 4096]),
    plan=st.lists(message, min_size=1, max_size=6),
    drop=st.sampled_from([0.0, 0.03, 0.08]),
    delay=st.sampled_from([0.0, 0.05, 0.2]),
    seed=st.integers(0, 2**16),
)
def test_tcp_follows_the_sliding_window_model(window, mss, plan, drop, delay, seed):
    model, client, server, received = run_connection(window, mss, plan, drop, delay, seed)
    total = sum(size for size, _credits in plan)
    expected = [
        (("whole", n) if credits is None else ("streamed", size), size)
        for n, (size, credits) in enumerate(plan)
    ]
    assert client.state == "established"
    assert received == expected
    assert model.next_seq == model.send_base == model.expected == total
    assert client._acked_bytes == client._sent_bytes == total
    assert server._rx_bytes == total
    assert not client._retx_queue
