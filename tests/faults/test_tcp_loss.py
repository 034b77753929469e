"""TCP under injected loss, plus the close() flush fix."""

import pytest

from repro.faults import FaultInjector
from repro.net.tcp import ConnectionReset, EOF, TcpListener, TcpSocket

from tests.net.helpers import two_hosts_one_switch


def build_pair(rto=0.02, max_retransmits=8, window=65536, mss=4096):
    sim, _arp, _switch, a, b = two_hosts_one_switch()
    listener = TcpListener(
        sim, b.stack, "10.0.0.2", 3260,
        window=window, mss=mss, rto=rto, max_retransmits=max_retransmits,
    )
    client = TcpSocket(
        sim, a.stack, "10.0.0.1", a.stack.allocate_port(),
        window=window, mss=mss, rto=rto, max_retransmits=max_retransmits,
    )
    return sim, a, b, listener, client


def _is_data(packet):
    return getattr(packet.payload, "kind", "") == "data"


def test_transfer_completes_under_random_loss():
    sim, a, b, listener, client = build_pair()
    injector = FaultInjector(sim, seed=5)
    injector.lossy_link(a.interfaces[0].link, drop=0.08)
    received = []

    def server():
        sock = yield listener.accept()
        for _ in range(30):
            received.append((yield sock.recv()))

    def run_client():
        yield client.connect("10.0.0.2", 3260)
        for n in range(30):
            client.send({"n": n}, 20_000)

    sim.process(server())
    sim.process(run_client())
    sim.run()
    assert [msg["n"] for msg, _size in received] == list(range(30))
    assert client.retransmits > 0  # loss actually happened and was repaired


def test_lossless_reliable_transfer_never_retransmits():
    sim, a, b, listener, client = build_pair()
    received = []

    def server():
        sock = yield listener.accept()
        received.append((yield sock.recv()))

    def run_client():
        yield client.connect("10.0.0.2", 3260)
        client.send("payload", 50_000)

    sim.process(server())
    sim.process(run_client())
    sim.run()
    assert received == [("payload", 50_000)]
    assert client.retransmits == 0


def test_fast_retransmit_beats_the_rto():
    # a huge RTO: if recovery relied on the timer the run would take >10s
    sim, a, b, listener, client = build_pair(rto=10.0)
    injector = FaultInjector(sim, seed=1)
    done = []

    def server():
        sock = yield listener.accept()
        message = yield sock.recv()
        done.append((sim.now, message))

    def run_client():
        yield client.connect("10.0.0.2", 3260)
        # drop exactly one client->server data segment; the 9 that
        # follow each provoke a duplicate ACK -> fast retransmit
        injector.lossy_link(a.interfaces[0].link, match=_is_data)
        injector.drop_next(a.interfaces[0].link, count=1)
        client.send("big", 40_000)

    sim.process(server())
    sim.process(run_client())
    sim.run()
    assert [message for _when, message in done] == [("big", 40_000)]
    assert client.retransmits > 0
    # delivered long before the 10s RTO could have fired
    assert done[0][0] < 1.0, "recovery waited for the RTO instead of dup-ACKs"


def test_black_hole_resets_after_max_retransmits():
    sim, a, b, listener, client = build_pair(rto=0.01, max_retransmits=4)
    injector = FaultInjector(sim, seed=2)

    def server():
        yield listener.accept()

    def run_client():
        yield client.connect("10.0.0.2", 3260)
        injector.link_down(a.interfaces[0].link)
        client.send("void", 8_000)

    sim.process(server())
    sim.process(run_client())
    sim.run()
    assert client.state == "reset"
    assert client.retransmits >= 4


def test_syn_retransmission_survives_handshake_loss():
    sim, a, b, listener, client = build_pair(rto=0.01)
    injector = FaultInjector(sim, seed=3)
    states = {}

    def server():
        sock = yield listener.accept()
        states["server"] = sock.state

    def run_client():
        injector.drop_next(a.interfaces[0].link, count=1)  # eat the SYN
        yield client.connect("10.0.0.2", 3260)
        states["client"] = client.state

    sim.process(server())
    sim.process(run_client())
    sim.run()
    assert states == {"server": "established", "client": "established"}
    assert client.retransmits >= 0  # SYN retx is not counted as data retx


# -- satellite: close() must not abandon queued/unACKed data -----------------


def test_close_flushes_queued_data_before_fin():
    sim, a, b, listener, client = build_pair()
    received = []

    def server():
        sock = yield listener.accept()
        received.append((yield sock.recv()))
        received.append((yield sock.recv()))

    def run_client():
        yield client.connect("10.0.0.2", 3260)
        client.send("last-words", 120_000)  # several windows worth
        client.close()  # immediately: FIN must sequence after the data

    sim.process(server())
    sim.process(run_client())
    sim.run()
    assert received[0] == ("last-words", 120_000)
    assert received[1] is EOF
    assert client.state == "closed"


def test_send_after_close_raises():
    sim, a, b, listener, client = build_pair()

    def server():
        sock = yield listener.accept()
        while True:
            got = yield sock.recv()
            if got is EOF:
                return

    def run_client():
        yield client.connect("10.0.0.2", 3260)
        client.send("x", 50_000)
        client.close()
        with pytest.raises(ConnectionReset):
            client.send("y", 10)

    sim.process(server())
    sim.process(run_client())
    sim.run()


def test_close_with_nothing_queued_is_immediate():
    sim, a, b, listener, client = build_pair()
    order = []

    def server():
        sock = yield listener.accept()
        order.append((yield sock.recv()))
        got = yield sock.recv()
        order.append(got)

    def run_client():
        yield client.connect("10.0.0.2", 3260)
        client.send("m", 1_000)
        yield sim.timeout(0.5)  # everything long since ACKed
        client.close()
        assert client.state == "closed"  # synchronous, as before

    sim.process(server())
    sim.process(run_client())
    sim.run()
    assert order == [("m", 1_000), EOF]
