"""Link faults against a queued backlog.

A packet's verdict belongs to the instant its serialization starts, in
start order, whether or not an injector existed when it was handed to
the link.  Every scenario here gives the same drops, delivery order and
delivery times on the per-direction pump this model replaced: the
expectations are that pump's behaviour written out.
"""

from repro.faults import FaultInjector
from repro.net import Interface, Link, Packet
from repro.sim import Simulator
from repro.sim.rng import SeededRNG

MS = 1e-3
#: 1000 B at 1 MB/s: each packet holds the wire for exactly 1 ms, so
#: ten packets sent at t=0 start serializing at 0, 1, ..., 9 ms
BANDWIDTH = 1_000_000
LATENCY = 2 * MS


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


def backlog(count=10, seed=5):
    sim = Simulator()
    a, b = Interface("a", "m:a"), Interface("b", "m:b")
    delivered = []

    class Sink:
        name = "sink"

        def receive(self, packet, iface):
            delivered.append((packet.payload, sim.now))

    b.owner = Sink()
    link = Link(sim, a, b, bandwidth=BANDWIDTH, latency=LATENCY)
    injector = FaultInjector(sim, seed=seed)
    for n in range(count):
        send(a, n)
    return sim, link, injector, delivered


def test_flap_drops_the_backlog_that_starts_while_down():
    """The injector is first installed by the flap itself, mid-backlog:
    packets already on the wire (started by 3.5 ms) arrive, those whose
    slot starts while the link is down are lost, the rest arrive."""
    sim, link, injector, delivered = backlog()
    injector.flap_link(link, down_at=3.5 * MS, down_for=3 * MS)
    sim.run()
    assert [n for n, _ in delivered] == [0, 1, 2, 3, 7, 8, 9]
    assert link.faults.dropped == 3
    assert link.faults.passed == 3  # 0-3 left unjudged: no injector yet
    ends = slot_ends()
    assert [t for _, t in delivered] == [ends[n] + LATENCY for n in (0, 1, 2, 3, 7, 8, 9)]


def test_injector_installed_mid_transfer_judges_the_unstarted_slots():
    sim, link, injector, delivered = backlog()
    injector.at(3.5 * MS, injector.drop_next, link, 2)
    sim.run()
    assert [n for n, _ in delivered] == [0, 1, 2, 3, 6, 7, 8, 9]
    assert (link.faults.dropped, link.faults.drop_next_count) == (2, 0)


def test_mid_transfer_delays_are_drawn_in_start_order():
    sim, link, injector, delivered = backlog(seed=11)
    injector.at(
        3.5 * MS, injector.lossy_link, link, 0.0, 0.0, 1.0, (0.5 * MS, 5 * MS)
    )
    sim.run()
    rng = SeededRNG(11, name="faults").child("link:a<->b")
    ends = slot_ends()
    expected = {n: ends[n] + LATENCY for n in range(4)}
    for n in range(4, 10):
        assert rng.random() < 1.0  # judge()'s delay_prob draw
        expected[n] = ends[n] + (LATENCY + rng.uniform(0.5 * MS, 5 * MS))
    assert dict(delivered) == expected
    assert link.faults.delayed == 6


def test_injector_removed_mid_backlog_frees_the_rest():
    """Down before the first send, cleared at 4.5 ms: slots 0-4 start
    while down, slots 5-9 start with no injector and are not judged."""
    sim, link, injector, delivered = backlog(count=0)
    injector.link_down(link)
    faults = link.faults
    for n in range(10):
        send(link.a, n)
    injector.at(4.5 * MS, injector.clear_link, link)
    sim.run()
    assert [n for n, _ in delivered] == [5, 6, 7, 8, 9]
    assert (faults.dropped, faults.passed) == (5, 0)
    assert link.faults is None
