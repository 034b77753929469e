"""FaultInjector mechanics: seeding, scheduling, crash/restart wiring,
disk error hooks, and the event log."""

import pytest

from repro.blockdev import Disk, DiskIOError, VolumeGroup
from repro.faults import FaultInjector
from repro.net.packet import Packet
from repro.net.tcp import RESET, TcpListener, TcpSocket
from repro.obs import ObsBus, events_of
from repro.sim import Simulator

from tests.net.helpers import two_hosts_one_switch


def _dummy_packet(port=3260):
    return Packet(
        src_mac="",
        dst_mac="",
        src_ip="10.0.0.1",
        dst_ip="10.0.0.2",
        src_port=40000,
        dst_port=port,
        protocol="tcp",
        size=4096,
    )


def _decision_stream(seed, n=300):
    sim, _arp, _switch, a, _b = two_hosts_one_switch()
    injector = FaultInjector(sim, seed=seed)
    faults = injector.lossy_link(
        a.interfaces[0].link, drop=0.2, corrupt=0.05, delay_prob=0.1
    )
    packet = _dummy_packet()
    return [faults.judge(packet) for _ in range(n)]


def test_same_seed_same_decisions():
    assert _decision_stream(7) == _decision_stream(7)


def test_different_seed_different_decisions():
    assert _decision_stream(7) != _decision_stream(8)


def test_decisions_independent_of_injection_order():
    """Per-site child RNG streams: configuring link A before or after
    link B must not change either link's decision stream."""

    def streams(reverse):
        sim, _arp, _switch, a, b = two_hosts_one_switch()
        injector = FaultInjector(sim, seed=3)
        links = [a.interfaces[0].link, b.interfaces[0].link]
        if reverse:
            links = links[::-1]
        for link in links:
            injector.lossy_link(link, drop=0.3)
        packet = _dummy_packet()
        return {
            link.faults.name: [link.faults.judge(packet) for _ in range(100)]
            for link in links
        }

    assert streams(reverse=False) == streams(reverse=True)


def test_at_schedules_at_absolute_time():
    sim = Simulator()
    injector = FaultInjector(sim)
    fired = []
    injector.at(0.5, lambda: fired.append(sim.now))
    sim.run(until=1.0)
    assert fired == [0.5]


def test_at_rejects_the_past():
    sim = Simulator()
    injector = FaultInjector(sim)
    sim.run(until=sim.timeout(1.0))
    with pytest.raises(ValueError):
        injector.at(0.5, lambda: None)


def test_drop_next_is_deterministic():
    sim, _arp, _switch, a, b = two_hosts_one_switch()
    injector = FaultInjector(sim)
    link = a.interfaces[0].link
    injector.drop_next(link, count=2)
    TcpListener(sim, b.stack, "10.0.0.2", 3260)
    client = TcpSocket(sim, a.stack, "10.0.0.1", a.stack.allocate_port())
    client.connect("10.0.0.2", 3260)
    sim.run()
    # the SYN and its retransmit consume both drops; the next one connects
    assert link.faults.dropped == 2
    assert link.faults.drop_next_count == 0
    assert client.retransmits == 2
    assert client.state == "established"


def test_crash_resets_sockets_and_unplugs_interfaces():
    sim, _arp, _switch, a, b = two_hosts_one_switch()
    injector = FaultInjector(sim)
    listener = TcpListener(sim, b.stack, "10.0.0.2", 3260)
    client = TcpSocket(sim, a.stack, "10.0.0.1", a.stack.allocate_port())
    seen = []

    def server():
        sock = yield listener.accept()
        seen.append((yield sock.recv()))

    def scenario():
        yield client.connect("10.0.0.2", 3260)
        yield sim.timeout(0.01)  # let the server side finish the handshake
        injector.crash(b, restart_after=0.5)
        yield sim.timeout(0.1)
        assert client.state == "reset"  # fail-fast crash sent RST
        assert all(iface.link is None for iface in b.interfaces)
        assert b.crashed
        yield sim.timeout(1.0)
        assert not b.crashed  # restarted
        assert all(iface.link is not None for iface in b.interfaces)

    sim.process(server())
    sim.run(until=sim.process(scenario()))
    assert seen == [RESET]


def test_silent_crash_sends_no_rst():
    sim, _arp, _switch, a, b = two_hosts_one_switch()
    injector = FaultInjector(sim)
    listener = TcpListener(sim, b.stack, "10.0.0.2", 3260)
    client = TcpSocket(sim, a.stack, "10.0.0.1", a.stack.allocate_port())

    def server():
        yield listener.accept()

    def scenario():
        yield client.connect("10.0.0.2", 3260)
        yield sim.timeout(0.01)
        injector.crash(b, silent=True)
        yield sim.timeout(1.0)

    sim.process(server())
    sim.run(until=sim.process(scenario()))
    # the peer never finds out: no RST was emitted (power-loss semantics)
    assert client.state == "established"


def test_disk_error_probability_and_fail_next():
    sim = Simulator()
    disk = Disk(sim, "sda", capacity=1 << 20)
    group = VolumeGroup("vg", disk)
    volume = group.create_volume("v", 1 << 18)
    injector = FaultInjector(sim, seed=1)

    def io(op, offset):
        if op == "read":
            return (yield sim.process(volume.read(offset, 4096)))
        return (yield sim.process(volume.write(offset, 4096, b"z" * 4096)))

    def scenario():
        injector.fail_next_disk_io(disk, op="write", count=1)
        # a read sails through the write-only hook
        yield sim.process(io("read", 0))
        with pytest.raises(DiskIOError):
            yield sim.process(io("write", 0))
        # the hook self-cleared after the one failure
        assert disk.fault_hook is None
        yield sim.process(io("write", 0))
        # probabilistic errors: with p=1.0 every I/O fails
        injector.disk_errors(disk, read_error_prob=1.0)
        with pytest.raises(DiskIOError):
            yield sim.process(io("read", 0))
        injector.clear_disk(disk)
        yield sim.process(io("read", 0))

    sim.run(until=sim.process(scenario()))
    assert disk.stats.errors == 2


def test_fault_timeline_lands_on_the_bus():
    sim, _arp, _switch, a, b = two_hosts_one_switch()
    bus = ObsBus(sim)
    injector = FaultInjector(sim, seed=9, obs=bus)
    link = a.interfaces[0].link
    injector.lossy_link(link, drop=0.1)
    injector.flap_link(link, down_at=0.2, down_for=0.1)
    injector.crash(b, restart_after=0.4)
    sim.run(until=1.0)
    events = events_of(bus.records)
    assert [event["kind"] for event in events] == [
        "fault.lossy-link",
        "fault.crash",
        "fault.link-down",
        "fault.link-up",
        "fault.restart",
    ]
    assert events[1]["target"] == "host-b"
    assert [event["ts"] for event in events] == pytest.approx([0.0, 0.0, 0.2, 0.3, 0.4])
