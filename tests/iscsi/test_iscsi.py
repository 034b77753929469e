"""End-to-end iSCSI over the simulated network."""

import pytest

from repro.blockdev import Disk, VolumeGroup
from repro.blockdev.disk import BLOCK_SIZE
from repro.iscsi import IscsiInitiator, IscsiTarget, SessionDead, volume_iqn
from repro.iscsi.initiator import LoginFailed

from tests.net.helpers import two_hosts_one_switch


def build_fabric(volume_size=64 * BLOCK_SIZE):
    """compute host (10.0.0.1) and storage host (10.0.0.2) on one switch."""
    sim, _arp, _switch, compute, storage = two_hosts_one_switch()
    disk = Disk(sim, "sda", capacity=4096 * BLOCK_SIZE)
    group = VolumeGroup("vg0", disk)
    volume = group.create_volume("vol1", volume_size)
    target = IscsiTarget(sim, storage.stack, "10.0.0.2")
    target.export(volume)
    initiator = IscsiInitiator(sim, compute.stack, "10.0.0.1")
    return sim, initiator, target, volume


def test_login_and_write_read_roundtrip():
    sim, initiator, target, volume = build_fabric()
    payload = bytes([7] * BLOCK_SIZE)
    result = {}

    def client():
        session = yield sim.process(initiator.connect("10.0.0.2", volume_iqn("vol1")))
        yield session.write(0, BLOCK_SIZE, payload)
        data = yield session.read(0, BLOCK_SIZE)
        result["data"] = data

    sim.process(client())
    sim.run()
    assert result["data"] == payload
    assert volume.read_sync(0, BLOCK_SIZE) == payload


def test_login_unknown_iqn_fails():
    sim, initiator, target, volume = build_fabric()
    outcome = {}

    def client():
        try:
            yield sim.process(initiator.connect("10.0.0.2", "iqn.bogus:none"))
        except LoginFailed as exc:
            outcome["error"] = str(exc)

    sim.process(client())
    sim.run()
    assert "failed" in outcome["error"]


def test_login_hook_exposes_iqn_and_port():
    """The paper's modified Login Session code path."""
    sim, initiator, target, volume = build_fabric()
    initiator_records, target_records = [], []
    initiator.login_hooks.append(lambda iqn, port: initiator_records.append((iqn, port)))
    target.login_hooks.append(
        lambda i_iqn, t_iqn, ip, port: target_records.append((t_iqn, ip, port))
    )

    def client():
        yield sim.process(initiator.connect("10.0.0.2", volume_iqn("vol1")))

    sim.process(client())
    sim.run()
    assert len(initiator_records) == 1
    iqn, port = initiator_records[0]
    assert iqn == volume_iqn("vol1") and port >= 49152
    assert target_records == [(volume_iqn("vol1"), "10.0.0.1", port)]


def test_concurrent_commands_all_complete():
    sim, initiator, target, volume = build_fabric()
    completions = []

    def client():
        session = yield sim.process(initiator.connect("10.0.0.2", volume_iqn("vol1")))
        events = [session.write(i * BLOCK_SIZE, BLOCK_SIZE) for i in range(8)]
        for event in events:
            yield event
            completions.append(sim.now)

    sim.process(client())
    sim.run()
    assert len(completions) == 8
    assert target.commands_served == 8


def test_large_write_is_slower_than_small():
    sim, initiator, target, volume = build_fabric(volume_size=1024 * BLOCK_SIZE)
    timings = {}

    def client():
        session = yield sim.process(initiator.connect("10.0.0.2", volume_iqn("vol1")))
        start = sim.now
        yield session.write(0, BLOCK_SIZE)
        timings["small"] = sim.now - start
        start = sim.now
        yield session.write(0, 64 * BLOCK_SIZE)
        timings["large"] = sim.now - start

    sim.process(client())
    sim.run()
    assert timings["large"] > timings["small"] * 3


def test_read_of_unwritten_space_returns_zeros():
    sim, initiator, target, volume = build_fabric()
    result = {}

    def client():
        session = yield sim.process(initiator.connect("10.0.0.2", volume_iqn("vol1")))
        result["data"] = yield session.read(0, 2 * BLOCK_SIZE)

    sim.process(client())
    sim.run()
    assert result["data"] == bytes(2 * BLOCK_SIZE)


def test_session_reset_fails_pending_io():
    """With the target down a reset session cannot re-login: its
    pending I/O fails once every re-login attempt has timed out."""
    sim, initiator, target, volume = build_fabric()
    outcome = {}

    def client():
        session = yield sim.process(initiator.connect("10.0.0.2", volume_iqn("vol1")))
        event = session.write(0, 32 * BLOCK_SIZE)
        target.listener.shutdown()
        reset_at = sim.now
        session.reset()
        try:
            yield event
        except SessionDead:
            outcome["failed"] = True
        backoffs = sum(
            session.relogin_backoff * 2**k for k in range(session.max_relogins)
        )
        assert sim.now - reset_at == pytest.approx(
            backoffs + session.max_relogins * session.login_timeout
        )
        assert session.relogins == 0
        assert not session.alive
        with pytest.raises(SessionDead):
            session.write(0, BLOCK_SIZE)
        outcome["post-check"] = True

    sim.process(client())
    sim.run()
    assert outcome == {"failed": True, "post-check": True}


def test_two_sessions_two_volumes_isolated():
    sim, _arp, _switch, compute, storage = two_hosts_one_switch()
    disk = Disk(sim, "sda", capacity=4096 * BLOCK_SIZE)
    group = VolumeGroup("vg0", disk)
    vol_a = group.create_volume("vol-a", 64 * BLOCK_SIZE)
    vol_b = group.create_volume("vol-b", 64 * BLOCK_SIZE)
    target = IscsiTarget(sim, storage.stack, "10.0.0.2")
    target.export(vol_a)
    target.export(vol_b)
    initiator = IscsiInitiator(sim, compute.stack, "10.0.0.1")
    result = {}

    def client():
        sess_a = yield sim.process(initiator.connect("10.0.0.2", volume_iqn("vol-a")))
        sess_b = yield sim.process(initiator.connect("10.0.0.2", volume_iqn("vol-b")))
        yield sess_a.write(0, BLOCK_SIZE, b"\xaa" * BLOCK_SIZE)
        yield sess_b.write(0, BLOCK_SIZE, b"\xbb" * BLOCK_SIZE)
        result["a"] = yield sess_a.read(0, BLOCK_SIZE)
        result["b"] = yield sess_b.read(0, BLOCK_SIZE)

    sim.process(client())
    sim.run()
    assert result["a"] == b"\xaa" * BLOCK_SIZE
    assert result["b"] == b"\xbb" * BLOCK_SIZE
    # distinct TCP connections → distinct source ports (attribution input)
    assert initiator.sessions[0].local_port != initiator.sessions[1].local_port
