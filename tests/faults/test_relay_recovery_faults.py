"""ActiveRelay recovery driven by the fault injector: storage-host
crashes (downstream `_recover` + NVM replay) and middle-box
crash/restart (session re-login through the relay + stale-NVM replay)."""

import pytest

from repro.testbed import recovery_params

from tests.conftest import at_rest
from tests.faults.conftest import fault_env


@pytest.fixture
def env():
    yield from at_rest(fault_env(params=recovery_params(tcp_rto=0.02, iscsi_relogin_backoff=0.02)))


def _attach_active(env, kind="noop", **options):
    flow, (mb,) = env.attach(
        [env.spec(name="svc", kind=kind, relay="active", placement="compute3", **options)]
    )
    return flow, mb


def _write_burst(env, session, n, start_block=0):
    events = []
    for i in range(n):
        block = start_block + i
        events.append(session.write(block * 4096, 4096, bytes([block % 251 + 1]) * 4096))
    return events


def _verify_blocks(env, n, start_block=0):
    for i in range(n):
        block = start_block + i
        assert env.volume.read_sync(block * 4096, 4096) == bytes([block % 251 + 1]) * 4096, (
            f"block {block} lost or corrupted"
        )


def test_storage_crash_mid_burst_relay_recovers(env):
    flow, mb = _attach_active(env)
    session = flow.session

    def scenario():
        events = _write_burst(env, session, 10)
        yield env.sim.timeout(0.001)  # a few writes in flight
        env.injector.crash(env.storage, restart_after=0.2)
        for event in events:
            yield event

    env.run(scenario())
    pair = mb.relay.pairs[-1]
    assert pair.reconnects >= 1
    assert mb.relay.pdus_replayed > 0
    _verify_blocks(env, 10)
    # the recovery timeline was recorded
    assert env.events("relay.recovered")


def test_repeated_storage_crash(env):
    flow, mb = _attach_active(env)
    session = flow.session

    def scenario():
        events = _write_burst(env, session, 8)
        yield env.sim.timeout(0.001)
        env.injector.crash(env.storage, restart_after=0.15)
        for event in events:
            yield event
        events = _write_burst(env, session, 8, start_block=8)
        yield env.sim.timeout(0.001)
        env.injector.crash(env.storage, restart_after=0.15)
        for event in events:
            yield event

    env.run(scenario())
    _verify_blocks(env, 16)
    assert len(env.events("relay.recovered")) >= 2


def test_relay_gives_up_after_max_reconnects(env):
    flow, mb = _attach_active(env)
    mb.relay.max_reconnects = 2
    mb.relay.reconnect_delay = 0.02
    session = flow.session

    def scenario():
        yield session.write(0, 4096, b"a" * 4096)
        env.injector.crash(env.storage)  # never restarts
        done = session.write(4096, 4096, b"b" * 4096)
        # the VM-side session eventually gets torn down and (after its
        # own relogin attempts also fail) the write fails
        try:
            yield done
        except Exception:
            pass
        yield env.sim.timeout(5.0)

    env.run(scenario())
    assert env.events("relay.gave-up")


def test_middlebox_crash_restart_resumes_flow(env):
    flow, mb = _attach_active(env)
    session = flow.session

    def scenario():
        yield session.write(0, 4096, bytes([1]) * 4096)
        env.injector.crash(mb, restart_after=0.2)
        done = session.write(4096, 4096, bytes([2]) * 4096)
        yield done
        return (yield session.read(4096, 4096))

    data = env.run(scenario())
    assert data == bytes([2]) * 4096
    assert session.relogins >= 1
    assert env.volume.read_sync(0, 4096) == bytes([1]) * 4096
    assert env.volume.read_sync(4096, 4096) == bytes([2]) * 4096


def test_middlebox_crash_mid_burst_loses_no_acked_write(env):
    flow, mb = _attach_active(env)
    session = flow.session

    def scenario():
        events = _write_burst(env, session, 10)
        yield env.sim.timeout(0.001)
        env.injector.crash(mb, restart_after=0.2)
        for event in events:
            yield event

    env.run(scenario())
    assert session.relogins >= 1
    _verify_blocks(env, 10)


def test_middlebox_repeated_crash(env):
    flow, mb = _attach_active(env)
    session = flow.session

    def scenario():
        events = _write_burst(env, session, 6)
        yield env.sim.timeout(0.001)
        env.injector.crash(mb, restart_after=0.15)
        for event in events:
            yield event
        events = _write_burst(env, session, 6, start_block=6)
        yield env.sim.timeout(0.001)
        env.injector.crash(mb, restart_after=0.15)
        for event in events:
            yield event

    env.run(scenario())
    assert session.relogins >= 2
    _verify_blocks(env, 12)


def test_encryption_chain_survives_storage_crash(env):
    """Recovery composes with a transforming service: data on disk is
    ciphertext, reads decrypt correctly across a crash."""
    flow, mb = _attach_active(env, kind="encryption", algorithm="stream")
    session = flow.session

    def scenario():
        events = _write_burst(env, session, 8)
        yield env.sim.timeout(0.001)
        env.injector.crash(env.storage, restart_after=0.2)
        for event in events:
            yield event
        out = []
        for i in range(8):
            out.append((yield session.read(i * 4096, 4096)))
        return out

    plaintexts = env.run(scenario())
    for i, data in enumerate(plaintexts):
        assert data == bytes([i % 251 + 1]) * 4096
    # on-disk bytes are ciphertext, not the plaintext we wrote
    assert env.volume.read_sync(0, 4096) != bytes([1]) * 4096
