"""iSCSI session recovery: re-login with bounded backoff, same source
port, and pending-command replay — instead of `_fail_all`."""

import pytest

from repro.cloud import CloudParams
from repro.iscsi.initiator import SessionDead

from tests.conftest import at_rest
from tests.faults.conftest import fault_env


@pytest.fixture
def env():
    # fast knobs so exhaustion tests stay quick
    yield from at_rest(fault_env(params=CloudParams(tcp_rto=0.02, iscsi_relogin_backoff=0.02)))


def _legacy_session(env):
    def attach():
        return (yield env.sim.process(env.cloud.attach_volume(env.vm, "vol1")))

    return env.run(attach())


def test_session_survives_target_crash(env):
    session = _legacy_session(env)
    port_before = session.socket.local_port

    def scenario():
        yield session.write(0, 4096, b"a" * 4096)
        env.injector.crash(env.storage, restart_after=0.3)
        done = session.write(4096, 4096, b"b" * 4096)  # queued while down
        yield done
        return (yield session.read(4096, 4096))

    data = env.run(scenario())
    assert data == b"b" * 4096
    assert session.alive
    assert session.relogins == 1
    assert session.commands_reissued >= 1
    # same source port: conntrack / steering rules keep matching
    assert session.socket.local_port == port_before
    # the acknowledged write really is durable on the volume
    assert env.volume.read_sync(4096, 4096) == b"b" * 4096


def test_session_survives_silent_target_crash(env):
    """Power-loss crash: no RST — the reliable transport must detect the
    black hole via retransmission exhaustion before recovery can start."""
    session = _legacy_session(env)

    def scenario():
        yield session.write(0, 4096, b"a" * 4096)
        env.injector.crash(env.storage, restart_after=0.5, silent=True)
        done = session.write(4096, 4096, b"c" * 4096)
        yield done

    env.run(scenario())
    assert session.alive
    assert session.relogins >= 1
    assert env.volume.read_sync(4096, 4096) == b"c" * 4096


def test_relogin_exhaustion_fails_pending_commands(env):
    session = _legacy_session(env)

    def scenario():
        env.injector.crash(env.storage)  # never restarts
        yield env.sim.timeout(0.001)
        done = session.write(0, 4096, b"x" * 4096)
        try:
            yield done
        except SessionDead:
            return "dead"
        return "alive"

    assert env.run(scenario()) == "dead"
    assert not session.alive


def test_recovery_time_is_bounded(env):
    """Backoff is exponential but bounded: with the target back after
    0.2s the session is serving I/O again well under a second later."""
    session = _legacy_session(env)

    def scenario():
        yield session.write(0, 4096, b"a" * 4096)
        start = env.sim.now
        env.injector.crash(env.storage, restart_after=0.2)
        yield session.write(4096, 4096, b"d" * 4096)
        return env.sim.now - start

    elapsed = env.run(scenario())
    assert elapsed < 1.5, f"recovery took {elapsed:.3f}s"


def test_closed_session_does_not_relogin(env):
    session = _legacy_session(env)

    def scenario():
        yield session.write(0, 4096, b"a" * 4096)
        session.close()
        env.injector.crash(env.storage, restart_after=0.1)
        yield env.sim.timeout(2.0)

    env.run(scenario())
    assert not session.alive
    assert session.relogins == 0
