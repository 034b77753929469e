"""Replication under injected failures: ejection on replica crash,
journal-driven rejoin/resync, read-failover accounting, and journal
compaction with an ejected replica holding the retention floor."""

import pytest

from repro.blockdev.disk import BLOCK_SIZE
from repro.core.policy import ServiceSpec
from repro.testbed import recovery_params

from tests.conftest import at_rest
from tests.faults.conftest import fault_env


@pytest.fixture
def env():
    yield from at_rest(fault_env(params=recovery_params(tcp_rto=0.02, iscsi_relogin_backoff=0.02)))


def make_env(env, n_replicas=1):
    """Replication middle-box with each replica volume on its *own*
    storage host, so replicas can be crashed independently.  Replica
    sessions use ``recover=False``: transport death must surface as
    :class:`SessionDead` so the service's eject/rejoin logic (not the
    session's own auto-relogin) is what gets exercised."""
    spec = ServiceSpec("rep", "replication", relay="active", placement="compute3")
    flow, (mb,) = env.attach([spec])
    mb_host = env.cloud.compute_hosts[mb.host_name]
    replicas = []

    def attach_replicas():
        for i in range(1, n_replicas + 1):
            host, volume = env.add_replica_target(f"rstorage{i}")
            session = yield env.sim.process(
                mb_host.initiator.connect(
                    host.storage_iface.ip, volume.iqn, recover=False
                )
            )
            state = mb.service.add_replica(session, f"rep{i}")
            replicas.append((host, volume, state))

    env.run(attach_replicas())
    return flow, mb, replicas


def _block(value):
    return bytes([value % 251 + 1]) * BLOCK_SIZE


def test_replica_rejoin_resyncs_from_journal(env):
    flow, mb, [(rhost, rvol, state)] = make_env(env)
    svc = mb.service

    def scenario():
        yield flow.session.write(0, BLOCK_SIZE, _block(0))
        yield env.sim.timeout(0.05)  # replica copy of write 1 lands
        env.injector.crash(rhost, restart_after=0.2)
        # writes issued while the replica is down: the first one turns
        # the dead session into an ejection
        for i in range(1, 5):
            yield flow.session.write(i * BLOCK_SIZE, BLOCK_SIZE, _block(i))
        yield env.sim.timeout(0.3)  # replica storage is back
        ok = yield env.sim.process(svc.rejoin(state))
        assert ok
        yield env.sim.timeout(0.05)

    env.run(scenario())
    assert svc.ejections == 1
    assert svc.resyncs == 1
    assert state.rejoins == 1
    assert state.alive
    # the rejoined replica caught up from the journal: byte-identical
    assert state.synced_seq == svc._write_seq
    for i in range(5):
        assert rvol.read_sync(i * BLOCK_SIZE, BLOCK_SIZE) == _block(i), (
            f"replica missing journaled write {i}"
        )
    assert env.events("replica.eject")
    assert env.events("replica.resync")
    assert env.events("replica.rejoin")


def test_monitor_auto_rejoins_ejected_replica(env):
    flow, mb, [(rhost, rvol, state)] = make_env(env)
    svc = mb.service

    def scenario():
        env.sim.process(svc.monitor(interval=0.1))
        yield flow.session.write(0, BLOCK_SIZE, _block(0))
        env.injector.crash(rhost, restart_after=0.2)
        yield flow.session.write(BLOCK_SIZE, BLOCK_SIZE, _block(1))
        # no manual rejoin: the monitor notices the ejection and brings
        # the replica back once its storage host restarts
        yield env.sim.timeout(1.0)

    env.run(scenario())
    assert state.alive
    assert state.rejoins == 1
    assert rvol.read_sync(BLOCK_SIZE, BLOCK_SIZE) == _block(1)


# -- satellite: _retry_read failover accounting ------------------------------


def test_read_failover_ejects_and_serves_from_survivor(env):
    flow, mb, replicas = make_env(env, n_replicas=2)
    svc = mb.service
    (rhost1, _rvol1, state1), (_rhost2, _rvol2, state2) = replicas

    def scenario():
        yield flow.session.write(0, BLOCK_SIZE, _block(7))
        yield env.sim.timeout(0.05)
        data = yield flow.session.read(0, BLOCK_SIZE)  # rotation 0: primary
        assert data == _block(7)
        env.injector.crash(rhost1)  # rep1 dies, never comes back
        # rotation 1 stripes to rep1 -> SessionDead -> failover
        data = yield flow.session.read(0, BLOCK_SIZE)
        assert data == _block(7)

    env.run(scenario())
    assert svc.failovers == 1
    assert svc.ejections == 1
    assert not state1.alive
    assert state2.alive
    assert state2.reads_served >= 1


def test_all_replicas_failed_read_falls_back_to_primary(env):
    flow, mb, replicas = make_env(env, n_replicas=2)
    svc = mb.service
    (rhost1, _v1, state1), (rhost2, _v2, state2) = replicas

    def scenario():
        yield flow.session.write(0, BLOCK_SIZE, _block(9))
        yield env.sim.timeout(0.05)
        env.injector.crash(rhost1)
        env.injector.crash(rhost2)
        data = yield flow.session.read(0, BLOCK_SIZE)  # rotation 0: primary
        assert data == _block(9)
        # rotation 1 -> rep1 dead -> retry -> rep2 dead -> primary
        data = yield flow.session.read(0, BLOCK_SIZE)
        assert data == _block(9)

    env.run(scenario())
    assert svc.ejections == 2
    assert not state1.alive and not state2.alive
    assert svc.failovers == 1
    assert svc.primary_reads == 2


# -- journal compaction -------------------------------------------------------


def test_compact_journal_keeps_ejected_replicas_floor(env):
    flow, mb, [(rhost, rvol, state)] = make_env(env)
    svc = mb.service

    def scenario():
        yield flow.session.write(0, BLOCK_SIZE, _block(0))
        yield env.sim.timeout(0.05)
        env.injector.crash(rhost, restart_after=0.2)
        for i in range(1, 4):
            yield flow.session.write(i * BLOCK_SIZE, BLOCK_SIZE, _block(i))
        yield env.sim.timeout(0.05)
        # ejected at synced_seq=1: compaction must retain seqs 2..4
        dropped = svc.compact_journal()
        assert dropped == 1
        assert [e[0] for e in svc.write_journal] == [2, 3, 4]
        yield env.sim.timeout(0.3)
        ok = yield env.sim.process(svc.rejoin(state))
        assert ok
        # everyone is synced now: the whole journal can go
        dropped = svc.compact_journal()
        assert dropped == 3
        assert svc.write_journal == []

    env.run(scenario())
    for i in range(4):
        assert rvol.read_sync(i * BLOCK_SIZE, BLOCK_SIZE) == _block(i)
