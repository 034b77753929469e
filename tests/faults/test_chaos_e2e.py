"""Acceptance chaos run: >=1% packet loss on the storage path, a
middle-box crash/restart, and a replica storage-host crash/restart —
all at once.  Invariants: no acknowledged write is ever lost, the
replica converges byte-identical to the primary, a filesystem on the
faulted path stays fsck-clean, and the whole run is bit-reproducible
(run-twice identical)."""


from repro.blockdev.disk import BLOCK_SIZE
from repro.cloud import CloudParams
from repro.core.policy import ServiceSpec
from repro.fs import ExtFilesystem, SessionDevice
from repro.fs.fsck import fsck

from tests.faults.conftest import fault_env


def _params():
    return CloudParams(tcp_rto=0.02, iscsi_relogin_backoff=0.02)


def _block(value):
    return bytes([value % 251 + 1]) * BLOCK_SIZE


def chaos_run(seed):
    """One full chaos scenario; returns a comparable snapshot."""
    env = fault_env(seed=seed, params=_params())
    spec = ServiceSpec("rep", "replication", relay="active", placement="compute3")
    flow, (mb,) = env.attach([spec])
    mb_host = env.cloud.compute_hosts[mb.host_name]
    rhost, rvol = env.add_replica_target("rstorage1")

    def setup():
        session = yield env.sim.process(
            mb_host.initiator.connect(rhost.storage_iface.ip, rvol.iqn)
        )
        # add_replica turns the session's re-login off, so a replica
        # crash ejects it and the monitor's rejoin resyncs it
        return mb.service.add_replica(session, "rep1")

    state = env.run(setup())
    env.sim.process(mb.service.monitor(interval=0.1))

    # the chaos: lossy storage path + two scheduled crash/restarts
    env.injector.lossy_link(env.storage.storage_iface.link, drop=0.02)
    env.injector.at(0.02, env.injector.crash, mb, 0.25)
    env.injector.at(0.35, env.injector.crash, rhost, 0.2)

    n_writes = 48
    acked = []

    def workload():
        for i in range(n_writes):
            yield flow.session.write(i * BLOCK_SIZE, BLOCK_SIZE, _block(i))
            acked.append(i)  # only reached once the write is acknowledged
            yield env.sim.timeout(0.01)
        # settle: wait (bounded) for the replica to rejoin and catch up
        deadline = env.sim.now + 5.0
        while env.sim.now < deadline:
            if state.alive and state.synced_seq == mb.service._write_seq:
                break
            yield env.sim.timeout(0.05)

    env.run(workload())
    snapshot = {
        "acked": list(acked),
        "primary": env.volume.read_sync(0, n_writes * BLOCK_SIZE),
        "replica": rvol.read_sync(0, n_writes * BLOCK_SIZE),
        "relogins": flow.session.relogins,
        "reconnects": mb.relay.reconnects,
        "replayed": mb.relay.pdus_replayed,
        "ejections": mb.service.ejections,
        "resyncs": mb.service.resyncs,
        "end": env.sim.now,
        "timeline": env.events(),
    }
    return env, flow, mb, state, snapshot


def test_chaos_no_acked_write_lost_and_replica_converges():
    env, flow, mb, state, snap = chaos_run(seed=11)
    # the faults actually fired and were recovered from
    assert snap["relogins"] >= 1, "middle-box crash never forced a relogin"
    assert snap["ejections"] >= 1, "replica crash never caused an ejection"
    assert snap["resyncs"] >= 1
    assert state.alive
    # zero lost acknowledged writes: every acked offset is durable
    assert snap["acked"] == list(range(48))
    for i in snap["acked"]:
        assert (
            env.volume.read_sync(i * BLOCK_SIZE, BLOCK_SIZE) == _block(i)
        ), f"acked write {i} lost"
    # the rejoined replica is byte-identical to the primary
    assert snap["replica"] == snap["primary"]


def test_chaos_run_twice_is_bit_identical():
    *_rest1, snap1 = chaos_run(seed=11)
    *_rest2, snap2 = chaos_run(seed=11)
    assert snap1 == snap2


def test_chaos_different_seed_differs():
    *_r1, snap1 = chaos_run(seed=11)
    *_r2, snap2 = chaos_run(seed=12)
    assert snap1["timeline"] != snap2["timeline"]


def test_filesystem_stays_fsck_clean_across_storage_crash():
    """A real filesystem over the faulted chain: the storage host dies
    mid-workload and restarts; journaled relay replay + session
    recovery keep the on-disk metadata consistent."""
    env = fault_env(params=_params())
    flow, (mb,) = env.attach(
        [ServiceSpec("svc", "noop", relay="active", placement="compute3")]
    )
    ExtFilesystem.mkfs(env.volume)
    device = SessionDevice(flow.session, env.volume.size // BLOCK_SIZE)
    fs = ExtFilesystem(env.sim, device)

    def scenario():
        yield from fs.mount()
        yield from fs.mkdir("/data")
        for i in range(6):
            yield from fs.write_file(f"/data/f{i}", bytes([i + 1]) * (2 * BLOCK_SIZE))
            if i == 2:
                env.injector.crash(env.storage, restart_after=0.2)
        yield from fs.flush()
        contents = []
        fs.drop_caches()
        for i in range(6):
            contents.append((yield from fs.read_file(f"/data/f{i}")))
        return contents

    contents = env.run(scenario())
    for i, data in enumerate(contents):
        assert data == bytes([i + 1]) * (2 * BLOCK_SIZE)
    report = fsck(env.volume)
    assert report.clean, f"fsck found problems: {report}"
