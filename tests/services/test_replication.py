"""Replication middle-box: fan-out, striping, failover."""


from repro.blockdev.disk import BLOCK_SIZE
from repro.core.policy import ServiceSpec
from repro.testbed import Testbed


def make_env(n_replicas=2):
    """Primary vol1 via a replication MB, plus replica volumes attached
    to the middle-box (sessions from the MB's host initiator)."""
    env = Testbed()
    spec = ServiceSpec("rep", "replication", relay="active")
    flow, (mb,) = env.attach([spec])
    replicas = []

    def attach_replicas():
        host = env.cloud.compute_hosts[mb.host_name]
        for i in range(1, n_replicas + 1):
            name = f"replica{i}"
            volume = env.cloud.create_volume(env.tenant, name, 1024 * BLOCK_SIZE)
            session = yield env.sim.process(
                host.initiator.connect(env.storage.storage_iface.ip, volume.iqn)
            )
            state = mb.service.add_replica(session, name)
            replicas.append((volume, state))

    env.run(attach_replicas())
    return env, flow, mb, replicas


def test_writes_fan_out_to_all_replicas():
    env, flow, mb, replicas = make_env()
    payload = bytes([0x3C] * BLOCK_SIZE)

    def io():
        yield flow.session.write(0, BLOCK_SIZE, payload)

    env.run(io())
    env.sim.run()  # drain background replica writes
    assert env.volume.read_sync(0, BLOCK_SIZE) == payload
    for volume, state in replicas:
        assert volume.read_sync(0, BLOCK_SIZE) == payload
        assert state.writes_applied == 1


def test_write_order_preserved_across_replicas():
    env, flow, mb, replicas = make_env()

    def io():
        for value in (1, 2, 3, 4, 5):
            yield flow.session.write(0, BLOCK_SIZE, bytes([value] * BLOCK_SIZE))

    env.run(io())
    env.sim.run()
    # every copy converges to the last write
    assert env.volume.read_sync(0, 1 * BLOCK_SIZE)[0] == 5
    for volume, _state in replicas:
        assert volume.read_sync(0, BLOCK_SIZE)[0] == 5


def test_reads_stripe_across_copies():
    env, flow, mb, replicas = make_env()
    payload = bytes([7] * BLOCK_SIZE)
    reads = 9

    def io():
        yield flow.session.write(0, BLOCK_SIZE, payload)
        for _ in range(reads):
            data = yield flow.session.read(0, BLOCK_SIZE)
            assert data == payload

    env.run(io())
    served = [state.reads_served for _v, state in replicas]
    assert mb.service.primary_reads >= 1
    assert all(s >= 1 for s in served)
    assert mb.service.primary_reads + sum(served) == reads


def test_replica_failure_ejects_and_serves_from_survivors():
    env, flow, mb, replicas = make_env()
    payload = bytes([8] * BLOCK_SIZE)

    def phase1():
        yield flow.session.write(0, BLOCK_SIZE, payload)

    env.run(phase1())
    # kill replica 1's iSCSI connection (the paper's injected error)
    replicas[0][1].session.reset()

    def phase2():
        for _ in range(8):
            data = yield flow.session.read(0, BLOCK_SIZE)
            assert data == payload

    env.run(phase2())
    assert replicas[0][1].alive is False
    assert mb.service.replication_factor == 2  # primary + 1 surviving
    # subsequent writes skip the dead replica without error
    def phase3():
        yield flow.session.write(BLOCK_SIZE, BLOCK_SIZE, payload)

    env.run(phase3())
    env.sim.run()
    assert replicas[1][0].read_sync(BLOCK_SIZE, BLOCK_SIZE) == payload


def test_all_replicas_dead_falls_back_to_primary():
    env, flow, mb, replicas = make_env(n_replicas=1)
    payload = bytes([4] * BLOCK_SIZE)

    def phase1():
        yield flow.session.write(0, BLOCK_SIZE, payload)

    env.run(phase1())
    replicas[0][1].session.reset()

    def phase2():
        for _ in range(4):
            data = yield flow.session.read(0, BLOCK_SIZE)
            assert data == payload

    env.run(phase2())
    assert mb.service.replication_factor == 1


def test_striped_reads_aggregate_throughput():
    """With copies on independent disks, read latency drops — the
    mechanism behind the paper's 80% improvement claim."""
    def read_burst_time(n_replicas):
        env = Testbed()
        # put replicas on their own storage hosts (independent spindles)
        extra_hosts = [
            env.cloud.add_storage_host(f"storage{i}") for i in range(2, 2 + n_replicas)
        ]
        spec = ServiceSpec("rep", "replication", relay="active")
        flow, (mb,) = env.attach([spec])

        def setup():
            host = env.cloud.compute_hosts[mb.host_name]
            for i, storage_host in enumerate(extra_hosts):
                volume = env.cloud.create_volume(
                    env.tenant, f"rep{i}", 2048 * BLOCK_SIZE, storage_host=storage_host
                )
                session = yield env.sim.process(
                    host.initiator.connect(storage_host.storage_iface.ip, volume.iqn)
                )
                mb.service.add_replica(session, f"rep{i}")
            for i in range(16):
                yield flow.session.write(i * BLOCK_SIZE, BLOCK_SIZE, bytes(BLOCK_SIZE))

        env.run(setup())
        env.sim.run()
        start = env.sim.now
        done = {}

        def burst():
            # strided offsets: every access seeks, like the paper's OLTP
            # reads; enough of them to exceed one disk's queue depth
            events = [
                flow.session.read(((7 * i) % 16) * BLOCK_SIZE, BLOCK_SIZE)
                for i in range(96)
            ]
            for event in events:
                yield event
            done["t"] = env.sim.now - start

        env.run(burst())
        return done["t"]

    assert read_burst_time(2) < read_burst_time(0) * 0.7
