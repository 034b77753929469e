"""Chaos engineering on a tenant-defined storage chain.

Fio hammers a volume attached through a monitor -> encryption ->
replication middle-box chain while the seeded fault injector does its
worst: the storage link flaps, the replica's storage host is killed
(and later restarted), and the encryption middle-box crashes and
reboots mid-workload.  Reliable transport, iSCSI session re-login,
the active relay's NVM replay, and the replication service's
journal-driven rejoin absorb every fault — no acknowledged write is
lost, the replica converges byte-identical (ciphertext!), and the
whole recovery timeline is printed from the shared ``EventLog``.

Run:  python examples/chaos_storage.py
"""

from repro.blockdev.disk import BLOCK_SIZE
from repro.cloud import CloudController
from repro.cloud.params import CloudParams
from repro.core import StorM
from repro.core.policy import ServiceSpec
from repro.faults import FaultInjector
from repro.fs import ExtFilesystem
from repro.obs import EventLog
from repro.services import install_default_services
from repro.sim import Simulator
from repro.workloads import FioConfig, FioJob

VOLUME_SIZE = 2048 * BLOCK_SIZE


def main():
    sim = Simulator()
    params = CloudParams(
        tcp_reliable=True,
        tcp_rto=0.02,
        iscsi_session_recovery=True,
        iscsi_relogin_backoff=0.02,
    )
    cloud = CloudController(sim, params)
    for i in (1, 2, 3, 4, 5):
        cloud.add_compute_host(f"compute{i}")
    storage = cloud.add_storage_host("storage1")
    replica_host = cloud.add_storage_host("storage2")
    tenant = cloud.create_tenant("acme")
    vm = cloud.boot_vm(tenant, "app1", cloud.compute_hosts["compute1"])
    primary = cloud.create_volume(tenant, "data-vol", VOLUME_SIZE)
    ExtFilesystem.mkfs(primary)  # the monitor service inspects the fs layout
    replica_vol = cloud.create_volume(
        tenant, "data-replica", VOLUME_SIZE, storage_host=replica_host
    )

    storm = StorM(sim, cloud)
    install_default_services(storm)
    log = EventLog()
    injector = FaultInjector(sim, seed=42, log=log)

    chain = [
        storm.provision_middlebox(
            tenant, ServiceSpec("mon", "monitor", relay="active", placement="compute2")
        ),
        storm.provision_middlebox(
            tenant,
            ServiceSpec(
                "enc",
                "encryption",
                relay="active",
                placement="compute3",
                options={"algorithm": "stream"},
            ),
        ),
        storm.provision_middlebox(
            tenant, ServiceSpec("rep", "replication", relay="active", placement="compute4")
        ),
    ]
    mon_mb, enc_mb, rep_mb = chain
    rep_mb.service.event_log = log

    def scenario():
        flow = yield sim.process(
            storm.attach_with_services(tenant, vm, "data-vol", chain)
        )
        flow.session.event_log = log
        for mb in chain:
            mb.relay.event_log = log
        rep_host = cloud.compute_hosts[rep_mb.host_name]
        session = yield sim.process(
            rep_host.initiator.connect(
                replica_host.storage_iface.ip, replica_vol.iqn, recover=False
            )
        )
        replica = rep_mb.service.add_replica(session, "replica1")
        sim.process(rep_mb.service.monitor(interval=0.1))

        # -- the chaos schedule ------------------------------------------
        storage_link = storage.storage_iface.link
        injector.flap_link(storage_link, down_at=0.06, down_for=0.05)
        injector.at(0.15, injector.crash, replica_host, 0.25)  # replica kill
        injector.at(0.45, injector.crash, mon_mb, 0.25)  # middle-box crash

        config = FioConfig(
            io_size=4 * BLOCK_SIZE,
            num_threads=2,
            ios_per_thread=120,
            read_fraction=0.3,
            region_size=VOLUME_SIZE // 2,
            seed=7,
            carry_data=True,
        )
        job = FioJob(sim, flow.session, config)
        result = yield sim.process(job.run())

        # settle: let the replica finish its journal catch-up
        deadline = sim.now + 5.0
        while sim.now < deadline:
            if replica.alive and replica.synced_seq == rep_mb.service._write_seq:
                break
            yield sim.timeout(0.05)
        return flow, replica, result

    flow, replica, result = sim.run(until=sim.process(scenario()))

    print("== chaos_storage: fio through monitor -> encryption -> replication ==")
    print(
        f"fio: {result.completed} IOs in {result.elapsed:.3f}s sim-time "
        f"({result.completed / result.elapsed:,.0f} IOPS) under chaos"
    )
    print(
        f"recovery: session relogins={flow.session.relogins} "
        f"relay reconnects={sum(p.reconnects for p in rep_mb.relay.pairs)} "
        f"pdus replayed={sum(mb.relay.pdus_replayed for mb in chain)} "
        f"replica ejections={rep_mb.service.ejections} rejoins={replica.rejoins}"
    )
    print()
    print("-- recovery timeline (repro.obs.EventLog) --")
    print(log.format())

    # -- invariants --------------------------------------------------------
    assert result.completed == 240, "fio did not finish under chaos"
    assert flow.session.relogins >= 1, "middle-box crash never exercised relogin"
    assert rep_mb.service.ejections >= 1, "replica kill never exercised ejection"
    assert replica.rejoins >= 1, "replica never rejoined"
    assert replica.alive
    # every replicated write (last-writer-wins per offset) is
    # byte-identical on both copies — note the bytes are ciphertext:
    # the encryption hop sits before the replication hop
    last_write = {}
    for _seq, offset, length, data in rep_mb.service.write_journal:
        last_write[(offset, length)] = data
    assert last_write, "nothing was written"
    for (offset, length), data in last_write.items():
        assert primary.read_sync(offset, length) == data, "acked write lost on primary"
        assert replica_vol.read_sync(offset, length) == data, "replica diverged"
    print("OK: chaos absorbed — replica byte-identical, no acked write lost")


if __name__ == "__main__":
    main()
