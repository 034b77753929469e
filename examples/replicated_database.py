"""Tenant-defined replication under failure (paper §V-B3, Figs. 12/13).

A MySQL-like server VM stores its database on a volume attached
through a replication middle-box holding two replicas on independent
storage hosts.  Sysbench-style clients hammer it; halfway through, one
replica's iSCSI connection is cut.  The service ejects the dead
replica and the database keeps serving transactions.

Run:  python examples/replicated_database.py
"""

from repro.cloud import CloudController
from repro.core import StorM
from repro.core.policy import ServiceSpec
from repro.services import install_default_services
from repro.sim import Simulator
from repro.workloads import MySqlServer, OltpClient, OltpConfig, Timeline

VOLUME_SIZE = 32 * 1024 * 1024
DURATION = 10.0
FAIL_AT = 5.0


def main():
    sim = Simulator()
    cloud = CloudController(sim)
    for i in (1, 2, 3, 4, 5):
        cloud.add_compute_host(f"compute{i}")
    primary_host = cloud.add_storage_host("storage1")
    replica_hosts = [cloud.add_storage_host("storage2"), cloud.add_storage_host("storage3")]
    tenant = cloud.create_tenant("acme")
    db_vm = cloud.boot_vm(tenant, "mysql", cloud.compute_hosts["compute1"])
    cloud.create_volume(tenant, "db-vol", VOLUME_SIZE, storage_host=primary_host)

    storm = StorM(sim, cloud)
    install_default_services(storm)
    replica_mb = storm.provision_middlebox(
        tenant, ServiceSpec("replica", "replication", relay="active", placement="compute3")
    )

    def scenario():
        flow = yield sim.process(
            storm.attach_with_services(tenant, db_vm, "db-vol", [replica_mb])
        )
        # attach two replica volumes to the middle-box
        replicas = []
        mb_host = cloud.compute_hosts[replica_mb.host_name]
        for i, storage_host in enumerate(replica_hosts, start=1):
            replica_vol = cloud.create_volume(
                tenant, f"db-replica{i}", VOLUME_SIZE, storage_host=storage_host
            )
            session = yield sim.process(
                mb_host.initiator.connect(storage_host.storage_iface.ip, replica_vol.iqn)
            )
            replicas.append(replica_mb.service.add_replica(session, f"replica{i}"))
        print(f"replication factor: {replica_mb.service.replication_factor}")

        config = OltpConfig(threads_per_client=4, table_pages=4096)
        server = MySqlServer(sim, db_vm, flow.session, cloud.params, config)
        timeline = Timeline()
        clients = [
            OltpClient(
                sim,
                cloud.boot_vm(tenant, f"client{i}", cloud.compute_hosts["compute5"]),
                db_vm.ip,
                config,
                timeline,
            )
            for i in range(2)
        ]
        runs = [sim.process(c.run(DURATION)) for c in clients]
        yield sim.timeout(FAIL_AT)
        print(f"t={sim.now:.0f}s: killing {replicas[0].name}'s iSCSI connection")
        replicas[0].session.reset()
        for proc in runs:
            yield proc

        print(f"\nMySQL TPS timeline (replica fails at t={FAIL_AT:.0f}s):")
        for second, tps in timeline.series():
            bar = "#" * int(tps / 5)
            print(f"  t={second:4.0f}s  {tps:6.1f}  {bar}")
        print(f"\nreplication factor now: {replica_mb.service.replication_factor}")
        print(f"failovers served: {replica_mb.service.failovers}")
        print(f"transactions committed: {server.transactions_committed}, errors: {server.errors}")
        assert server.errors == 0
        print("OK: the database survived the replica failure.")

    sim.run(until=sim.process(scenario()))


if __name__ == "__main__":
    main()
