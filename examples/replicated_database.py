"""Tenant-defined replication under failure (paper §V-B3, Figs. 12/13).

A MySQL-like server VM stores its database on a volume attached
through a replication middle-box holding two replicas on independent
storage hosts.  Sysbench-style clients hammer it; halfway through, one
replica's iSCSI connection is cut.  The service ejects the dead
replica and the database keeps serving transactions.

Run:  python examples/replicated_database.py
"""

from repro.testbed import Testbed
from repro.workloads import MySqlServer, OltpClient, OltpConfig, Timeline

VOLUME_SIZE = 32 * 1024 * 1024
DURATION = 10.0
FAIL_AT = 5.0


def main():
    bed = Testbed(compute_hosts=5, volume_size=VOLUME_SIZE)
    sim, cloud, db_vm = bed.sim, bed.cloud, bed.vm  # the MySQL server VM
    targets = [bed.add_replica_target("storage2"), bed.add_replica_target("storage3")]
    flow, (replica_mb,) = bed.attach([bed.spec("replica", "replication", placement="compute3")])

    def scenario():
        # attach two replica volumes to the middle-box
        replicas = []
        mb_host = cloud.compute_hosts[replica_mb.host_name]
        for i, (storage_host, replica_vol) in enumerate(targets, start=1):
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
                cloud.boot_vm(bed.tenant, f"client{i}", cloud.compute_hosts["compute5"]),
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

    bed.run(scenario())


if __name__ == "__main__":
    main()
