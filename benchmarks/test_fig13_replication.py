"""Figure 13 — MySQL TPS before/after a replica failure (§V-B3).

Paper setup (Fig. 12): one MySQL server VM whose database volume is
attached through a replication middle-box holding two extra replicas;
four tenant VMs run Sysbench (6 threads, complex mode).  At t=60 s one
replica's iSCSI connection is closed.  Results: 3-replica read
striping yields ~80% more TPS than a single store; after the failure
the service ejects the dead replica and MySQL keeps running at a
slightly lower rate.

Simulation scale: 12 s run with the failure at 6 s (time-compressed;
rates are stationary within each phase), 2 client VMs × 4 threads.
"""

from harness import MB_ACTIVE, build_testbed, format_table, memo, run
from repro.workloads import MySqlServer, OltpClient, OltpConfig, Timeline

VOLUME = 32 * 1024 * 1024
DURATION = 12.0
FAIL_AT = 6.0


def _oltp(n_replicas, fail_at):
    bed = build_testbed(MB_ACTIVE, volume_size=VOLUME, service_kind="replication")
    cloud, sim = bed.cloud, bed.sim
    mb = bed.middlebox
    extra_hosts = [cloud.add_storage_host(f"storage{i}") for i in range(2, 2 + n_replicas)]
    replicas = []

    def setup():
        host = cloud.compute_hosts[mb.host_name]
        for i, storage_host in enumerate(extra_hosts):
            volume = cloud.create_volume(
                bed.tenant, f"rep{i}", VOLUME, storage_host=storage_host
            )
            session = yield sim.process(
                host.initiator.connect(storage_host.storage_iface.ip, volume.iqn)
            )
            replicas.append(mb.service.add_replica(session, f"rep{i}"))

    run(bed, setup())
    config = OltpConfig(threads_per_client=4, table_pages=4096)
    server_vm = cloud.boot_vm(bed.tenant, "mysql", cloud.compute_hosts["compute2"])
    server = MySqlServer(sim, server_vm, bed.session, cloud.params, config)
    timeline = Timeline()
    clients = [
        OltpClient(
            sim,
            cloud.boot_vm(bed.tenant, f"client{i}", cloud.compute_hosts["compute5"]),
            server_vm.ip,
            config,
            timeline,
        )
        for i in range(2)
    ]

    def drive():
        runs = [sim.process(c.run(DURATION)) for c in clients]
        if replicas and fail_at is not None:
            yield sim.timeout(fail_at)
            replicas[0].session.reset()
        for proc in runs:
            yield proc

    run(bed, drive())
    return timeline, server, mb


def _measure():
    def compute():
        timeline3, server3, mb3 = _oltp(2, FAIL_AT)
        timeline1, _server1, _mb1 = _oltp(0, None)
        return {
            "series": timeline3.series(),
            "pre_fail": timeline3.mean_rate(1.0, FAIL_AT - 1.0),
            "post_fail": timeline3.mean_rate(FAIL_AT + 1.0, DURATION - 1.0),
            "one_replica": timeline1.mean_rate(1.0, DURATION - 1.0),
            "replication_factor_after": mb3.service.replication_factor,
            "errors": server3.errors,
        }

    return memo("fig13", compute)


def test_fig13_replication(benchmark):
    results = benchmark.pedantic(_measure, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["second", "TPS (3 replicas, failure at 6 s)"],
            [[f"{t:.0f}", rate] for t, rate in results["series"]],
            title="Figure 13: MySQL TPS timeline",
        )
    )
    print(
        format_table(
            ["metric", "value"],
            [
                ["pre-failure TPS", results["pre_fail"]],
                ["post-failure TPS", results["post_fail"]],
                ["1-replica TPS", results["one_replica"]],
                ["improvement (paper ~1.8x)", results["pre_fail"] / results["one_replica"]],
            ],
        )
    )
    # 3 replicas beat one store substantially (paper: ~80%)
    assert results["pre_fail"] > results["one_replica"] * 1.5
    # the database keeps running through the failure...
    assert results["post_fail"] > 0
    assert results["errors"] == 0
    # ...at a slightly lower rate, still above the single store
    assert results["post_fail"] < results["pre_fail"]
    assert results["post_fail"] > results["one_replica"] * 1.2
    # the dead replica was ejected (primary + 1 left)
    assert results["replication_factor_after"] == 2
