"""Ablation — elastic middle-box scaling (paper §II-B).

"These services, like VMs, can be scaled up and down, depending upon
the traffic load, making them truly elastic."  Three volumes of one
tenant share forwarding middle-boxes; under concurrent Fio load a
fixed single box is compared against an autoscaled pool (max 3),
rebalanced purely by SDN reprogramming: a declared ScalingPool, sized
by the control loop's width policy.
"""

from harness import LEGACY, build_testbed, format_table, memo
from repro.blockdev.disk import BLOCK_SIZE
from repro.core import Reconciler
from repro.core.policy import ServiceSpec
from repro.core.scaling import ScalingPool
from repro.workloads import FioConfig, FioJob

N_FLOWS = 3
IOS = 400


def _build(env_scaled: bool):
    bed = build_testbed(LEGACY, volume_size=8 * 1024 * 1024)
    mb = bed.storm.provision_middlebox(
        bed.tenant, ServiceSpec("pool0", "noop", relay="fwd", placement="compute3")
    )
    flows = []
    for i in range(N_FLOWS):
        name = f"flow-vol{i}"
        bed.cloud.create_volume(bed.tenant, name, 2048 * BLOCK_SIZE)

        def attach(name=name):
            return (
                yield bed.sim.process(
                    bed.storm.attach_with_services(bed.tenant, bed.vm, name, [mb])
                )
            )

        flows.append(bed.run(attach()))
    scaler = loop = None
    if env_scaled:
        scaler = ScalingPool(
            bed.storm,
            bed.tenant,
            ServiceSpec("pool", "noop", relay="fwd"),
            flows,
            initial_pool=[mb],
            max_size=3,
            high_watermark=800.0,
            low_watermark=10.0,
        )
        loop = Reconciler(bed.storm)
        bed.sim.process(loop.run(interval=0.05))
    # cache-warm backend so the middle-box path is the bottleneck
    for storage_host in bed.cloud.storage_hosts.values():
        storage_host.disk.seek_penalty = 0.5e-3
        storage_host.disk.set_queue_depth(32)
    return bed, flows, scaler, loop


def _aggregate_iops(scaled: bool) -> tuple[float, int]:
    bed, flows, scaler, loop = _build(scaled)
    jobs = [
        FioJob(
            bed.sim,
            flow.session,
            FioConfig(
                io_size=4 * BLOCK_SIZE,
                num_threads=4,
                ios_per_thread=IOS // 4,
                region_size=1024 * BLOCK_SIZE,
                seed=300 + i,
            ),
        )
        for i, flow in enumerate(flows)
    ]
    results = []

    def drive():
        procs = [bed.sim.process(job.run()) for job in jobs]
        for proc in procs:
            results.append((yield proc))

    bed.run(drive())
    if loop is not None:
        loop.stop()
    total_iops = sum(r.iops for r in results)
    pool_size = len(scaler.members()) if scaler else 1
    return total_iops, pool_size


def _measure():
    def compute():
        fixed, _ = _aggregate_iops(scaled=False)
        scaled, pool = _aggregate_iops(scaled=True)
        return {"fixed": fixed, "scaled": scaled, "pool": pool}

    return memo("ablation_autoscaling", compute)


def test_ablation_autoscaling(benchmark):
    results = benchmark.pedantic(_measure, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["configuration", "aggregate IOPS"],
            [
                ["fixed: 1 middle-box, 3 flows", results["fixed"]],
                [f"autoscaled: pool grew to {results['pool']}", results["scaled"]],
                ["speedup", results["scaled"] / results["fixed"]],
            ],
            title="Ablation: elastic middle-box scaling under 3-flow load",
        )
    )
    assert results["pool"] > 1, "the pool never grew under load"
    # scaling must not hurt, and should help once the box saturates
    assert results["scaled"] >= results["fixed"] * 0.95
