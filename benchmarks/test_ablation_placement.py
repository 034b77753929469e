"""Ablation — gateway/middle-box placement (paper §V-A).

The paper measures the *worst case* (tenant VM, both gateways, and the
middle-box all on different physical hosts) and notes the routing
overhead shrinks by ~20% when the ingress gateway is placed close to
the VM's host and the egress close to the storage node.  Here the
co-located configuration puts the gateways and middle-box on the
tenant VM's host, so the spliced path never crosses the fabric.
"""

from harness import LEGACY, VOLUME_SIZE, build_testbed, fio, format_table, memo
from repro.core.policy import ServiceSpec

IO_SIZE = 16 * 1024


def _mb_fwd_latency(ingress: str, egress: str, placement: str) -> float:
    bed = build_testbed(LEGACY, volume_size=VOLUME_SIZE)
    spec = ServiceSpec("fwd", "noop", relay="fwd", placement=placement)
    mb = bed.storm.provision_middlebox(bed.tenant, spec)
    cloud = bed.cloud

    def attach():
        return (
            yield bed.sim.process(
                bed.storm.attach_with_services(
                    bed.tenant,
                    bed.vm,
                    "vol1",
                    [mb],
                    ingress_host=cloud.compute_hosts[ingress],
                    egress_host=cloud.compute_hosts[egress],
                )
            )
        )

    flow = bed.run(attach())
    bed.session = flow.session
    return fio(bed, IO_SIZE, ios_per_thread=40).latency.mean


def _measure():
    def compute():
        legacy_bed = build_testbed(LEGACY, volume_size=VOLUME_SIZE)
        legacy = fio(legacy_bed, IO_SIZE, ios_per_thread=40).latency.mean
        worst = _mb_fwd_latency("compute2", "compute4", "compute3")
        colocated = _mb_fwd_latency("compute1", "compute1", "compute1")
        return {
            "legacy": legacy,
            "worst_overhead": worst - legacy,
            "colocated_overhead": colocated - legacy,
        }

    return memo("ablation_placement", compute)


def test_ablation_placement(benchmark):
    results = benchmark.pedantic(_measure, rounds=1, iterations=1)
    reduction = 1 - results["colocated_overhead"] / results["worst_overhead"]
    print()
    print(
        format_table(
            ["placement", "routing overhead vs LEGACY (ms)"],
            [
                ["worst case (all hosts differ)", results["worst_overhead"] * 1e3],
                ["co-located with the VM host", results["colocated_overhead"] * 1e3],
                ["overhead reduction (paper ~20%)", reduction],
            ],
            title="Ablation: gateway/middle-box placement",
        )
    )
    assert results["worst_overhead"] > 0
    assert results["colocated_overhead"] > 0, "splicing always costs something"
    # placement recovers a meaningful share of the overhead
    assert reduction > 0.15
