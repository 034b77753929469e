"""Ablation — service-chain length (paper §II-B's service bundles).

StorM chains middle-boxes per volume (e.g. monitoring → encryption).
Each extra hop adds forwarding latency; this bench quantifies the cost
of chains of 0, 1, and 2 forwarding middle-boxes against the same
volume, plus the gateways-only floor.
"""

from harness import LEGACY, VOLUME_SIZE, build_testbed, fio, format_table, memo
from repro.core.policy import ServiceSpec

IO_SIZE = 16 * 1024
MB_HOSTS = ["compute3", "compute5"]


def _chain_iops(chain_length: int) -> float:
    bed = build_testbed(LEGACY, volume_size=VOLUME_SIZE)
    middleboxes = [
        bed.storm.provision_middlebox(
            bed.tenant,
            ServiceSpec(f"fwd{i}", "noop", relay="fwd", placement=MB_HOSTS[i]),
        )
        for i in range(chain_length)
    ]
    cloud = bed.cloud

    def attach():
        return (
            yield bed.sim.process(
                bed.storm.attach_with_services(
                    bed.tenant,
                    bed.vm,
                    "vol1",
                    middleboxes,
                    ingress_host=cloud.compute_hosts["compute2"],
                    egress_host=cloud.compute_hosts["compute4"],
                )
            )
        )

    flow = bed.run(attach())
    bed.session = flow.session
    return fio(bed, IO_SIZE, ios_per_thread=40).iops


def _measure():
    def compute():
        legacy_bed = build_testbed(LEGACY, volume_size=VOLUME_SIZE)
        legacy = fio(legacy_bed, IO_SIZE, ios_per_thread=40).iops
        return {
            "legacy": legacy,
            0: _chain_iops(0),
            1: _chain_iops(1),
            2: _chain_iops(2),
        }

    return memo("ablation_chain", compute)


def test_ablation_chain_length(benchmark):
    results = benchmark.pedantic(_measure, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["configuration", "IOPS", "vs LEGACY"],
            [
                ["LEGACY (direct)", results["legacy"], 1.0],
                ["gateways only", results[0], results[0] / results["legacy"]],
                ["1 middle-box", results[1], results[1] / results["legacy"]],
                ["2 middle-boxes", results[2], results[2] / results["legacy"]],
            ],
            title="Ablation: service-chain length (16 KB, 1 thread)",
        )
    )
    # monotone: every extra hop costs throughput
    assert results["legacy"] > results[0] > results[1] > results[2]
    # but even a two-box bundle stays within a moderate envelope
    assert results[2] / results["legacy"] > 0.6
