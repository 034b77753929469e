"""Figure 10 — CPU utilization breakdown, FTP through AES-256 (§V-B2).

Paper: with encryption *in the tenant VM* (dm-crypt), the FTP workload
drives the VM to 85% CPU (target ~25%); moving the cipher into a
middle-box drops the tenant VM to ~25% with the middle-box at ~37%,
cutting overall CPU by ~20%.  Both configurations move data at close
to the storage path's maximum bandwidth (~88 vs ~84 MB/s).
"""

from harness import LEGACY, MB_ACTIVE, build_testbed, format_table, memo, run
from repro.services import TenantSideEncryption
from repro.workloads import FtpTransfer

FILE_SIZE = 16 * 1024 * 1024
VOLUME = 24 * 1024 * 1024

PAPER = {
    "tenant-side": {"vm": 0.85, "target": 0.25},
    "middle-box": {"vm": 0.251, "mb": 0.371, "target": 0.244},
}


def _measure():
    def compute():
        results = {}
        # tenant-side (dm-crypt in guest)
        bed = build_testbed(LEGACY, volume_size=VOLUME)
        device = TenantSideEncryption(bed.vm, bed.session, bed.cloud.params)
        storage = bed.cloud.storage_hosts["storage1"]
        bed.vm.cpu.begin_window()
        storage.cpu.begin_window()
        ftp = FtpTransfer(bed.sim, bed.vm, device, bed.cloud.params, file_size=FILE_SIZE)
        transfer = run(bed, ftp.upload())
        results["tenant-side"] = {
            "vm": bed.vm.cpu.utilization(),
            "mb": 0.0,
            "target": storage.cpu.utilization(),
            "bandwidth": transfer.throughput,
        }
        # middle-box (AES-256 service, active relay)
        bed = build_testbed(MB_ACTIVE, volume_size=VOLUME, service_kind="encryption")
        bed.middlebox.service.cpu_per_byte = bed.cloud.params.aes_cpu_per_byte
        storage = bed.cloud.storage_hosts["storage1"]
        bed.vm.cpu.begin_window()
        bed.middlebox.cpu.begin_window()
        storage.cpu.begin_window()
        ftp = FtpTransfer(bed.sim, bed.vm, bed.session, bed.cloud.params, file_size=FILE_SIZE)
        transfer = run(bed, ftp.upload())
        results["middle-box"] = {
            "vm": bed.vm.cpu.utilization(),
            "mb": bed.middlebox.cpu.utilization(),
            "target": storage.cpu.utilization(),
            "bandwidth": transfer.throughput,
        }
        return results

    return memo("fig10", compute)


def test_fig10_cpu_breakdown(benchmark):
    results = benchmark.pedantic(_measure, rounds=1, iterations=1)
    tenant, middlebox = results["tenant-side"], results["middle-box"]
    print()
    print(
        format_table(
            ["config", "tenant VM", "MB VM", "target", "MB/s"],
            [
                ["tenant-side", tenant["vm"], "-", tenant["target"], tenant["bandwidth"] / 1e6],
                ["middle-box", middlebox["vm"], middlebox["mb"], middlebox["target"], middlebox["bandwidth"] / 1e6],
                ["paper tenant-side", PAPER["tenant-side"]["vm"], "-", PAPER["tenant-side"]["target"], 88],
                ["paper middle-box", PAPER["middle-box"]["vm"], PAPER["middle-box"]["mb"], PAPER["middle-box"]["target"], 84],
            ],
            title="Figure 10: CPU utilization breakdown (FTP upload, AES-256)",
        )
    )
    # the headline shape: cipher cycles leave the tenant VM
    assert tenant["vm"] > 0.75, "tenant-side encryption must saturate the VM"
    assert middlebox["vm"] < 0.35, "middle-box must unburden the tenant VM"
    assert 0.25 < middlebox["mb"] < 0.60
    # target share roughly unchanged across configurations
    assert abs(tenant["target"] - middlebox["target"]) < 0.10
    # overall CPU drops with the middle-box
    total_tenant = tenant["vm"] + tenant["target"]
    total_mb = middlebox["vm"] + middlebox["mb"] + middlebox["target"]
    assert total_mb < total_tenant
    # both configurations run near the storage path's bandwidth (§V-B2)
    for config in (tenant, middlebox):
        assert 70e6 < config["bandwidth"] < 125e6
