"""Storage hosts: disk + volume group + iSCSI target (Cinder LVM-style)."""

from __future__ import annotations

from repro.blockdev import Disk, Volume, VolumeGroup
from repro.cloud.cpu import CpuMeter
from repro.cloud.params import CloudParams
from repro.iscsi import IscsiTarget, volume_iqn
from repro.net.link import Interface
from repro.net.stack import ArpTable, Node
from repro.sim import Simulator


class StorageHost(Node):
    """One storage node of Figure 1: volumes carved from one disk."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        params: CloudParams,
        storage_ip: str,
        storage_mac: str,
        storage_arp: ArpTable,
    ):
        super().__init__(sim, name)
        self.params = params
        self.cpu = CpuMeter(sim, f"{name}.cpu", cores=params.storage_cpu_cores)
        self.storage_iface = Interface(f"{name}.st0", storage_mac, storage_ip)
        self.add_interface(self.storage_iface, storage_arp)
        self.stack.add_route(params.storage_subnet, self.storage_iface)
        self.disk = Disk(
            sim,
            f"{name}.sda",
            capacity=params.disk_capacity,
            bandwidth=params.disk_bandwidth,
            access_latency=params.disk_access_latency,
            seek_penalty=params.disk_seek_penalty,
            queue_depth=params.disk_queue_depth,
        )
        self.volume_group = VolumeGroup(f"vg-{name}", self.disk)
        self.target = IscsiTarget(
            sim,
            self.stack,
            storage_ip,
            cpu=self.cpu,
            mss=params.mss,
            window=params.tcp_window,
            rto=params.tcp_rto,
            max_retransmits=params.tcp_max_retransmits,
        )

    def create_volume(self, name: str, size: int) -> Volume:
        volume = self.volume_group.create_volume(name, size)
        self.target.export(volume, volume_iqn(name))
        return volume
