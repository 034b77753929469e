"""Compute hosts.

Each compute host owns an OVS-style virtual switch on the instance
network (uplinked to the datacenter fabric), a storage-network NIC,
an iSCSI initiator (host-side, as Open-iSCSI), and a hypervisor record
of which VM each storage session belongs to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.cloud.cpu import CpuMeter
from repro.cloud.params import CloudParams
from repro.cloud.vm import VirtualMachine
from repro.iscsi import IscsiInitiator
from repro.net.link import Interface, Link
from repro.net.stack import ArpTable, Node
from repro.net.switch import Switch
from repro.sim import Simulator

if TYPE_CHECKING:
    from repro.cloud.tenant import Tenant
    from repro.iscsi.initiator import IscsiSession


@dataclass
class Attachment:
    """Hypervisor record: which VM owns which storage connection."""

    vm_name: str
    volume_name: str
    iqn: str
    local_port: Optional[int] = None
    session: Optional["IscsiSession"] = None


class Hypervisor:
    """The per-host record StorM's attribution reads (paper §III-A)."""

    def __init__(self, host_name: str):
        self.host_name = host_name
        self.attachments: list[Attachment] = []

    def record(self, attachment: Attachment) -> None:
        self.attachments.append(attachment)

    def attachment_for_iqn(self, iqn: str) -> Optional[Attachment]:
        for attachment in self.attachments:
            if attachment.iqn == iqn:
                return attachment
        return None

    def vm_of_port(self, local_port: int) -> Optional[str]:
        for attachment in self.attachments:
            if attachment.local_port == local_port:
                return attachment.vm_name
        return None


class ComputeHost(Node):
    """A hypervisor node with instance + storage connectivity."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        params: CloudParams,
        storage_ip: str,
        storage_mac: str,
        storage_arp: ArpTable,
        instance_arp: ArpTable,
    ):
        super().__init__(sim, name)
        self.params = params
        self.instance_arp = instance_arp
        self.cpu = CpuMeter(sim, f"{name}.cpu", cores=params.host_cores)
        self.ovs = Switch(sim, f"ovs-{name}", forwarding_delay=params.switch_delay)
        self.storage_iface = Interface(f"{name}.st0", storage_mac, storage_ip)
        self.add_interface(self.storage_iface, storage_arp)
        self.stack.add_route(params.storage_subnet, self.storage_iface)
        self.initiator = IscsiInitiator(
            sim,
            self.stack,
            storage_ip,
            initiator_iqn=f"iqn.2016-01.org.repro:{name}",
            mss=params.mss,
            window=params.tcp_window,
            rto=params.tcp_rto,
            max_retransmits=params.tcp_max_retransmits,
            max_relogins=params.iscsi_max_relogins,
            relogin_backoff=params.iscsi_relogin_backoff,
        )
        self.hypervisor = Hypervisor(name)
        self.vms: dict[str, VirtualMachine] = {}
        self._vm_port_counter = 0
        # capacity accounting for provisioned service VMs (middle-boxes)
        self.committed_vcpus = 0
        self.committed_memory_mb = 0

    # -- VM lifecycle -----------------------------------------------------

    def spawn_vm(
        self,
        name: str,
        tenant: "Tenant",
        ip: str,
        mac: str,
        vcpus: Optional[int] = None,
    ) -> VirtualMachine:
        if name in self.vms:
            raise ValueError(f"VM {name!r} already exists on host {self.name}")
        vm = VirtualMachine(
            self.sim, name, tenant, self, vcpus=vcpus or self.params.vm_default_vcpus
        )
        iface = Interface(f"{name}.eth0", mac, ip)
        vm.add_interface(iface, self.instance_arp)
        vm.stack.add_route("0.0.0.0/0", iface)
        vm.ip = ip
        port = self.ovs.add_port(f"vm-{name}")
        Link(
            self.sim,
            iface,
            port,
            bandwidth=self.params.vm_iface_bandwidth,
            latency=self.params.vm_iface_latency,
            per_packet_overhead=self.params.vm_iface_per_packet,
        )
        self.vms[name] = vm
        tenant.vm_names.append(name)
        return vm

    # -- storage attachment (legacy path, no StorM) -------------------------

    def attach_volume(self, vm: VirtualMachine, volume_name: str, iqn: str, target_ip: str):
        """Process: host-side iSCSI login; registers hypervisor mapping."""
        attachment = Attachment(vm.name, volume_name, iqn)
        self.hypervisor.record(attachment)
        session = yield self.sim.process(self.initiator.connect(target_ip, iqn))
        attachment.local_port = session.local_port
        attachment.session = session
        vm.block_devices[volume_name] = session
        return session
