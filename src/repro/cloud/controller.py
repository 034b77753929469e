"""The cloud controller: Nova/Cinder/Neutron-shaped control plane.

Builds the two-network datacenter of the paper's Figure 1 and exposes
the operations StorM and the workloads need: add hosts, create
tenants, boot VMs, create/attach volumes, and plug service nodes
(gateways, middle-boxes) into either network.
"""

from __future__ import annotations

from typing import Optional

from repro.blockdev import Volume
from repro.cloud.addressing import AddressAllocator
from repro.cloud.compute import ComputeHost
from repro.cloud.params import CloudParams
from repro.cloud.storagehost import StorageHost
from repro.cloud.tenant import Tenant
from repro.cloud.vm import VirtualMachine
from repro.net.link import Interface, Link
from repro.net.sdn import SdnController
from repro.net.stack import ArpTable, Node
from repro.net.switch import Switch
from repro.sim import Simulator


class CloudController:
    """Owns the physical plant and the control-plane state."""

    def __init__(self, sim: Simulator, params: Optional[CloudParams] = None):
        self.sim = sim
        self.params = params or CloudParams()
        if self.params.express and sim.express is None:
            # Must exist before the sockets below read ``sim.express``.
            from repro.net.express import ExpressManager

            ExpressManager(sim)  # registers itself as sim.express
        #: end-to-end integrity layer (repro.integrity); None when off —
        #: endpoints and relays carry a None hook and pay nothing.
        self.integrity = None
        if self.params.integrity:
            from repro.integrity import IntegrityLayer

            self.integrity = IntegrityLayer(sim, self.params)
        self.addresses = AddressAllocator()
        self.storage_arp = ArpTable("storage-net")
        self.instance_arp = ArpTable("instance-net")
        self.storage_switch = Switch(sim, "storage-sw", forwarding_delay=self.params.switch_delay)
        self.fabric = Switch(sim, "fabric", forwarding_delay=self.params.switch_delay)
        self.sdn = SdnController()
        self.sdn.register_switch(self.fabric)
        self.compute_hosts: dict[str, ComputeHost] = {}
        self.storage_hosts: dict[str, StorageHost] = {}
        self.tenants: dict[str, Tenant] = {}
        self.volumes: dict[str, tuple[Volume, StorageHost]] = {}
        self._tenant_counter = 0

    # -- hosts -----------------------------------------------------------

    def add_compute_host(self, name: str) -> ComputeHost:
        if name in self.compute_hosts:
            raise ValueError(f"compute host {name!r} already exists")
        host = ComputeHost(
            self.sim,
            name,
            self.params,
            storage_ip=self.addresses.next_ip(self.params.storage_subnet),
            storage_mac=self.addresses.next_mac(),
            storage_arp=self.storage_arp,
            instance_arp=self.instance_arp,
        )
        self._cable_storage(host.storage_iface, name)
        # uplink the host OVS into the fabric
        uplink = host.ovs.add_port("uplink")
        fabric_port = self.fabric.add_port(f"to-{name}")
        Link(
            self.sim,
            uplink,
            fabric_port,
            bandwidth=self.params.link_bandwidth,
            latency=self.params.link_latency,
        )
        self.sdn.register_switch(host.ovs)
        if self.integrity is not None:
            host.initiator.integrity = self.integrity
        self.compute_hosts[name] = host
        return host

    def add_storage_host(self, name: str, disk_capacity: Optional[int] = None) -> StorageHost:
        if name in self.storage_hosts:
            raise ValueError(f"storage host {name!r} already exists")
        params = self.params
        if disk_capacity is not None:
            from dataclasses import replace

            params = replace(params, disk_capacity=disk_capacity)
        host = StorageHost(
            self.sim,
            name,
            params,
            storage_ip=self.addresses.next_ip(self.params.storage_subnet),
            storage_mac=self.addresses.next_mac(),
            storage_arp=self.storage_arp,
        )
        self._cable_storage(host.storage_iface, name)
        if self.integrity is not None:
            host.target.integrity = self.integrity
        self.storage_hosts[name] = host
        return host

    def _cable_storage(self, iface: Interface, host_name: str) -> None:
        port = self.storage_switch.add_port(f"to-{host_name}-{iface.name}")
        Link(
            self.sim,
            iface,
            port,
            bandwidth=self.params.link_bandwidth,
            latency=self.params.link_latency,
        )

    def cable_control(
        self,
        a: Interface,
        b: Interface,
        bandwidth: Optional[float] = None,
        latency: Optional[float] = None,
    ) -> Link:
        """Cable two control-plane NICs with a management-network link.

        Used by :class:`repro.core.ha.HaCluster` for the replication
        mesh between controller replicas; the link characteristics come
        from ``control_link_*`` in :class:`CloudParams` unless the
        caller overrides them.  These are real simulated links — fault
        injection (partitions, flaps) applies to them like any other.
        """
        return Link(
            self.sim,
            a,
            b,
            bandwidth=bandwidth if bandwidth is not None else self.params.control_link_bandwidth,
            latency=latency if latency is not None else self.params.control_link_latency,
        )

    def iter_nat_tables(self):
        """Yield ``(host_name, NatTable)`` for every compute host — the
        places the attach protocol installs transient NAT rules, and
        hence the tables the reconciler audits for leaks.  (Gateway
        NAT tables belong to the platform's gateway pairs.)"""
        for name, host in self.compute_hosts.items():
            yield name, host.stack.nat

    # -- tenants & VMs ------------------------------------------------------

    def create_tenant(self, name: str) -> Tenant:
        if name in self.tenants:
            raise ValueError(f"tenant {name!r} already exists")
        self._tenant_counter += 1
        tenant = Tenant(
            self._tenant_counter, name, self.params.tenant_subnet(self._tenant_counter)
        )
        self.tenants[name] = tenant
        return tenant

    def delete_tenant(self, name: str) -> Tenant:
        """Retire a tenant's control-plane record.  The tenant must
        hold no volumes (Cinder semantics); its numeric index — and
        hence its subnet — is never reused, so address allocation
        stays deterministic across create/delete churn."""
        tenant = self.tenants.get(name)
        if tenant is None:
            raise ValueError(f"unknown tenant {name!r}")
        if tenant.volume_names:
            raise ValueError(
                f"tenant {name!r} still owns volumes: {tenant.volume_names}"
            )
        del self.tenants[name]
        return tenant

    def boot_vm(
        self,
        tenant: Tenant,
        name: str,
        host: ComputeHost,
        vcpus: Optional[int] = None,
    ) -> VirtualMachine:
        return host.spawn_vm(
            name,
            tenant,
            ip=self.addresses.next_ip(tenant.subnet),
            mac=self.addresses.next_mac(),
            vcpus=vcpus,
        )

    # -- service-node plumbing (used by StorM to build gateways/MBs) ---------

    def plug_instance_iface(
        self,
        node: Node,
        host: ComputeHost,
        tenant: Tenant,
        virtio: bool = True,
    ) -> Interface:
        """Attach a new NIC on ``node`` to ``host``'s OVS, in the tenant net."""
        iface = Interface(
            f"{node.name}.inst{len(node.interfaces)}",
            self.addresses.next_mac(),
            self.addresses.next_ip(tenant.subnet),
        )
        node.add_interface(iface, self.instance_arp)
        node.stack.add_route(tenant.subnet, iface)
        port = host.ovs.add_port(f"svc-{node.name}")
        if virtio:
            Link(
                self.sim,
                iface,
                port,
                bandwidth=self.params.vm_iface_bandwidth,
                latency=self.params.vm_iface_latency,
                per_packet_overhead=self.params.vm_iface_per_packet,
            )
        else:
            Link(
                self.sim,
                iface,
                port,
                bandwidth=self.params.link_bandwidth,
                latency=self.params.link_latency,
            )
        return iface

    def unplug_instance_iface(self, node: Node, host: ComputeHost) -> None:
        """Reverse of :meth:`plug_instance_iface`: detach the service
        node's NIC from the host OVS and retire its addresses.  Works
        on crashed nodes too (their ``iface.link`` is already None)."""
        port = host.ovs.remove_port(f"svc-{node.name}")
        for iface in node.interfaces:
            link = iface.link
            if link is not None and port is not None and (
                link.a is port or link.b is port
            ):
                iface.link = None
            if iface.ip is not None:
                self.instance_arp.unregister(iface.ip)
        if port is not None:
            port.link = None

    def unplug_storage_iface(self, node: Node) -> None:
        """Reverse of :meth:`plug_storage_iface`: detach the service
        node's storage-network NICs from the storage switch and retire
        their addresses.  Idempotent — a NIC with no matching switch
        port is skipped."""
        for iface in node.interfaces:
            port = self.storage_switch.remove_port(f"to-{node.name}-{iface.name}")
            if port is None:
                continue
            link = iface.link
            if link is not None and (link.a is port or link.b is port):
                iface.link = None
            port.link = None
            if iface.ip is not None:
                self.storage_arp.unregister(iface.ip)

    def plug_storage_iface(self, node: Node) -> Interface:
        """Attach a new NIC on ``node`` to the storage network."""
        iface = Interface(
            f"{node.name}.st{len(node.interfaces)}",
            self.addresses.next_mac(),
            self.addresses.next_ip(self.params.storage_subnet),
        )
        node.add_interface(iface, self.storage_arp)
        node.stack.add_route(self.params.storage_subnet, iface)
        self._cable_storage(iface, node.name)
        return iface

    # -- volumes (Cinder) -----------------------------------------------------

    def create_volume(
        self,
        tenant: Tenant,
        name: str,
        size: int,
        storage_host: Optional[StorageHost] = None,
        snapshottable: bool = False,
    ) -> Volume:
        if name in self.volumes:
            raise ValueError(f"volume {name!r} already exists")
        if storage_host is None:
            if not self.storage_hosts:
                raise ValueError("no storage hosts in the cloud")
            storage_host = min(
                self.storage_hosts.values(), key=lambda h: h.volume_group._next_offset
            )
        volume = storage_host.create_volume(name, size)
        if snapshottable:
            from repro.blockdev.snapshot import SnapshottableVolume

            wrapped = SnapshottableVolume(volume)
            # re-export under the same IQN so attach paths are unchanged;
            # volumes are operator-provisioned resources, bounded by
            # explicit create calls rather than session churn
            # stormlint: ignore[bounded-tenant-registry]
            storage_host.target.exports[volume.iqn] = wrapped
            volume = wrapped
        self.volumes[name] = (volume, storage_host)
        tenant.volume_names.append(name)
        return volume

    def snapshot_volume(self, volume_name: str, snapshot_name: str):
        """Cinder-style snapshot of a snapshottable volume."""
        volume, _host = self.volume_location(volume_name)
        if not hasattr(volume, "create_snapshot"):
            raise ValueError(
                f"volume {volume_name!r} was not created snapshottable"
            )
        return volume.create_snapshot(snapshot_name)

    def volume_location(self, name: str) -> tuple[Volume, StorageHost]:
        try:
            return self.volumes[name]
        except KeyError:
            raise KeyError(f"unknown volume {name!r}")

    def attach_volume(self, vm: VirtualMachine, volume_name: str):
        """Process: legacy (direct) attach — no middle-box services."""
        volume, storage_host = self.volume_location(volume_name)
        session = yield self.sim.process(
            vm.host.attach_volume(
                vm, volume_name, volume.iqn, storage_host.storage_iface.ip
            )
        )
        return session
