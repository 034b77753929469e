"""Network splicing: storage gateways and the attach-time NAT rules.

A pair of per-tenant gateways bridges the isolated storage and
instance networks (paper §III-A): the *ingress* gateway pulls a flow
from the storage network into the tenant's virtual network, the
*egress* gateway returns it to the storage server.  IP masquerading on
both keeps storage-network addresses from ever appearing on the
instance network, and makes middle-boxes see only gateway addresses.

The NAT rules are *transient*: they exist only during the atomic
volume attach (installed → connect → removed), and the established
flow survives on conntrack — exactly the paper's protocol.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cloud.compute import ComputeHost
from repro.cloud.controller import CloudController
from repro.cloud.tenant import Tenant
from repro.iscsi.pdu import ISCSI_PORT
from repro.net.link import Interface
from repro.net.nat import NatRule
from repro.net.packet import FiveTuple
from repro.net.stack import Node
from repro.sim import Simulator


class StorageGateway(Node):
    """A dual-homed forwarding VM inside the tenant's network space;
    :func:`create_gateway` binds its two NICs as it plugs them."""

    def __init__(self, sim: Simulator, name: str, tenant: Tenant):
        super().__init__(sim, name)
        self.tenant = tenant
        self.host_name: str | None = None
        self.instance_iface: Interface | None = None
        self.storage_iface: Interface | None = None

    @property
    def storage_ip(self) -> str:
        return self.storage_iface.ip

    @property
    def instance_ip(self) -> str:
        return self.instance_iface.ip

    @property
    def instance_mac(self) -> str:
        return self.instance_iface.mac


@dataclass
class GatewayPair:
    ingress: StorageGateway
    egress: StorageGateway


def create_gateway(
    cloud: CloudController,
    tenant: Tenant,
    name: str,
    host: ComputeHost,
) -> StorageGateway:
    """Provision one gateway VM on ``host`` with NICs in both networks."""
    gateway = StorageGateway(cloud.sim, name, tenant)
    gateway.host_name = host.name
    gateway.instance_iface = cloud.plug_instance_iface(gateway, host, tenant)
    gateway.storage_iface = cloud.plug_storage_iface(gateway)
    gateway.stack.ip_forward = True
    gateway.stack.forward_delay = cloud.params.gateway_forward_delay
    return gateway


def create_gateway_pair(
    cloud: CloudController,
    tenant: Tenant,
    ingress_host: ComputeHost,
    egress_host: ComputeHost,
) -> GatewayPair:
    ingress = create_gateway(cloud, tenant, f"sgw-in-{tenant.name}", ingress_host)
    egress = create_gateway(cloud, tenant, f"sgw-out-{tenant.name}", egress_host)
    return GatewayPair(ingress, egress)


def install_attach_nat(
    host: ComputeHost,
    gateways: GatewayPair,
    target_ip: str,
    cookie: str,
    port: int = ISCSI_PORT,
) -> None:
    """Install the three transient NAT rules for one volume attach.

    - on the VM's host: redirect the new connection to the ingress
      gateway (OUTPUT, 3-tuple match — hence the mutex);
    - on the ingress gateway: masquerade into the instance network and
      point the flow at the egress gateway;
    - on the egress gateway: masquerade back into the storage network
      and restore the true target address.
    """
    host.stack.nat.install(
        NatRule(
            match_dst_ip=target_ip,
            match_dst_port=port,
            dnat_ip=gateways.ingress.storage_ip,
            hook="output",
            cookie=cookie,
        )
    )
    gateways.ingress.stack.nat.install(
        NatRule(
            match_dst_ip=gateways.ingress.storage_ip,
            match_dst_port=port,
            snat_ip=gateways.ingress.instance_ip,
            dnat_ip=gateways.egress.instance_ip,
            hook="prerouting",
            cookie=cookie,
        )
    )
    gateways.egress.stack.nat.install(
        NatRule(
            match_dst_ip=gateways.egress.instance_ip,
            match_dst_port=port,
            snat_ip=gateways.egress.storage_ip,
            dnat_ip=target_ip,
            hook="prerouting",
            cookie=cookie,
        )
    )


def remove_attach_nat(host: ComputeHost, gateways: GatewayPair, cookie: str) -> int:
    """Remove the transient rules; established flows keep their conntrack."""
    removed = host.stack.nat.remove_by_cookie(cookie)
    removed += gateways.ingress.stack.nat.remove_by_cookie(cookie)
    removed += gateways.egress.stack.nat.remove_by_cookie(cookie)
    return removed


def forget_attach_conntrack(
    host: ComputeHost,
    gateways: GatewayPair,
    target_ip: str,
    src_port: int,
    port: int = ISCSI_PORT,
) -> int:
    """Drop the conntrack entries one attach pinned, on all three hops.

    The tuples are exactly what :func:`install_attach_nat`'s rules
    recorded for a connection from ``host``'s storage NIC on
    ``src_port``: the original flow at the host's OUTPUT hook, the
    host-DNATed flow arriving at the ingress gateway, and the
    ingress-masqueraded flow arriving at the egress gateway.  Returns
    the number of forward entries removed (reply entries go with
    them).  Safe any time after the flow's session is closed — without
    this, conntrack grows O(ever-attached) under fleet churn.
    """
    src_ip = host.storage_iface.ip
    removed = 0
    for nat, original in (
        (host.stack.nat, FiveTuple("tcp", src_ip, src_port, target_ip, port)),
        (
            gateways.ingress.stack.nat,
            FiveTuple("tcp", src_ip, src_port, gateways.ingress.storage_ip, port),
        ),
        (
            gateways.egress.stack.nat,
            FiveTuple(
                "tcp",
                gateways.ingress.instance_ip,
                src_port,
                gateways.egress.instance_ip,
                port,
            ),
        ),
    ):
        before = len(nat.conntrack)
        nat.conntrack.forget(original)
        removed += before - len(nat.conntrack)
    return removed


def release_gateway_pair(cloud: CloudController, pair: GatewayPair) -> None:
    """Reverse of :func:`create_gateway_pair`: unplug both gateways'
    NICs from the host OVS and the storage switch and retire their
    addresses.  Idempotent; callers must first ensure no live flow
    still traverses the pair."""
    for gateway in (pair.ingress, pair.egress):
        host = cloud.compute_hosts.get(gateway.host_name or "")
        if host is not None:
            cloud.unplug_instance_iface(gateway, host)
        cloud.unplug_storage_iface(gateway)
