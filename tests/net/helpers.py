"""Small topology builders shared by net-layer tests."""

from repro.net import ArpTable, Interface, Link, Node, Switch
from repro.sim import Simulator


def make_host(sim, arp, name, ip, mac, switch, port_name=None, **link_kw):
    """A one-NIC node cabled into ``switch``; returns the node."""
    node = Node(sim, name)
    iface = Interface(f"{name}.eth0", mac, ip)
    node.add_interface(iface, arp)
    node.stack.add_route("0.0.0.0/0", iface)
    sw_port = switch.add_port(port_name or name)
    Link(sim, iface, sw_port, **link_kw)
    return node


def two_hosts_one_switch(sim=None):
    """host-a <-> sw <-> host-b on 10.0.0.0/24."""
    sim = sim or Simulator()
    arp = ArpTable("testnet")
    switch = Switch(sim, "sw")
    a = make_host(sim, arp, "host-a", "10.0.0.1", "aa:00:00:00:00:01", switch)
    b = make_host(sim, arp, "host-b", "10.0.0.2", "aa:00:00:00:00:02", switch)
    return sim, arp, switch, a, b


def routed_pair(sim=None):
    """host-a <-> sw <-> router <-> host-b: 10.0.0.0/24 behind the
    switch, 10.0.1.0/24 on the router's private link to host-b.
    Returns ``(sim, switch, a, router, b, last_link)``."""
    sim = sim or Simulator()
    near, far = ArpTable("near"), ArpTable("far")
    switch = Switch(sim, "sw")
    a = make_host(sim, near, "host-a", "10.0.0.1", "aa:00:00:00:00:01", switch)
    a.stack.add_route("10.0.1.0/24", a.interfaces[0], via="10.0.0.254")
    router = Node(sim, "router")
    router.stack.ip_forward = True
    router.stack.forward_delay = 6e-6
    r_in = router.add_interface(Interface("router.in", "aa:00:00:00:00:fe", "10.0.0.254"), near)
    Link(sim, r_in, switch.add_port("router"))
    router.stack.add_route("10.0.0.0/24", r_in)
    r_out = router.add_interface(Interface("router.out", "aa:00:00:00:01:fe", "10.0.1.254"), far)
    router.stack.add_route("10.0.1.0/24", r_out)
    b = Node(sim, "host-b")
    b_if = b.add_interface(Interface("host-b.eth0", "aa:00:00:00:01:02", "10.0.1.2"), far)
    b.stack.add_route("0.0.0.0/0", b_if, via="10.0.1.254")
    last_link = Link(sim, r_out, b_if)
    return sim, switch, a, router, b, last_link
