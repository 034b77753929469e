"""Wiring: attach one :class:`~repro.obs.bus.ObsBus` to a built plant.

Every instrumented component carries an ``obs`` hook that defaults to
``None`` (the same zero-overhead pattern as ``Link.faults`` /
``Disk.fault_hook``); :func:`instrument` walks the topology once and
points every hook at the bus.  Objects created *after* instrumentation
(new gateways, relays, services, iSCSI sessions) are wired by their
creators — the platform and initiator propagate their own ``obs``
reference — so late provisioning does not escape the trace.

The per-packet elements (``Link``, ``Switch``, ``NatTable``) look their
hot counters (``link.tx`` / ``link.tx_bytes``, ``switch.l2`` /
``switch.flow_hit``, ``nat.conntrack_hit``) up in the registry once, on
the first increment after wiring, and keep the handles; assigning their
``obs`` drops those handles, so instrumenting a plant again moves every
counter to the new bus.  A counter is still created only when it first
counts, so the registry holds the same records as with a lookup per
packet.

Walking is duck-typed on the repo's own structure (switch ports,
node interfaces, host initiator/target/disk), so the function works on
a bare :class:`~repro.cloud.controller.CloudController` or a full
StorM platform.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:
    from repro.obs.bus import ObsBus


def _wire_link(bus: "ObsBus", link: Any, seen: set) -> int:
    if link is None or id(link) in seen:
        return 0
    seen.add(id(link))
    link.obs = bus
    link.obs_name = f"{link.a.name}<->{link.b.name}"
    return 1


def _wire_node(bus: "ObsBus", node: Any, seen: set) -> int:
    """Instrument a Node's NAT table and every link off its NICs."""
    links = 0
    stack = getattr(node, "stack", None)
    if stack is not None:
        # Gives the TCP hot path a cheap gate for its per-packet
        # trace-context copies.
        stack.obs_bus = bus
        stack.nat.obs = bus
        stack.nat.scope = node.name
    for iface in getattr(node, "interfaces", []):
        links += _wire_link(bus, iface.link, seen)
    return links


def _wire_switch(bus: "ObsBus", switch: Any, seen: set) -> int:
    switch.obs = bus
    links = 0
    for iface in switch.ports.values():
        links += _wire_link(bus, iface.link, seen)
    return links


def wire_node(bus: "ObsBus", node: Any) -> None:
    """Instrument one late-created node (gateway, middle-box): its NAT
    table and the links off its NICs.  Used by the platform when it
    provisions after :func:`instrument` has already run."""
    _wire_node(bus, node, set())


def instrument(
    bus: "ObsBus", cloud: Optional[Any] = None, storm: Optional[Any] = None
) -> dict:
    """Point every ``obs`` hook in the plant at ``bus``.

    Pass a ``storm`` platform (its cloud is implied) and/or a bare
    ``cloud``.  Returns a count summary, mostly for tests.
    """
    if storm is not None and cloud is None:
        cloud = storm.cloud
    seen: set = set()
    stats = {"switches": 0, "links": 0, "nodes": 0, "hosts": 0,
             "relays": 0, "services": 0}

    if cloud is not None:
        integrity = getattr(cloud, "integrity", None)
        if integrity is not None:
            integrity.obs = bus
        for switch in (cloud.storage_switch, cloud.fabric):
            stats["switches"] += 1
            stats["links"] += _wire_switch(bus, switch, seen)
        for host in cloud.compute_hosts.values():
            stats["hosts"] += 1
            stats["switches"] += 1
            stats["links"] += _wire_switch(bus, host.ovs, seen)
            stats["links"] += _wire_node(bus, host, seen)
            for vm in getattr(host, "vms", {}).values():
                stats["nodes"] += 1
                stats["links"] += _wire_node(bus, vm, seen)
            initiator = getattr(host, "initiator", None)
            if initiator is not None:
                initiator.obs = bus
                for session in getattr(initiator, "sessions", []):
                    session.obs = bus
        for host in cloud.storage_hosts.values():
            stats["hosts"] += 1
            stats["links"] += _wire_node(bus, host, seen)
            target = getattr(host, "target", None)
            if target is not None:
                target.obs = bus
            disk = getattr(host, "disk", None)
            if disk is not None:
                disk.obs = bus

    if storm is not None:
        storm.obs = bus
        storm.engine.obs = bus
        ha = getattr(storm, "ha", None)
        if ha is not None:
            # replication mesh links + the election/term/quorum gauges
            # (the cluster reads ``storm.obs`` dynamically; seed the
            # gauges now so a trace exported before any failover still
            # carries the cluster state)
            for node in ha.nodes:
                stats["nodes"] += 1
                stats["links"] += _wire_node(bus, node, seen)
            ha._update_gauges()
        for pair in storm.gateway_pairs.values():
            for gateway in (pair.ingress, pair.egress):
                stats["nodes"] += 1
                stats["links"] += _wire_node(bus, gateway, seen)
        for mb in storm.middleboxes.values():
            stats["nodes"] += 1
            stats["links"] += _wire_node(bus, mb, seen)
            relay = getattr(mb, "relay", None)
            if relay is not None:
                relay.obs = bus
                stats["relays"] += 1
            service = getattr(mb, "service", None)
            if service is not None:
                service.obs = bus
                stats["services"] += 1

    sim = getattr(cloud, "sim", None) or getattr(storm, "sim", None)
    express = sim.express if sim is not None else None
    if express is not None:
        # Paths compiled pre-instrumentation carry no counter plan:
        # demote them so re-promotion recompiles with obs wired in.
        express.demote_all("instrumented")
        express.obs = bus

    return stats
