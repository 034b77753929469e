"""A pending restart of a VM deleted while it was down brings nothing
back: deleting the VM severs its NICs and discards the wiring its crash
saved, so the restart re-plugs nothing and the VM stays down."""

from repro.testbed import Testbed


def _assert_severed(iface):
    assert iface.link is None
    assert iface.owner is None
    assert iface._peer is None and iface._horizon is None
    assert iface._saved_wiring is None


def test_restart_of_a_deprovisioned_box_replugs_nothing():
    bed = Testbed()
    mb = bed.storm.provision_middlebox(
        bed.tenant, bed.spec(relay="fwd", placement="compute3")
    )
    nic = mb.instance_iface
    port = nic._peer
    bed.injector.crash(mb, restart_after=0.1)
    bed.storm.deprovision_middlebox(mb)
    bed.sim.run(until=0.2)
    _assert_severed(nic)
    assert port.link is None and port._peer is None
    assert mb.crashed


def test_restart_of_a_released_gateway_replugs_nothing():
    bed = Testbed()
    flow, _mbs = bed.attach([bed.spec(relay="fwd", placement="compute3")])
    gateway = flow.gateways.ingress
    nics = list(gateway.interfaces)
    assert len(nics) == 2
    bed.injector.crash(gateway, restart_after=0.1)
    bed.storm.detach(flow)  # the tenant's last flow: the pair is released
    assert bed.tenant.name not in bed.storm.gateway_pairs
    bed.sim.run(until=bed.sim.now + 0.2)
    for nic in nics:
        _assert_severed(nic)
    assert gateway.crashed
