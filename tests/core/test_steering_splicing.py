"""Unit tests for the splicing/steering/attribution building blocks."""

from repro.core.attribution import ConnectionAttributor
from repro.core.splicing import (
    create_gateway_pair,
    install_attach_nat,
    remove_attach_nat,
)
from repro.core.steering import SteeringChain, build_chain_rules
from repro.net.switch import ModDstMac


def make_gateways(env):
    return create_gateway_pair(
        env.cloud,
        env.tenant,
        env.cloud.compute_hosts["compute2"],
        env.cloud.compute_hosts["compute4"],
    )


def test_gateway_has_feet_in_both_networks(env):
    pair = make_gateways(env)
    assert pair.ingress.storage_ip.startswith("10.0.0.")
    assert pair.ingress.instance_ip.startswith("172.16.")
    assert pair.ingress.stack.ip_forward
    assert pair.egress.host_name == "compute4"


def test_attach_nat_rule_shape(env):
    pair = make_gateways(env)
    host = env.cloud.compute_hosts["compute1"]
    install_attach_nat(host, pair, target_ip="10.0.0.99", cookie="test")
    # host: OUTPUT redirect toward the ingress gateway
    (host_rule,) = host.stack.nat.rules
    assert host_rule.hook == "output"
    assert host_rule.match_dst_ip == "10.0.0.99"
    assert host_rule.dnat_ip == pair.ingress.storage_ip
    # ingress: masquerade into the instance network, point at egress
    (in_rule,) = pair.ingress.stack.nat.rules
    assert in_rule.hook == "prerouting"
    assert in_rule.snat_ip == pair.ingress.instance_ip
    assert in_rule.dnat_ip == pair.egress.instance_ip
    # egress: masquerade back, restore the true target
    (out_rule,) = pair.egress.stack.nat.rules
    assert out_rule.snat_ip == pair.egress.storage_ip
    assert out_rule.dnat_ip == "10.0.0.99"
    assert remove_attach_nat(host, pair, "test") == 3
    assert not host.stack.nat.rules


def test_chain_rules_empty_for_no_middleboxes(env):
    pair = make_gateways(env)
    assert build_chain_rules(pair, [], cookie="c") == []


def chain_with_mbs(env, count):
    pair = make_gateways(env)
    mbs = [
        env.storm.provision_middlebox(
            env.tenant, env.spec(name=f"m{i}", relay="fwd", placement=f"compute{i + 2}")
        )
        for i in range(count)
    ]
    return pair, mbs


def test_chain_rules_forward_units(env):
    """The Fig. 3 structure: one rule per forwarding unit, per direction."""
    pair, (mb1, mb2) = chain_with_mbs(env, 2)
    rules = build_chain_rules(pair, [mb1, mb2], cookie="c", src_port=5555)
    assert len(rules) == 4  # 2 forward + 2 reverse
    (sw1, fwd1), (sw2, fwd2), (sw3, rev1), (sw4, rev2) = rules
    # forward unit 1: on the ingress gateway's OVS, steering to mb1
    assert sw1 == f"ovs-{pair.ingress.host_name}"
    assert fwd1.src_mac == pair.ingress.instance_mac
    assert fwd1.dst_mac == pair.egress.instance_mac
    assert isinstance(fwd1.actions[0], ModDstMac) and fwd1.actions[0].new_mac == mb1.mac
    # forward unit 2: on mb1's OVS, frames re-emitted by mb1 go to mb2
    assert sw2 == f"ovs-{mb1.host_name}"
    assert fwd2.src_mac == mb1.mac
    assert fwd2.actions[0].new_mac == mb2.mac
    # reverse path starts at the egress gateway, steering to mb2 first
    assert sw3 == f"ovs-{pair.egress.host_name}"
    assert rev1.src_mac == pair.egress.instance_mac
    assert rev1.actions[0].new_mac == mb2.mac
    assert rev2.src_mac == mb2.mac and rev2.actions[0].new_mac == mb1.mac
    # 4-tuple matching: ports are pinned
    assert fwd1.src_port == 5555 and fwd1.dst_port == 3260
    assert rev1.src_port == 3260 and rev1.dst_port == 5555


def test_chain_wildcard_then_narrow(env):
    pair, mbs = chain_with_mbs(env, 1)
    chain = SteeringChain(env.cloud.sdn, pair, mbs, cookie="flow-x")
    assert chain.install(src_port=None) == 2
    installed = env.cloud.sdn.rules_for_cookie("flow-x")
    assert all(r.src_port is None or r.src_port == 3260 for _s, r in installed)
    from repro.core.steering import WILDCARD_PRIORITY, NARROWED_PRIORITY

    assert all(r.priority == WILDCARD_PRIORITY for _s, r in installed)
    chain.narrow(4242)
    narrowed = env.cloud.sdn.rules_for_cookie("flow-x")
    assert len(narrowed) == 2
    # make-before-break narrowing bumps the generation; priority is
    # NARROWED_PRIORITY + generation so the new rules shadow the old
    assert all(r.priority >= NARROWED_PRIORITY for _s, r in narrowed)
    assert {r.src_port for _s, r in narrowed} == {4242, 3260}
    assert chain.remove() == 2
    assert env.cloud.sdn.rules_for_cookie("flow-x") == []


def test_chain_reconfigure_swaps_rules(env):
    pair, (mb1,) = chain_with_mbs(env, 1)
    chain = SteeringChain(env.cloud.sdn, pair, [mb1], cookie="flow-y")
    chain.install(src_port=7777)
    mb2 = env.storm.provision_middlebox(
        env.tenant, env.spec(name="extra", relay="fwd", placement="compute4")
    )
    chain.reconfigure([mb1, mb2])
    rules = env.cloud.sdn.rules_for_cookie("flow-y")
    assert len(rules) == 4
    # the new box appears in the rewrite targets
    targets = {r.actions[0].new_mac for _s, r in rules}
    assert mb2.mac in targets
    # the src_port survived the reconfiguration
    assert {r.src_port for _s, r in rules} == {7777, 3260}


def test_attributor_ignores_unmanaged_connections(env):
    attributor = ConnectionAttributor()
    host = env.cloud.compute_hosts["compute1"]
    attributor.watch_host(host)
    attributor.watch_host(host)  # idempotent
    assert len(host.initiator.login_hooks) == 1
    # a login with no hypervisor record (not attached via the cloud API)
    host.initiator.login_hooks[0]("iqn.2016-01.org.repro:ghost", 55555)
    assert len(attributor) == 0
    assert attributor.attribute(host.storage_iface.ip, 55555) is None


def test_attributor_resolves_and_lists_by_vm(env):
    attributor = ConnectionAttributor()
    host = env.cloud.compute_hosts["compute1"]
    attributor.watch_host(host)

    def attach():
        yield env.sim.process(env.cloud.attach_volume(env.vm, "vol1"))

    env.run(attach())
    records = attributor.records_for_vm("vm1")
    assert len(records) == 1
    record = records[0]
    assert record.volume_name == "vol1"
    assert attributor.attribute(host.storage_iface.ip, record.local_port) is record
