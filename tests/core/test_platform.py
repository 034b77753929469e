"""End-to-end StorM platform tests: splicing, steering, relays, attach."""

import pytest

from repro.blockdev.disk import BLOCK_SIZE
from repro.core import Reconciler



def io_roundtrip(env, flow, payload=None, offset=0):
    payload = payload or bytes([0x21] * BLOCK_SIZE)
    result = {}

    def io():
        yield flow.session.write(offset, len(payload), payload)
        result["read"] = yield flow.session.read(offset, len(payload))

    env.run(io())
    return payload, result["read"]


def test_fwd_chain_roundtrip_and_path(env):
    flow, (mb,) = env.attach([env.spec(relay="fwd")])
    seen = []
    mb.stack.packet_taps.append(lambda p, i: seen.append(p))
    payload, read_back = io_roundtrip(env, flow)
    assert read_back == payload
    assert len(seen) > 0, "middle-box never saw the flow"
    # the VM's host talks to the true target address, unaware of splicing
    assert flow.session.alive


def test_middlebox_sees_only_gateway_addresses(env):
    """Isolation property: storage-network IPs never reach the MB."""
    flow, (mb,) = env.attach([env.spec(relay="fwd")])
    seen = []
    mb.stack.packet_taps.append(lambda p, i: seen.append((p.src_ip, p.dst_ip)))
    io_roundtrip(env, flow)
    gateway_ips = {
        flow.gateways.ingress.instance_ip,
        flow.gateways.egress.instance_ip,
        mb.ip,
    }
    for src_ip, dst_ip in seen:
        assert src_ip in gateway_ips and dst_ip in gateway_ips
    # specifically: nothing from the storage subnet leaked through
    assert not any(ip.startswith("10.0.0.") for pair in seen for ip in pair)


def test_transient_nat_rules_removed_after_attach(env):
    flow, _ = env.attach([env.spec(relay="fwd")])
    assert len(env.vm.host.stack.nat.rules) == 0
    assert len(flow.gateways.ingress.stack.nat.rules) == 0
    assert len(flow.gateways.egress.stack.nat.rules) == 0
    # ...but the established flow still works (conntrack)
    payload, read_back = io_roundtrip(env, flow)
    assert read_back == payload


def test_steering_rules_narrowed_to_flow_port(env):
    flow, _ = env.attach([env.spec(relay="fwd")])
    rules = env.cloud.sdn.rules_for_cookie(flow.cookie)
    assert rules, "no steering rules installed"
    assert all(r.src_port == flow.src_port or r.dst_port == flow.src_port for _, r in rules)


def test_attribution_resolves_vm_and_volume(env):
    flow, _ = env.attach([env.spec(relay="fwd")])
    record = flow.attribution
    assert record is not None
    assert record.vm_name == "vm1"
    assert record.volume_name == "vol1"
    assert record.local_port == flow.src_port


def test_two_middlebox_chain_traverses_both_in_order(env):
    flow, (mb1, mb2) = env.attach(
        [env.spec(name="first", relay="fwd"), env.spec(name="second", relay="fwd")]
    )
    hops = {mb1.name: [], mb2.name: []}
    mb1.stack.packet_taps.append(lambda p, i: hops[mb1.name].append(p))
    mb2.stack.packet_taps.append(lambda p, i: hops[mb2.name].append(p))
    payload, read_back = io_roundtrip(env, flow)
    assert read_back == payload
    assert hops[mb1.name] and hops[mb2.name]
    # at least one upstream packet passed mb1 before mb2
    common = {id(p) for p in hops[mb1.name]} & {id(p) for p in hops[mb2.name]}
    assert common, "no packet traversed both middle-boxes"


def test_active_relay_roundtrip(env):
    flow, (mb,) = env.attach([env.spec(relay="active")])
    payload, read_back = io_roundtrip(env, flow)
    assert read_back == payload
    assert mb.relay.pdus_relayed > 0
    assert len(mb.relay.pairs) == 1


def test_active_relay_nvm_drains_after_delivery(env):
    flow, (mb,) = env.attach([env.spec(relay="active")])
    io_roundtrip(env, flow)
    env.sim.run()  # let all acks land
    assert len(mb.relay.nvm) == 0
    assert mb.relay.nvm_peak >= 1


def test_active_relay_transform_encrypts_at_rest(env):
    flow, (mb,) = env.attach([env.spec(kind="xor", relay="active")])
    payload = bytes(range(256)) * (BLOCK_SIZE // 256)
    got = io_roundtrip(env, flow, payload=payload)[1]
    assert got == payload  # reads are decrypted for the VM...
    at_rest = env.volume.read_sync(0, BLOCK_SIZE)
    assert at_rest != payload  # ...but the volume holds ciphertext
    assert at_rest == bytes(b ^ 0x5A for b in payload)


def test_passive_relay_transform_encrypts_at_rest(env):
    flow, (mb,) = env.attach([env.spec(kind="xor", relay="passive")])
    payload = bytes([7] * BLOCK_SIZE)
    got = io_roundtrip(env, flow, payload=payload)[1]
    assert got == payload
    assert env.volume.read_sync(0, BLOCK_SIZE) == bytes(b ^ 0x5A for b in payload)
    assert mb.relay.packets_copied > 0


def test_active_chain_of_two_relays(env):
    flow, (mb1, mb2) = env.attach(
        [env.spec(name="enc", kind="xor", relay="active"), env.spec(name="fwd2", relay="active")]
    )
    payload = bytes([3] * BLOCK_SIZE)
    got = io_roundtrip(env, flow, payload=payload)[1]
    assert got == payload
    assert mb1.relay.pdus_relayed > 0 and mb2.relay.pdus_relayed > 0


def test_legacy_attach_unaffected_by_storm_flows(env):
    """A second VM without services talks straight to storage."""
    flow, _ = env.attach([env.spec(relay="fwd")])
    vm2 = env.cloud.boot_vm(env.tenant, "vm2", env.cloud.compute_hosts["compute3"])
    env.cloud.create_volume(env.tenant, "vol2", 256 * BLOCK_SIZE)
    result = {}

    def legacy():
        session = yield env.sim.process(env.cloud.attach_volume(vm2, "vol2"))
        yield session.write(0, BLOCK_SIZE, b"\x11" * BLOCK_SIZE)
        result["data"] = yield session.read(0, BLOCK_SIZE)

    env.run(legacy())
    assert result["data"] == b"\x11" * BLOCK_SIZE
    # the legacy flow never crossed the instance network gateways
    vol2 = env.cloud.volumes["vol2"][0]
    assert vol2.read_sync(0, BLOCK_SIZE) == b"\x11" * BLOCK_SIZE


def test_second_spliced_volume_same_tenant(env):
    """Gateways are shared per tenant; each volume gets its own chain."""
    flow1, _ = env.attach([env.spec(name="s1", relay="fwd")])
    env.cloud.create_volume(env.tenant, "vol2", 256 * BLOCK_SIZE)
    mb2 = env.storm.provision_middlebox(env.tenant, env.spec(name="s2", relay="fwd"))

    def attach2():
        return (
            yield env.sim.process(
                env.storm.attach_with_services(env.tenant, env.vm, "vol2", [mb2])
            )
        )

    flow2 = env.run(attach2())
    assert flow1.gateways is flow2.gateways
    assert flow1.src_port != flow2.src_port
    # both flows do I/O correctly
    for flow, fill in ((flow1, b"\xaa"), (flow2, b"\xbb")):
        payload = fill * BLOCK_SIZE

        def io(flow=flow, payload=payload):
            yield flow.session.write(0, BLOCK_SIZE, payload)

        env.run(io())
    assert env.volume.read_sync(0, BLOCK_SIZE) == b"\xaa" * BLOCK_SIZE
    assert env.cloud.volumes["vol2"][0].read_sync(0, BLOCK_SIZE) == b"\xbb" * BLOCK_SIZE


def test_detaching_the_middle_flow_keeps_attach_order(env):
    """The flow registry is insertion-ordered: detaching the middle one
    of three flows leaves the other two in attach order — the order the
    Reconciler walks them in — and the tenant's flow count follows."""
    mb = env.storm.provision_middlebox(env.tenant, env.spec(name="s", relay="fwd"))
    flows = []
    for volume in ("vol1", "vol2", "vol3"):
        if volume != "vol1":
            env.cloud.create_volume(env.tenant, volume, 256 * BLOCK_SIZE)
        flows.append(
            env.run(env.storm.attach_with_services(env.tenant, env.vm, volume, [mb]))
        )
    assert list(env.storm.flows) == flows
    assert env.storm.tenant_flow_count(env.tenant.name) == 3
    env.storm.detach(flows[1])
    assert flows[1] not in env.storm.flows
    assert list(env.storm.flows) == [flows[0], flows[2]]
    assert Reconciler(env.storm)._live_flows() == [flows[0], flows[2]]
    assert env.storm.tenant_flow_count(env.tenant.name) == 2


def test_reconfigure_fwd_chain_add_remove(env):
    flow, (mb1,) = env.attach([env.spec(name="a", relay="fwd")])
    mb2 = env.storm.provision_middlebox(env.tenant, env.spec(name="b", relay="fwd"))
    env.storm.reconfigure_chain(flow, [mb1, mb2])
    seen2 = []
    mb2.stack.packet_taps.append(lambda p, i: seen2.append(p))
    payload, read_back = io_roundtrip(env, flow)
    assert read_back == payload
    assert seen2, "new middle-box not on the path after reconfigure"
    # remove all middle-boxes: flow still works (gateways only)
    env.storm.reconfigure_chain(flow, [])
    payload, read_back = io_roundtrip(env, flow, offset=BLOCK_SIZE)
    assert read_back == payload


def test_reconfigure_active_chain_rejected(env):
    flow, (mb,) = env.attach([env.spec(relay="active")])
    from repro.core.policy import PolicyError

    with pytest.raises(PolicyError, match="active-relay"):
        env.storm.reconfigure_chain(flow, [])


def test_detach_removes_rules(env):
    flow, _ = env.attach([env.spec(relay="fwd")])
    env.storm.detach(flow)
    assert env.cloud.sdn.rules_for_cookie(flow.cookie) == []
    assert flow not in env.storm.flows
