"""One attachment per intercepting middle-box.

A passive or active box keeps per-box state (the relay journal, a
service's view, replicas or keystream), so the platform binds it to the
attach cookie of its first flow and refuses any other.  ``fwd`` boxes
keep nothing and carry many flows (the scaling pools)."""

import pytest

from repro.blockdev.disk import BLOCK_SIZE
from repro.core.policy import ChainPolicy, PolicyError, ServiceSpec, TenantPolicy
from repro.fs import ExtFilesystem
from repro.testbed import assert_at_rest

VOL2_BYTES = 64 * BLOCK_SIZE


def make_vol2(env):
    return env.cloud.create_volume(env.tenant, "vol2", VOL2_BYTES)


def attach_vol2(env, mbs):
    """Process: attach ``vol2`` to ``vm1`` through ``mbs``, gateways
    where :meth:`Testbed.attach` put them."""
    hosts = env.cloud.compute_hosts
    return env.storm.attach_with_services(
        env.tenant, env.vm, "vol2", mbs,
        ingress_host=hosts["compute2"], egress_host=hosts["compute4"],
    )


def refuse_vol2(env, mbs):
    """Attaching ``vol2`` through ``mbs`` raises, and leaves vol1's flow
    the only one, ``vol2`` untouched and the bed at rest."""
    vol2 = make_vol2(env)
    with pytest.raises(PolicyError, match="already serves storm:vm1:vol1"):
        env.run(attach_vol2(env, mbs))
    assert list(env.storm.flows) == [env.flow]
    assert vol2.read_sync(0, VOL2_BYTES) == bytes(VOL2_BYTES)
    assert_at_rest(env.storm)


def test_active_box_refuses_a_second_flow(env):
    flow, (mb,) = env.attach([env.spec(relay="active")])
    refuse_vol2(env, [mb])
    assert mb.attachment == flow.cookie
    assert len(mb.relay.pairs) == 1
    # a reset of vol1's leg replays vol1's one entry, into vol1
    payload = bytes([0xA1]) * BLOCK_SIZE

    def scenario():
        event = flow.session.write(0, BLOCK_SIZE, payload)
        yield env.sim.timeout(0.0005)
        mb.relay.pairs[0].client.reset()
        yield event

    env.run(scenario())
    assert mb.relay.pdus_replayed == 1
    assert env.volume.read_sync(0, BLOCK_SIZE) == payload


def test_passive_box_refuses_a_second_flow(env):
    flow, (mb,) = env.attach([env.spec(relay="passive")])
    refuse_vol2(env, [mb])
    assert mb.attachment == flow.cookie


def test_replication_box_refuses_a_second_flow(env):
    spec = ServiceSpec("rep", "replication", relay="active", placement="compute3")
    flow, (mb,) = env.attach([spec])
    mb_host = env.cloud.compute_hosts[mb.host_name]
    rhost, rvol = env.add_replica_target("rstorage1")

    def add_replica():
        session = yield env.sim.process(
            mb_host.initiator.connect(rhost.storage_iface.ip, rvol.iqn)
        )
        mb.service.add_replica(session, "rep1")

    env.run(add_replica())
    refuse_vol2(env, [mb])
    assert rvol.read_sync(0, VOL2_BYTES) == bytes(VOL2_BYTES)


def test_fwd_box_carries_many_flows(env):
    flow, (mb,) = env.attach([env.spec(relay="fwd")])
    make_vol2(env)
    flow2 = env.run(attach_vol2(env, [mb]))
    assert list(env.storm.flows) == [flow, flow2]
    assert mb.attachment is None


def test_deploy_policy_with_one_active_box_in_two_chains_leaves_nothing(env):
    ExtFilesystem.mkfs(env.volume)
    ExtFilesystem.mkfs(make_vol2(env))
    policy = TenantPolicy(
        tenant="acme",
        services=[ServiceSpec("mon", "monitor", relay="active")],
        chains=[ChainPolicy("vm1", "vol1", ["mon"]), ChainPolicy("vm1", "vol2", ["mon"])],
    )

    def deploy():
        yield env.sim.process(env.storm.deploy_policy(policy))

    with pytest.raises(PolicyError, match="already serves storm:vm1:vol1"):
        env.run(deploy())
    assert env.storm.flows == {}
    assert env.storm.middleboxes == {}


def test_reconfigure_onto_a_passive_box_of_another_flow_is_refused(env):
    flow, (fwd,) = env.attach([env.spec(name="f", relay="fwd")])
    passive = env.storm.provision_middlebox(env.tenant, env.spec(name="p", relay="passive"))
    make_vol2(env)
    flow2 = env.run(attach_vol2(env, [passive]))
    assert passive.attachment == flow2.cookie
    with pytest.raises(PolicyError, match="already serves storm:vm1:vol2"):
        env.storm.reconfigure_chain(flow, [fwd, passive])
    assert flow.middleboxes == [fwd]
    assert flow.desired == (fwd,)
    assert_at_rest(env.storm)
    # a fresh passive box is bound to the flow its chain gains it on
    fresh = env.storm.provision_middlebox(env.tenant, env.spec(name="q", relay="passive"))
    env.storm.reconfigure_chain(flow, [fwd, fresh])
    assert fresh.attachment == flow.cookie


def test_object_session_through_a_block_flows_box_is_refused(env):
    flow, (mb,) = env.attach([env.spec(relay="active")])
    server_ip = env.storage.storage_iface.ip

    def attach_object():
        yield env.sim.process(
            env.storm.attach_object_session(env.tenant, env.vm, server_ip, [mb], port=9000)
        )

    with pytest.raises(PolicyError, match="already serves storm:vm1:vol1"):
        env.run(attach_object())
    assert list(env.storm.flows) == [flow]
    assert mb.relay.egress_port == flow.chain.service_port


def abandon_in_flight_write(env, flow, mb, payload):
    """A write in flight when the relay's storage leg dies with no
    reconnect left: the relay gives up and resets the VM side, which
    ends the pair and empties the journal (the initiator re-issues the
    write on a fresh pair).  Returns the journal and the command map as
    they stood while the write was in flight."""
    mb.relay.max_reconnects = 0
    flow.session.write(0, BLOCK_SIZE, payload)
    env.sim.run(until=env.sim.now + 0.0005)
    in_flight = dict(mb.relay.nvm), dict(mb.relay._command_entries)
    assert in_flight[0] and in_flight[1]
    pair = mb.relay.pairs[0]
    pair.client.reset()
    env.sim.run(until=env.sim.now + 0.001)
    assert pair.closed
    assert pair not in mb.relay.pairs  # closed, both pumps returned
    assert mb.relay.nvm == {}
    assert mb.relay._command_entries == {}
    return in_flight


def test_detach_empties_the_journal_of_a_live_pair(env):
    flow, (mb,) = env.attach([env.spec(relay="active")])
    flow.session.write(0, BLOCK_SIZE, bytes([0x0D]) * BLOCK_SIZE)
    env.sim.run(until=env.sim.now + 0.0005)
    assert mb.relay.nvm and mb.relay._command_entries
    env.storm.detach(flow)
    # evict-state ran before the VM's close reached the relay
    assert mb.relay.nvm == {}
    assert mb.relay._command_entries == {}
    assert_at_rest(env.storm)


def test_at_rest_flags_a_journal_that_outlived_its_flow(env):
    flow, (mb,) = env.attach([env.spec(relay="active")])
    kept = abandon_in_flight_write(env, flow, mb, bytes([0x0E]) * BLOCK_SIZE)
    env.storm.detach(flow)
    mb.relay.nvm.update(kept[0])
    mb.relay._command_entries.update(kept[1])
    with pytest.raises(AssertionError, match="journal outlived its flow"):
        assert_at_rest(env.storm)
    mb.relay.clear_journal()


def test_reattach_through_the_same_box_replays_nothing_stale(env):
    """Detach and re-attach of one VM volume through one active box: the
    first session's given-up write must not replay over the second
    session's newer write when the second session's storage leg fails."""
    flow, (mb,) = env.attach([env.spec(relay="active")])
    abandon_in_flight_write(env, flow, mb, bytes([0x01]) * BLOCK_SIZE)
    env.storm.detach(flow)
    mb.relay.max_reconnects = 3
    hosts = env.cloud.compute_hosts
    again = env.run(
        env.storm.attach_with_services(
            env.tenant, env.vm, "vol1", [mb],
            ingress_host=hosts["compute2"], egress_host=hosts["compute4"],
        )
    )
    assert again.cookie == flow.cookie == mb.attachment
    assert len(mb.relay.pairs) == 1  # the detached session's pair is gone
    newer = bytes([0x02]) * BLOCK_SIZE

    def scenario():
        yield again.session.write(0, BLOCK_SIZE, newer)
        mb.relay.pairs[-1].client.reset()
        yield env.sim.timeout(0.2)  # the relay reconnects and replays
        yield again.session.write(BLOCK_SIZE, BLOCK_SIZE, newer)

    env.run(scenario())
    assert mb.relay.pairs[-1].reconnects == 1
    assert mb.relay.pdus_replayed == 0
    assert env.volume.read_sync(0, BLOCK_SIZE) == newer
    env.storm.detach(again)
