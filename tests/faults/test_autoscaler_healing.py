"""Scaling-pool self-healing (crash -> evict/replace/re-steer, run by
the control loop's width policy) and the deprovision path: shrink and
healing must return the dead VM's host capacity instead of leaking it."""

import pytest

from repro.blockdev.disk import BLOCK_SIZE
from repro.cloud import CloudParams
from repro.core import Reconciler
from repro.core.policy import PolicyError
from repro.core.scaling import ScalingPool

from tests.conftest import at_rest
from tests.faults.conftest import fault_env


@pytest.fixture
def env():
    yield from at_rest(fault_env(params=CloudParams(tcp_rto=0.02)))


def build_fwd_flows(env, n_flows=2):
    """n volumes for vm1, all initially steered through one fwd box."""
    mb = env.storm.provision_middlebox(env.tenant, env.spec(name="pool0", relay="fwd"))
    flows = []
    for i in range(n_flows):
        name = f"scaled-vol{i}"
        env.cloud.create_volume(env.tenant, name, 1024 * BLOCK_SIZE)

        def attach(name=name):
            return (
                yield env.sim.process(
                    env.storm.attach_with_services(env.tenant, env.vm, name, [mb])
                )
            )

        flows.append(env.run(attach()))
    return mb, flows


def test_crashed_pool_member_is_healed(env):
    mb0, flows = build_fwd_flows(env)
    scaler = ScalingPool(
        env.storm,
        env.tenant,
        env.spec(name="pool", relay="fwd"),
        flows,
        initial_pool=[mb0],
        max_size=2,
        high_watermark=1e12,  # never grow
        low_watermark=0.0,  # never shrink
    )
    loop = Reconciler(env.storm)
    env.sim.process(loop.run(interval=0.05))
    session = flows[0].session
    payload = bytes([0x5A] * BLOCK_SIZE)

    def scenario():
        yield session.write(0, BLOCK_SIZE, payload)
        env.injector.crash(mb0)  # the VM dies for good
        # issued during the outage: TCP retransmits bridge the gap until
        # the loop re-steers the flow onto the replacement box
        yield session.write(BLOCK_SIZE, BLOCK_SIZE, payload)
        loop.stop()

    env.run(scenario())
    assert len(env.events("pool.replace")) == 1
    kinds = [e["kind"] for e in env.events("pool.")]
    healing = [kind for kind in kinds if kind in ("pool.evict", "pool.replace")]
    assert healing == ["pool.evict", "pool.replace"]
    assert len(scaler.members()) == 1
    clone = scaler.members()[0]
    assert clone is not mb0
    # flows were steered off the dead box
    for flow in flows:
        assert flow.middleboxes == [clone]
    # the dead VM was reclaimed, not leaked
    assert mb0.name not in env.storm.middleboxes
    assert env.events("pool.evict") and env.events("pool.replace")
    vol, _host = env.cloud.volumes["scaled-vol0"]
    assert vol.read_sync(BLOCK_SIZE, BLOCK_SIZE) == payload


# -- satellite: shrink must deprovision, not leak the VM ----------------------


def test_shrink_deprovisions_retired_box(env):
    mb0, flows = build_fwd_flows(env)
    scaler = ScalingPool(
        env.storm,
        env.tenant,
        env.spec(name="pool", relay="fwd"),
        flows,
        initial_pool=[mb0],
        max_size=2,
        high_watermark=1e12,
        low_watermark=1e12,  # shrink at the first opportunity
    )
    loop = Reconciler(env.storm)
    env.sim.process(loop.run(interval=0.05))
    # grow the pool by hand so there is something to shrink
    clone = scaler.provision()
    host = env.cloud.compute_hosts[clone.host_name]
    committed_before = (host.committed_vcpus, host.committed_memory_mb)

    def scenario():
        yield env.sim.timeout(0.3)
        loop.stop()

    env.run(scenario())
    assert env.events("pool.shrink")
    assert scaler.members() == [mb0]
    # satellite 1: the retired VM is fully reclaimed
    assert clone.name not in env.storm.middleboxes
    assert clone.instance_iface.link is None  # OVS port removed
    assert (host.committed_vcpus, host.committed_memory_mb) == (
        committed_before[0] - clone.vcpus,
        committed_before[1] - clone.memory_mb,
    )
    # flows all steered back onto the surviving box
    for flow in flows:
        assert flow.middleboxes == [mb0]


def test_provision_deprovision_capacity_accounting(env):
    mb = env.storm.provision_middlebox(env.tenant, env.spec(name="acct", relay="fwd"))
    host = env.cloud.compute_hosts[mb.host_name]
    assert host.committed_vcpus >= mb.vcpus
    assert host.committed_memory_mb >= mb.memory_mb
    before = (host.committed_vcpus, host.committed_memory_mb)
    env.storm.deprovision_middlebox(mb)
    assert (host.committed_vcpus, host.committed_memory_mb) == (
        before[0] - mb.vcpus,
        before[1] - mb.memory_mb,
    )
    assert mb.name not in env.storm.middleboxes
    # idempotent: a second deprovision is a no-op
    env.storm.deprovision_middlebox(mb)


def test_deprovision_refuses_while_in_a_chain(env):
    flow, (mb,) = env.attach([env.spec(name="busy", kind="noop", relay="active")])
    with pytest.raises(PolicyError):
        env.storm.deprovision_middlebox(mb)
