"""The ``evict_detached`` knob: detach leaves no per-session residue.

With the knob on (fleet mode) the detach saga gains an ``evict-state``
step that forgets the attach's conntrack pins and attribution record,
and — when the tenant's last flow is gone — releases the gateway pair
and evicts the tenant's metric scope.  With the knob off (the
default), detach behaves exactly as before the fleet work: gateways
and conntrack persist, preserving bit-identity with recorded
benchmarks.
"""

from repro.cloud import CloudParams
from repro.obs import ObsBus, instrument

from tests.core.conftest import storm_env


def _attach(env):
    flow, _mbs = env.attach([env.spec(kind="noop", relay="fwd", placement="compute3")])
    return flow


def _conntrack_total(env):
    return sum(
        len(host.stack.nat.conntrack)
        for host in env.cloud.compute_hosts.values()
    )


def test_detach_evicts_conntrack_and_gateways():
    env = storm_env(params=CloudParams(evict_detached=True))
    flow = _attach(env)
    assert env.storm.gateway_pairs != {}
    assert _conntrack_total(env) > 0

    env.storm.detach(flow)
    assert env.storm.flows == []
    assert env.storm.gateway_pairs == {}
    assert _conntrack_total(env) == 0
    assert env.storm._tenant_flows == {}
    assert env.storm.attributor.attribute(
        flow.host.storage_iface.ip, flow.src_port
    ) is None


def test_reattach_after_eviction_works():
    env = storm_env(params=CloudParams(evict_detached=True))
    first = _attach(env)
    env.storm.detach(first)
    second = _attach(env)
    assert second.session is not None and second.session.alive
    assert env.storm.tenant_flow_count(env.tenant.name) == 1
    env.storm.detach(second)
    assert env.storm.gateway_pairs == {}


def test_gateways_survive_while_other_flows_remain():
    env = storm_env(params=CloudParams(evict_detached=True))
    first = _attach(env)
    vm2 = env.cloud.boot_vm(env.tenant, "vm2", env.cloud.compute_hosts["compute2"])
    env.cloud.create_volume(env.tenant, "vol2", env.volume.size)
    mb = env.storm.provision_middlebox(env.tenant, env.spec(relay="fwd", placement="compute3"))

    def attach_second():
        return (
            yield env.sim.process(
                env.storm.attach_with_services(
                    env.tenant, vm2, "vol2", [mb],
                    ingress_host=env.cloud.compute_hosts["compute2"],
                    egress_host=env.cloud.compute_hosts["compute4"],
                )
            )
        )

    second = env.run(attach_second())
    env.storm.detach(first)
    # one flow still lives: the pair must not be torn down under it
    assert env.storm.gateway_pairs != {}
    env.storm.detach(second)
    assert env.storm.gateway_pairs == {}


def test_detach_evicts_tenant_metric_scope():
    env = storm_env(params=CloudParams(evict_detached=True))
    bus = ObsBus(env.sim)
    instrument(bus, storm=env.storm)
    flow = _attach(env)
    bus.metrics.counter("svc.bytes", scope=env.tenant.name).inc(7)
    bus.metrics.counter("plant.packets").inc()
    env.storm.detach(flow)
    assert bus.metrics.scoped(env.tenant.name) == []
    assert bus.metrics.counter("plant.packets").value == 1


def test_default_detach_keeps_prefleet_behavior():
    env = storm_env()  # evict_detached defaults to False
    flow = _attach(env)
    pinned = _conntrack_total(env)
    assert pinned > 0
    env.storm.detach(flow)
    # bit-identity guard: without the knob nothing extra is torn down
    assert env.storm.gateway_pairs != {}
    assert _conntrack_total(env) == pinned
