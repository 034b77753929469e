"""On-demand middle-box scaling (SDN-reprogrammed elastic pools): a
declared ScalingPool, driven by the control loop's width policy."""

import pytest

from repro.blockdev.disk import BLOCK_SIZE
from repro.core import Reconciler
from repro.core.policy import PolicyError
from repro.core.scaling import ScalingPool
from repro.obs import events_of
from repro.workloads import FioConfig, FioJob

from tests.conftest import at_rest
from tests.core.conftest import storm_env


def build_flows(env, n_flows=3):
    """n volumes for vm1, all initially through one fwd middle-box."""
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


def drive_load(env, flows, ios=40, io_size=4 * BLOCK_SIZE):
    """Concurrent Fio load on every flow."""
    jobs = []
    for i, flow in enumerate(flows):
        config = FioConfig(
            io_size=io_size,
            num_threads=2,
            ios_per_thread=ios,
            region_size=512 * BLOCK_SIZE,
            seed=100 + i,
        )
        jobs.append(FioJob(env.sim, flow.session, config))

    def all_jobs():
        procs = [env.sim.process(job.run()) for job in jobs]
        for proc in procs:
            yield proc

    return all_jobs


def pool_actions(env):
    """The width policy's ``pool.*`` timeline, as event kinds."""
    return [event["kind"] for event in events_of(env.bus.records, kind="pool.")]


@pytest.fixture
def env():
    yield from at_rest(storm_env(obs=True))


def test_autoscaler_grows_under_load_and_rebalances(env):
    mb, flows = build_flows(env)
    scaler = ScalingPool(
        env.storm,
        env.tenant,
        env.spec(name="pool", relay="fwd"),
        flows,
        initial_pool=[mb],
        max_size=3,
        high_watermark=500.0,
        low_watermark=10.0,
    )
    loop = Reconciler(env.storm)
    env.sim.process(loop.run(interval=0.2))
    env.run(drive_load(env, flows, ios=120)())
    loop.stop()
    env.sim.run(until=env.sim.now + 1.0)
    assert len(scaler.members()) > 1, "pool never grew under load"
    assert "pool.grow" in pool_actions(env)
    # flows are spread across the pool
    assignments = scaler.assignments()
    used = [mb_name for mb_name, vols in assignments.items() if vols]
    assert len(used) > 1
    # I/O still works after rebalancing
    outcome = {}

    def check():
        yield flows[0].session.write(0, BLOCK_SIZE, b"\x66" * BLOCK_SIZE)
        outcome["data"] = yield flows[0].session.read(0, BLOCK_SIZE)

    env.run(check())
    assert outcome["data"] == b"\x66" * BLOCK_SIZE


def test_autoscaler_shrinks_when_idle(env):
    mb, flows = build_flows(env, n_flows=2)
    extra = env.storm.provision_middlebox(env.tenant, env.spec(name="pool1", relay="fwd"))
    scaler = ScalingPool(
        env.storm,
        env.tenant,
        env.spec(name="pool", relay="fwd"),
        flows,
        initial_pool=[mb, extra],
        min_size=1,
        high_watermark=1e9,
        low_watermark=50.0,
    )
    env.sim.process(Reconciler(env.storm).run(interval=0.2, duration=1.0))
    env.sim.run(until=env.sim.now + 2.0)
    assert len(scaler.members()) == 1
    assert "pool.shrink" in pool_actions(env)
    # the surviving box carries every flow
    for flow in flows:
        assert flow.middleboxes == [scaler.members()[0]]


def test_autoscaler_respects_bounds(env):
    mb, flows = build_flows(env, n_flows=2)
    scaler = ScalingPool(
        env.storm,
        env.tenant,
        env.spec(name="pool", relay="fwd"),
        flows,
        initial_pool=[mb],
        max_size=2,
        high_watermark=1.0,  # grows at any load
        low_watermark=0.0,
    )
    loop = Reconciler(env.storm)
    env.sim.process(loop.run(interval=0.1))
    env.run(drive_load(env, flows, ios=60)())
    loop.stop()
    env.sim.run(until=env.sim.now + 0.5)
    assert len(scaler.members()) <= 2


def test_autoscaler_rejects_active_relay_template(env):
    with pytest.raises(PolicyError, match="forwarding-mode"):
        ScalingPool(env.storm, env.tenant, env.spec(relay="active"), flows=[])


def test_autoscaler_rejects_bad_bounds(env):
    with pytest.raises(PolicyError, match="min_size"):
        ScalingPool(
            env.storm,
            env.tenant,
            env.spec(relay="fwd"),
            flows=[],
            min_size=3,
            max_size=2,
        )


def test_new_members_ignore_the_template_placement(env):
    """A template's placement pins no member: the pool's boxes spread
    over the compute hosts like any unpinned box."""
    hosts = sorted(env.cloud.compute_hosts)
    template = env.spec(name="pool", relay="fwd", placement=hosts[0])
    scaler = ScalingPool(env.storm, env.tenant, template, flows=[], max_size=len(hosts))
    boxes = [scaler.provision() for _ in hosts]
    assert sorted(mb.host_name for mb in boxes) == hosts
    assert scaler.members() == boxes and template.placement == hosts[0]
