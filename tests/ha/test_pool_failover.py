"""A leader change in the middle of a pool action: the pool is platform
state and its members and loans are derived, so the new leader's loop
finds the same pool the old one was working on, and finishes the job."""

import pytest

from repro.blockdev.disk import BLOCK_SIZE
from repro.core import ControllerCrashed, Reconciler, ScalingPool
from repro.core.reconcile import FAIL_OPEN
from repro.testbed import assert_at_rest

from tests.faults.test_autoscaler_healing import build_fwd_flows
from tests.ha.conftest import ha_env


def test_leader_kill_between_the_sagas_of_a_grow():
    env = ha_env()
    storm = env.storm
    cluster = storm.ha
    pool0, flows = build_fwd_flows(env)
    other, (box_a,) = env.attach([env.spec(name="a", relay="fwd")])
    pool = ScalingPool(
        storm, env.tenant, env.spec(name="pool", relay="fwd"), flows,
        initial_pool=[pool0], max_size=3, high_watermark=1.0, low_watermark=0.0,
    )
    old_loop = Reconciler(storm, default_policy=FAIL_OPEN)
    cluster.start()

    env.injector.crash(box_a)
    old_loop.tick()  # the other chain borrows a clone
    (loan,) = pool.loans()
    assert other.middleboxes == [loan]

    seen = {}

    def kill_after_provision(saga, step, when):
        # the grow's provision saga committed; its rebalance has not begun
        if not seen and saga.op == "reconfigure_chain" and when == "before":
            seen["members"], seen["loans"] = pool.members(), pool.loans()
            env.injector.crash_leader(cluster, restart_after=1.0)

    def write():
        yield flows[0].session.write(0, BLOCK_SIZE, b"\x42" * BLOCK_SIZE)

    env.run(write())
    storm.engine.probe = kill_after_provision
    old_loop.tick()  # grow: provision, then the kill fences the rebalance
    storm.engine.probe = None
    assert seen, "the grow never reached its rebalance"
    (clone,) = [mb for mb in seen["members"] if mb not in (pool0, loan)]
    assert [f.middleboxes for f in flows] == [[pool0], [pool0]]

    env.sim.run(until=env.sim.now + 3.0)  # election + takeover + rejoin
    cluster.stop()
    assert cluster.leader_name != "storm-cp0"

    # the new leader's loop derives the pool the old loop was growing
    new_loop = Reconciler(storm, default_policy=FAIL_OPEN)
    assert list(storm.pools.values()) == [pool]
    assert pool.members() == seen["members"] == [pool0, loan, clone]
    assert pool.loans() == seen["loans"] == [loan]
    # the clone is held by the pool though no chain names it yet: a
    # crashed clone is not an orphan to a fresh audit
    env.injector.crash(clone)
    assert not any(d.kind == "mb-orphan" for d in Reconciler(storm).audit())
    env.injector.restart(clone)

    new_loop.tick()  # the new leader finishes the grow's rebalance
    assert [f.middleboxes for f in flows] == [[pool0], [clone]]
    assert flows[1].desired == (clone,)
    assert pool.members() == [pool0, loan, clone] and pool.loans() == [loan]
    assert len(env.events("pool.grow")) == 1
    assert_at_rest(storm)


def test_deposed_leader_loop_writes_nothing_to_the_pool():
    env = ha_env()
    storm = env.storm
    cluster = storm.ha
    pool0, flows = build_fwd_flows(env)
    pool = ScalingPool(
        storm, env.tenant, env.spec(name="pool", relay="fwd"), flows,
        initial_pool=[pool0], max_size=3,
    )
    cluster.start()
    env.injector.crash_leader(cluster, restart_after=1.0)
    env.injector.crash(pool0)
    loop = Reconciler(storm)
    loop.tick()  # no authority: the heal's first saga is fenced
    assert pool.members() == [pool0]
    with pytest.raises(ControllerCrashed):
        pool.provision()
    assert pool.members() == [pool0]

    env.sim.run(until=env.sim.now + 3.0)
    cluster.stop()
    loop.tick()  # the same loop object under the new leader heals
    (clone,) = pool.members()
    assert clone is not pool0
    assert all(f.middleboxes == [clone] for f in flows)
    assert_at_rest(storm)
