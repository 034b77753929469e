"""A scaling pool under the one chain control loop: loans count against
``max_size``, a controller crash at any saga boundary of a pool action
loses no box, and the width and failure policies never fight over a
pool flow."""

import pytest

from repro.blockdev.disk import BLOCK_SIZE
from repro.cloud import CloudParams
from repro.core import Reconciler, ScalingPool
from repro.core.reconcile import FAIL_OPEN
from repro.core.scaling import healthy
from repro.testbed import assert_at_rest

from tests.faults.conftest import fault_env
from tests.faults.test_autoscaler_healing import build_fwd_flows


def pool_bed(n_spares=0, flows=2, **limits):
    """``flows`` volumes through one fwd box ``pool0``, declared as a
    pool with ``n_spares`` more boxes; the width never moves unless
    ``limits`` say so."""
    env = fault_env(params=CloudParams(tcp_rto=0.02))
    mb0, pool_flows = build_fwd_flows(env, flows)
    spares = [
        env.storm.provision_middlebox(env.tenant, env.spec(name=f"pool{i + 1}", relay="fwd"))
        for i in range(n_spares)
    ]
    limits = {"high_watermark": 1e12, "low_watermark": 0.0, **limits}
    pool = ScalingPool(
        env.storm, env.tenant, env.spec(name="pool", relay="fwd"), pool_flows,
        initial_pool=[mb0, *spares], **limits,
    )
    return env, pool


def traffic(env, pool):
    """One block written on every pool flow whose chain is up, so the
    next tick measures a load."""

    def writes():
        for flow in pool.flows:
            if all(healthy(mb) for mb in flow.middleboxes):
                yield flow.session.write(0, BLOCK_SIZE, b"\x42" * BLOCK_SIZE)

    env.run(writes())


def healthy_boxes(pool):
    return sum(1 for mb in pool.members() if healthy(mb))


# -- loans count against max_size --------------------------------------------


def test_loans_count_against_max_size():
    """Through grow, lend and heal, the pool's healthy members — loans
    included — never exceed ``max_size``, at any saga boundary."""
    env, pool = pool_bed(n_spares=1, min_size=2, max_size=3, high_watermark=1.0)
    other, (box_a,) = env.attach([env.spec(name="a", relay="fwd")])
    loop = Reconciler(env.storm, default_policy=FAIL_OPEN)
    widths = []
    env.storm.engine.probe = lambda saga, step, when: widths.append(healthy_boxes(pool))

    traffic(env, pool)
    loop.tick()  # grow: 2 -> 3 members
    assert len(pool.members()) == 3 and len(env.events("pool.grow")) == 1

    env.injector.crash(box_a)
    loop.tick()  # lend a spare beyond min_size to heal the other chain
    (loan,) = pool.loans()
    assert other.middleboxes == [loan] and len(env.events("pool.lend")) == 1

    traffic(env, pool)
    loop.tick()  # load still high, but the loan fills the budget
    assert len(env.events("pool.grow")) == 1
    assert len(pool.members()) == 3

    env.injector.crash(pool.serving()[0])
    loop.tick()  # heal back to min_size within what the loan leaves
    assert len(env.events("pool.replace")) == 1
    assert len(pool.serving()) == 2 and pool.loans() == [loan]

    assert widths and max(widths) <= 3
    env.storm.engine.probe = None
    assert_at_rest(env.storm)


def test_heal_replaces_each_dead_member():
    """A 3-box pool that loses one box heals straight back to 3."""
    env, pool = pool_bed(n_spares=2)
    loop = Reconciler(env.storm)
    loop.tick()  # spread the flows over the pool
    dead = next(iter(pool.flows)).middleboxes[0]
    env.injector.crash(dead)
    loop.tick()
    assert len(env.events("pool.replace")) == 1
    assert healthy_boxes(pool) == 3 and dead.name not in env.storm.middleboxes
    assert all(healthy(mb) for flow in pool.flows for mb in flow.middleboxes)
    assert_at_rest(env.storm)


# -- one owner per pool flow -------------------------------------------------


def test_healed_pool_flows_stay_healed_under_fail_open():
    """A pool member dies under a fail-open loop: the width policy
    heals its flows onto a clone and commits that as their desired
    chain, so the failure policy finds nothing to quiesce and I/O
    resumes."""
    env, pool = pool_bed(max_size=2)
    (mb0,) = pool.members()
    loop = Reconciler(env.storm, default_policy=FAIL_OPEN)
    env.sim.process(loop.run(interval=0.05))
    start = env.sim.now
    env.injector.at(0.2, env.injector.crash, mb0)
    env.sim.run(until=start + 1.0)

    kinds = [e["kind"] for e in env.events("pool.")]
    assert kinds == ["pool.evict", "pool.replace", "pool.rebalance"]
    assert env.events("watchdog.") == []
    (clone,) = pool.members()
    for flow in pool.flows:
        assert flow.middleboxes == [clone] and flow.desired == (clone,)
        assert not flow.chain.quiesced

    done = {}

    def write():
        yield next(iter(pool.flows)).session.write(0, BLOCK_SIZE, b"\x11" * BLOCK_SIZE)
        done["at"] = env.sim.now

    issued = env.sim.now
    env.sim.process(write())
    env.sim.run(until=issued + 3.0)
    loop.stop()
    assert done and done["at"] - issued < 3.0
    assert_at_rest(env.storm)


# -- a controller crash at every boundary of a pool action --------------------


def grow():
    env, pool = pool_bed(max_size=2, high_watermark=0.0)
    traffic(env, pool)
    return env, pool, None


def shrink():
    env, pool = pool_bed(n_spares=1, low_watermark=1e12)
    Reconciler(env.storm).tick()  # spread the flows over both boxes first
    env.sim.run(until=env.sim.now + 0.1)
    return env, pool, None


def heal():
    env, pool = pool_bed()
    env.injector.crash(pool.members()[0])
    return env, pool, None


def heal_wide():
    env, pool = pool_bed(n_spares=2)
    env.injector.crash(pool.members()[1])
    return env, pool, None


def lend():
    env, pool = pool_bed(flows=0, max_size=2)
    other, (box_a,) = env.attach([env.spec(name="a", relay="fwd")])
    env.injector.crash(box_a)
    return env, pool, other


def shape(pool, other):
    """What must come out the same with or without a crash."""
    return (
        len(pool.members()),
        len(pool.loans()),
        [[healthy(mb) for mb in f.middleboxes] for f in pool.flows],
        None if other is None else [healthy(mb) for mb in other.middleboxes],
    )


def run_action(build, crash_at=None):
    """Build a scenario, tick once (crashing the controller at boundary
    ``crash_at`` of that tick's sagas), then let the loop converge.
    Returns the boundaries the tick crossed and the final shape."""
    env, pool, other = build()
    crossed = []

    def probe(saga, step, when):
        crossed.append((saga.op, step.name, when))
        if len(crossed) - 1 == crash_at:
            env.injector.crash(env.storm.controller, restart_after=0.5)

    loop = Reconciler(env.storm, default_policy=FAIL_OPEN)
    env.storm.engine.probe = probe
    loop.tick()
    env.storm.engine.probe = None
    env.sim.run(until=env.sim.now + 1.0)  # restart -> recovery
    for _ in range(3):
        traffic(env, pool)
        loop.tick()

    for name, mb in env.storm.middleboxes.items():
        owned = mb.pool is not None or env.storm.in_chain(mb)
        owned = owned or any(mb in f.desired for f in env.storm.flows)
        assert owned, f"{name} is provisioned but nobody's"
    assert healthy_boxes(pool) <= pool.max_size
    assert_at_rest(env.storm)
    return crossed, shape(pool, other)


@pytest.mark.parametrize("build", [grow, shrink, heal, heal_wide, lend])
def test_controller_crash_at_every_pool_saga_boundary(build):
    boundaries, reference = run_action(build)
    ops = {op for op, _step, _when in boundaries}
    assert ops >= {"reconfigure_chain"} and ops & {"provision_middlebox", "deprovision_middlebox"}
    for index, boundary in enumerate(boundaries):
        crossed, final = run_action(build, crash_at=index)
        assert crossed[index] == boundary
        assert final == reference, f"crash at {boundary}: {final} != {reference}"
