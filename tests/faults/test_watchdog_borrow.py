"""Watchdog capacity borrowing: on middle-box death the fail-open
policy first heals the chain at *full strength* with boxes borrowed
from the tenant's ScalingPool; bypass is only the fallback when the
tenant's capacity budget is exhausted."""

from repro.core import Reconciler, ScalingPool
from repro.core.reconcile import FAIL_OPEN
from repro.testbed import assert_at_rest

from tests.faults.conftest import fault_env


def pool_env(chain_specs, pool_names=("pool-1", "pool-2"), min_size=1, max_size=4):
    env = fault_env()
    flow, mbs = env.attach([env.spec(name=n, relay="fwd") for n in chain_specs])
    spares = [
        env.storm.provision_middlebox(env.tenant, env.spec(name=n, relay="fwd"))
        for n in pool_names
    ]
    # a pool of spares: no flows of its own, and a width the load never
    # moves (the loop's width policy would shrink an idle pool)
    scaler = ScalingPool(
        env.storm,
        env.tenant,
        env.spec(name="pool", relay="fwd"),
        flows=[],
        initial_pool=spares,
        min_size=min_size,
        max_size=max_size,
        low_watermark=0.0,
    )
    dog = Reconciler(env.storm, default_policy=FAIL_OPEN)
    return env, flow, mbs, spares, scaler, dog


def test_borrowed_box_heals_chain_at_full_strength():
    env, flow, (mb_a, mb_b), (p1, p2), scaler, dog = pool_env(["a", "b"])
    env.sim.process(dog.run(interval=0.05, duration=2.0))
    env.injector.at(0.5, env.injector.crash, mb_a, 0.7)  # restart at t=1.2
    env.sim.run()

    borrows = env.events("watchdog.borrow")
    heals = env.events("watchdog.heal")
    assert len(borrows) == 1
    assert borrows[0]["attrs"]["dead"] == mb_a.name
    assert borrows[0]["attrs"]["replacement"] == p2.name  # spare, not a clone
    assert len(heals) == 1
    assert heals[0]["attrs"]["dead"] == [mb_a.name]
    # full strength: the dead member is substituted in place, the
    # chain never shrinks — and therefore never bypasses
    assert heals[0]["attrs"]["chain"] == [p2.name, mb_b.name]
    assert len(env.events("watchdog.bypass")) == 0
    assert len(env.events("watchdog.quiesce")) == 0

    # recovery: original chain reinstated, loan returned to the pool
    assert len(env.events("watchdog.reinstate")) == 1
    assert len(env.events("watchdog.restore")) == 1
    assert len(env.events("pool.lend")) == 1
    assert len(env.events("pool.restore")) == 1
    assert flow.middleboxes == [mb_a, mb_b]
    assert scaler.loans() == [] and set(scaler.members()) == {p1, p2}
    assert_at_rest(env.storm)


def test_borrow_prefers_spares_then_clones_within_budget():
    env, flow, (mb_a,), (p1, p2), scaler, dog = pool_env(
        ["a"], min_size=2, max_size=3
    )
    # pool is at min_size: no spare to pop, but budget allows one clone
    env.injector.crash(mb_a)
    dog.tick()
    heals = env.events("watchdog.heal")
    assert len(heals) == 1
    (loaned,) = scaler.loans()
    assert loaned not in (p1, p2)  # freshly provisioned clone
    assert heals[0]["attrs"]["chain"] == [loaned.name]
    assert len(env.events("watchdog.bypass")) == 0
    assert_at_rest(env.storm)


def test_exhausted_pool_falls_back_to_bypass():
    env, flow, (mb_a, mb_b), spares, scaler, dog = pool_env(
        ["a", "b"], pool_names=("pool-1",), min_size=1, max_size=1
    )
    env.injector.crash(mb_a)
    dog.tick()
    # no spare above min_size, no clone budget: classic bypass
    assert len(env.events("watchdog.borrow")) == 0
    bypasses = env.events("watchdog.bypass")
    assert len(bypasses) == 1
    assert bypasses[0]["attrs"]["chain"] == [mb_b.name]
    assert scaler.loans() == []

    env.injector.restart(mb_a)
    dog.tick()
    assert len(env.events("watchdog.reinstate")) == 1
    assert flow.middleboxes == [mb_a, mb_b]
    assert_at_rest(env.storm)


def test_exhausted_pool_single_box_chain_quiesces():
    env, flow, (mb_a,), _spares, _scaler, dog = pool_env(
        ["a"], pool_names=("pool-1",), min_size=1, max_size=1
    )
    env.injector.crash(mb_a)
    dog.tick()
    # nothing to steer through and nothing to borrow: last-resort drop
    assert flow.chain.quiesced
    assert len(env.events("watchdog.bypass")) == 0
    env.injector.restart(mb_a)
    dog.tick()
    assert not flow.chain.quiesced
    assert_at_rest(env.storm)


def test_dead_loaner_is_reclaimed_and_replaced():
    """A borrowed replacement that itself dies is swapped for a fresh
    loan; the corpse goes back to the pool, which reclaims its VM."""
    env, flow, (mb_a,), (p1, p2), scaler, dog = pool_env(["a"], max_size=3)
    env.injector.crash(mb_a)
    dog.tick()
    assert scaler.loans() == [p2]
    env.injector.crash(p2)
    dog.tick()

    borrows = env.events("watchdog.borrow")
    assert len(borrows) == 2
    (loaned,) = scaler.loans()
    assert loaned is not p2
    assert flow.middleboxes == [loaned]
    # the dead loaner was restored to the pool and deprovisioned
    assert len(env.events("watchdog.restore")) == 1
    assert p2.name not in env.storm.middleboxes
    assert p2 not in scaler.members() and p2 not in scaler.loans()

    env.injector.restart(mb_a)
    dog.tick()
    assert flow.middleboxes == [mb_a]
    assert scaler.loans() == []
    assert_at_rest(env.storm)
