"""Watchdog capacity borrowing: on middle-box death the fail-open
policy first heals the chain at *full strength* with boxes borrowed
from a MiddleboxAutoscaler pool; bypass is only the fallback when the
tenant's capacity budget is exhausted."""

from repro.core import ChainWatchdog, MiddleboxAutoscaler, Reconciler
from repro.core.watchdog import FAIL_OPEN

from tests.faults.conftest import FaultEnv


def pool_env(chain_specs, pool_names=("pool-1", "pool-2"), min_size=1, max_size=4):
    env = FaultEnv()
    flow, mbs = env.attach([env.spec(name=n, relay="fwd") for n in chain_specs])
    spares = [
        env.storm.provision_middlebox(env.tenant, env.spec(name=n, relay="fwd"))
        for n in pool_names
    ]
    scaler = MiddleboxAutoscaler(
        env.storm,
        env.tenant,
        env.spec(name="pool", relay="fwd"),
        flows=[],
        initial_pool=spares,
        min_size=min_size,
        max_size=max_size,
    )
    scaler.event_log = env.log
    dog = ChainWatchdog(
        env.storm,
        check_interval=0.05,
        default_policy=FAIL_OPEN,
        event_log=env.log,
        capacity_pool=scaler,
    )
    return env, flow, mbs, spares, scaler, dog


def test_borrowed_box_heals_chain_at_full_strength():
    env, flow, (mb_a, mb_b), (p1, p2), scaler, dog = pool_env(["a", "b"])
    env.sim.process(dog.run(duration=2.0))
    env.injector.at(0.5, env.injector.crash, mb_a, 0.7)  # restart at t=1.2
    env.sim.run()

    borrows = env.log.matching("watchdog.borrow")
    heals = env.log.matching("watchdog.heal")
    assert len(borrows) == 1
    assert borrows[0].detail["dead"] == mb_a.name
    assert borrows[0].detail["replacement"] == p2.name  # spare, not a clone
    assert len(heals) == 1
    assert heals[0].detail["dead"] == [mb_a.name]
    # full strength: the dead member is substituted in place, the
    # chain never shrinks — and therefore never bypasses
    assert heals[0].detail["chain"] == [p2.name, mb_b.name]
    assert env.log.count("watchdog.bypass") == 0
    assert env.log.count("watchdog.quiesce") == 0

    # recovery: original chain reinstated, loan returned to the pool
    assert env.log.count("watchdog.reinstate") == 1
    assert env.log.count("watchdog.restore") == 1
    assert env.log.count("pool.lend") == 1
    assert env.log.count("pool.restore") == 1
    assert flow.middleboxes == [mb_a, mb_b]
    assert scaler.lent == [] and set(scaler.pool) == {p1, p2}
    assert Reconciler(env.storm).audit() == []


def test_borrow_prefers_spares_then_clones_within_budget():
    env, flow, (mb_a,), (p1, p2), scaler, dog = pool_env(
        ["a"], min_size=2, max_size=3
    )
    # pool is at min_size: no spare to pop, but budget allows one clone
    env.injector.crash(mb_a)
    dog.tick()
    heals = env.log.matching("watchdog.heal")
    assert len(heals) == 1
    (loaned,) = scaler.lent
    assert loaned not in (p1, p2)  # freshly provisioned clone
    assert heals[0].detail["chain"] == [loaned.name]
    assert env.log.count("watchdog.bypass") == 0


def test_exhausted_pool_falls_back_to_bypass():
    env, flow, (mb_a, mb_b), spares, scaler, dog = pool_env(
        ["a", "b"], pool_names=("pool-1",), min_size=1, max_size=1
    )
    env.injector.crash(mb_a)
    dog.tick()
    # no spare above min_size, no clone budget: classic bypass
    assert env.log.count("watchdog.borrow") == 0
    bypasses = env.log.matching("watchdog.bypass")
    assert len(bypasses) == 1
    assert bypasses[0].detail["chain"] == [mb_b.name]
    assert scaler.lent == []

    env.injector.restart(mb_a)
    dog.tick()
    assert env.log.count("watchdog.reinstate") == 1
    assert flow.middleboxes == [mb_a, mb_b]
    assert Reconciler(env.storm).audit() == []


def test_exhausted_pool_single_box_chain_quiesces():
    env, flow, (mb_a,), _spares, _scaler, dog = pool_env(
        ["a"], pool_names=("pool-1",), min_size=1, max_size=1
    )
    env.injector.crash(mb_a)
    dog.tick()
    # nothing to steer through and nothing to borrow: last-resort drop
    assert flow.chain.quiesced
    assert env.log.count("watchdog.bypass") == 0
    env.injector.restart(mb_a)
    dog.tick()
    assert not flow.chain.quiesced
    assert Reconciler(env.storm).audit() == []


def test_dead_loaner_is_reclaimed_and_replaced():
    """A borrowed replacement that itself dies is swapped for a fresh
    loan; the corpse goes back to the pool, which reclaims its VM."""
    env, flow, (mb_a,), (p1, p2), scaler, dog = pool_env(["a"], max_size=3)
    env.injector.crash(mb_a)
    dog.tick()
    assert scaler.lent == [p2]
    env.injector.crash(p2)
    dog.tick()

    borrows = env.log.matching("watchdog.borrow")
    assert len(borrows) == 2
    (loaned,) = scaler.lent
    assert loaned is not p2
    assert flow.middleboxes == [loaned]
    # the dead loaner was restored to the pool and deprovisioned
    assert env.log.count("watchdog.restore") == 1
    assert p2.name not in env.storm.middleboxes
    assert p2 not in scaler.pool and p2 not in scaler.lent

    env.injector.restart(mb_a)
    dog.tick()
    assert flow.middleboxes == [mb_a]
    assert scaler.lent == []
    assert Reconciler(env.storm).audit() == []
