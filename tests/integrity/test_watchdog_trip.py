"""A tamper burst trips the per-flow breaker and the watchdog holds
the flow fail-closed — regardless of the tenant's bypass policy —
until the cooldown expires."""

from repro.blockdev.disk import BLOCK_SIZE
from repro.core import Reconciler
from repro.core.reconcile import FAIL_OPEN
from repro.testbed import assert_at_rest

from tests.integrity.conftest import VOL_IQN, integrity_env, layer


def block(value):
    return bytes([value]) * BLOCK_SIZE


def tampered_writes(env, mb, session, count):
    """``count`` writes, each with its first copy tampered (the retry
    goes through clean, so every write lands) — a detection burst."""
    for i in range(count):
        env.injector.tamper_payload(mb, count=1)
        yield session.write(i * BLOCK_SIZE, BLOCK_SIZE, block(i + 1))


def test_burst_trips_breaker_quiesces_then_recovers():
    env = integrity_env()
    flow, (mb,) = env.attach([env.spec(name="noop", relay="passive")])
    dog = Reconciler(env.storm, default_policy=FAIL_OPEN)
    env.sim.process(dog.run(duration=6.0))

    def scenario():
        yield from tampered_writes(env, mb, flow.session, 3)
        assert layer(env).tripped(VOL_IQN)
        # give the watchdog a tick while tripped, then ride out the
        # 2 s cooldown
        yield env.sim.timeout(0.5)
        assert flow.chain.quiesced
        yield env.sim.timeout(3.0)
        assert not layer(env).tripped(VOL_IQN)
        assert not flow.chain.quiesced
        # traffic flows again after the lockout clears
        yield flow.session.write(0, BLOCK_SIZE, block(99))
        return (yield flow.session.read(0, BLOCK_SIZE))

    assert env.run(scenario()) == block(99)
    assert layer(env).breaker.trips == 1
    assert len(env.events("watchdog.integrity-trip")) == 1
    assert len(env.events("watchdog.integrity-clear")) == 1
    # the lockout overrides FAIL_OPEN: no bypass was ever attempted
    assert len(env.events("watchdog.bypass")) == 0
    assert_at_rest(env.storm)


def test_sparse_detections_never_quiesce():
    env = integrity_env()
    flow, (mb,) = env.attach([env.spec(name="noop", relay="passive")])
    dog = Reconciler(env.storm)
    env.sim.process(dog.run(duration=8.0))

    def scenario():
        for i in range(3):
            env.injector.tamper_payload(mb, count=1)
            yield flow.session.write(i * BLOCK_SIZE, BLOCK_SIZE, block(i + 1))
            yield env.sim.timeout(2.0)  # detections spread out: no burst

    env.run(scenario())
    assert layer(env).breaker.trips == 0
    assert len(env.events("watchdog.integrity-trip")) == 0
    assert not flow.chain.quiesced
    assert_at_rest(env.storm)


def test_trip_event_names_the_flow():
    env = integrity_env()
    flow, (mb,) = env.attach([env.spec(name="noop", relay="passive")])
    dog = Reconciler(env.storm)
    env.sim.process(dog.run(duration=2.0))

    def scenario():
        yield from tampered_writes(env, mb, flow.session, 3)
        yield env.sim.timeout(0.5)

    env.run(scenario())
    trips = env.events("watchdog.integrity-trip")
    assert len(trips) == 1
    assert trips[0]["attrs"]["iqn"] == VOL_IQN
    assert_at_rest(env.storm)
