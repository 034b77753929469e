"""The chain control loop's failure policy: fail-open
bypass/reinstate and fail-closed quiesce/unquiesce."""

from repro.core import Reconciler
from repro.core.reconcile import FAIL_CLOSED, FAIL_OPEN
from repro.net.switch import Drop
from repro.testbed import assert_at_rest

from tests.faults.conftest import fault_env


def quiesce_rules(env, flow):
    return [
        (name, rule)
        for name, rule in env.cloud.sdn.iter_rules()
        if rule.cookie == f"{flow.cookie}#quiesce"
    ]


def test_fail_open_bypasses_dead_middlebox_and_reinstates():
    env = fault_env()
    flow, (mb1, mb2) = env.attach(
        [env.spec(name="a", relay="fwd"), env.spec(name="b", relay="fwd")]
    )
    dog = Reconciler(env.storm, default_policy=FAIL_OPEN)
    env.sim.process(dog.run(duration=2.0))
    env.injector.at(0.5, env.injector.crash, mb1, 0.7)  # restart at t=1.2
    env.sim.run()

    bypasses = env.events("watchdog.bypass")
    reinstates = env.events("watchdog.reinstate")
    assert len(bypasses) == 1
    assert bypasses[0]["attrs"]["dead"] == [mb1.name]
    assert bypasses[0]["attrs"]["chain"] == [mb2.name]
    assert len(reinstates) == 1
    # chain restored to the tenant's desired order after recovery
    assert flow.middleboxes == [mb1, mb2]
    assert_at_rest(env.storm)


def test_fail_closed_quiesces_and_unquiesces():
    env = fault_env()
    flow, (mb,) = env.attach([env.spec(name="a", relay="fwd")])
    dog = Reconciler(env.storm, tenant_policies={"acme": FAIL_CLOSED})
    env.sim.process(dog.run(duration=2.0))
    env.injector.at(0.5, env.injector.crash, mb, 0.7)
    env.sim.run()

    assert len(env.events("watchdog.quiesce")) == 1
    assert len(env.events("watchdog.unquiesce")) == 1
    assert len(env.events("watchdog.bypass")) == 0
    # quiesce rules lifted once the box recovered
    assert quiesce_rules(env, flow) == []
    assert not flow.chain.quiesced
    assert_at_rest(env.storm)


def test_quiesce_installs_drop_rules_while_down():
    env = fault_env()
    flow, (mb,) = env.attach([env.spec(name="a", relay="fwd")])
    dog = Reconciler(env.storm, tenant_policies={"acme": FAIL_CLOSED})
    env.injector.crash(mb)  # no restart
    dog.tick()
    rules = quiesce_rules(env, flow)
    assert len(rules) == 2  # one per direction
    assert all(isinstance(r.actions[0], Drop) for _s, r in rules)
    # repeated ticks are idempotent
    dog.tick()
    assert len(quiesce_rules(env, flow)) == 2
    assert_at_rest(env.storm)


def test_active_relay_chain_is_always_fail_closed():
    """Bypassing an active relay would corrupt its per-flow TCP state,
    so even a fail-open tenant gets quiesced."""
    env = fault_env()
    flow, (mb,) = env.attach([env.spec(name="a", relay="active")])
    dog = Reconciler(env.storm, default_policy=FAIL_OPEN)
    env.injector.crash(mb)
    dog.tick()
    assert len(env.events("watchdog.quiesce")) == 1
    assert len(env.events("watchdog.bypass")) == 0
    assert flow.chain.quiesced
    assert_at_rest(env.storm)


def test_fail_open_quiesces_when_no_survivors():
    env = fault_env()
    flow, (mb,) = env.attach([env.spec(name="a", relay="fwd")])
    dog = Reconciler(env.storm, default_policy=FAIL_OPEN)
    env.injector.crash(mb)
    dog.tick()
    # nothing to steer through: last-resort quiesce instead of a dark MAC
    assert flow.chain.quiesced
    env.injector.restart(mb)
    dog.tick()
    assert not flow.chain.quiesced
    assert len(env.events("watchdog.unquiesce")) == 1
    assert_at_rest(env.storm)
