"""The chain control loop under a controller outage: every write it
makes is a saga, so while the controller is down a tick writes no rule
and emits no ``watchdog.*`` / ``reconcile.*`` event, and the first tick
after the restart does the write.  A fresh audit reads the desired
chain the attach committed, so a bypassed box is not an orphan."""

import pytest

from repro.core import ControllerCrashed, Reconciler
from repro.core.reconcile import FAIL_CLOSED, FAIL_OPEN
from repro.testbed import assert_at_rest

from tests.faults.conftest import fault_env
from tests.faults.test_reconciler import switch_rules
from tests.faults.test_watchdog import quiesce_rules


def loop_events(env):
    return env.events("watchdog.") + env.events("reconcile.")


def two_box_chain(env):
    return env.attach([env.spec(name="a", relay="fwd"), env.spec(name="b", relay="fwd")])


def test_controller_outage_then_box_crash_runs_to_completion():
    env = fault_env()
    flow, (mb_a, mb_b) = two_box_chain(env)
    loop = Reconciler(env.storm, default_policy=FAIL_OPEN)
    env.sim.process(loop.run(duration=2.0))
    env.injector.at(0.3, env.injector.crash, env.storm.controller, 0.5)  # up at 0.8
    env.injector.at(0.4, env.injector.crash, mb_a, 1.0)  # up at 1.4
    env.sim.run()

    (bypass,) = env.events("watchdog.bypass")
    (reinstate,) = env.events("watchdog.reinstate")
    # the first tick after each restart does the write
    assert 0.8 < bypass["ts"] <= 0.8 + 0.25
    assert bypass["attrs"]["chain"] == [mb_b.name]
    assert 1.4 < reinstate["ts"] <= 1.4 + 0.25
    assert flow.middleboxes == [mb_a, mb_b]
    assert_at_rest(env.storm)


def test_fail_closed_tick_writes_nothing_while_controller_down():
    env = fault_env()
    flow, (mb,) = env.attach([env.spec(name="a", relay="fwd")])
    loop = Reconciler(env.storm, tenant_policies={"acme": FAIL_CLOSED})
    env.injector.crash(mb)
    env.injector.crash(env.storm.controller)
    loop.tick()
    assert quiesce_rules(env, flow) == []
    assert not flow.chain.quiesced
    assert loop_events(env) == []

    env.injector.restart(env.storm.controller)
    loop.tick()
    assert len(quiesce_rules(env, flow)) == 2
    assert len(env.events("watchdog.quiesce")) == 1
    assert_at_rest(env.storm)


def test_repair_writes_nothing_while_controller_down():
    env = fault_env()
    flow, _ = env.attach([env.spec(name="svc", relay="fwd")])
    env.cloud.sdn.remove_by_cookie(flow.cookie)  # a switch lost the rules
    env.injector.crash(env.storm.controller)
    with pytest.raises(ControllerCrashed):
        Reconciler(env.storm).repair()
    assert switch_rules(env, flow.cookie) == []
    assert loop_events(env) == []

    env.injector.restart(env.storm.controller)
    Reconciler(env.storm).tick()
    assert len(switch_rules(env, flow.cookie)) == flow.chain.expected_rule_count()
    assert len(env.events("reconcile.rule-missing")) == 1
    assert_at_rest(env.storm)


def test_fresh_audit_during_bypass_is_clean():
    env = fault_env()
    flow, (mb_a, mb_b) = two_box_chain(env)
    loop = Reconciler(env.storm, default_policy=FAIL_OPEN)
    env.injector.crash(mb_a)
    loop.tick()
    assert flow.middleboxes == [mb_b]
    assert flow.desired == (mb_a, mb_b)
    # the crashed box is in the desired chain: the loop will reinstate it
    assert Reconciler(env.storm).audit() == []
