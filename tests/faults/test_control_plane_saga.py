"""Controller-crash chaos matrix: crashing the StorM controller at
*every* saga step boundary of an attach must leave the platform in
exactly one of two audited states — fully attached or fully rolled
back — with zero leaked SDN/NAT rules either way."""

import pytest

from repro.core import ControllerCrashed, Reconciler
from repro.core.saga import ABORTED, COMMITTED
from repro.net.switch import cookie_in_family

from tests.faults.conftest import fault_env

ATTACH_STEPS = [
    "install-nat",
    "install-chain",
    "connect",
    "narrow",
    "remove-nat",
    "register-flow",
]

COOKIE = "storm:vm1:vol1"


def switch_rules(env, cookie=COOKIE):
    return [
        (name, rule)
        for name, rule in env.cloud.sdn.iter_rules()
        if cookie_in_family(rule.cookie, cookie)
    ]


def nat_rules(env, cookie=COOKIE):
    found = []
    for _name, nat in env.cloud.iter_nat_tables():
        found.extend(nat.rules_for_cookie(cookie))
    for pair in env.storm.gateway_pairs.values():
        found.extend(pair.ingress.stack.nat.rules_for_cookie(cookie))
        found.extend(pair.egress.stack.nat.rules_for_cookie(cookie))
    return found


def crash_probe(env, op, step_name, phase):
    """Crash the controller exactly once, at one step boundary."""
    fired = {}

    def probe(saga, step, when):
        if fired or saga.op != op or step.name != step_name or when != phase:
            return
        fired["at"] = env.sim.now
        env.injector.crash(env.storm.controller, restart_after=0.5)

    env.storm.engine.probe = probe
    return fired


@pytest.mark.parametrize("phase", ["before", "after"])
@pytest.mark.parametrize("step_name", ATTACH_STEPS)
def test_attach_crash_matrix(step_name, phase):
    env = fault_env()
    storm = env.storm
    mb = storm.provision_middlebox(env.tenant, env.spec(name="svc", relay="fwd"))
    fired = crash_probe(env, "attach_with_services", step_name, phase)

    def do_attach():
        yield env.sim.process(
            storm.attach_with_services(env.tenant, env.vm, "vol1", [mb])
        )

    with pytest.raises(ControllerCrashed):
        env.run(do_attach())
    assert fired, "probe never crashed the controller"
    env.sim.run()  # drain the scheduled restart -> recovery

    sagas = storm.intent_log.by_op("attach_with_services")
    assert len(sagas) == 1
    saga = sagas[0]

    if saga.pivoted:
        # rolled forward: exactly one fully-attached flow
        assert saga.status == COMMITTED
        assert len(storm.flows) == 1
        (flow,) = storm.flows
        rules = switch_rules(env)
        assert len(rules) == flow.chain.expected_rule_count()
        assert all(r.cookie == flow.chain.active_cookie for _s, r in rules)
        assert all(r.src_port is not None or r.dst_port is not None for _s, r in rules)
    else:
        # rolled back: as if the attach never happened
        assert saga.status == ABORTED
        assert storm.flows == {}
        assert switch_rules(env) == []
    # both outcomes: zero transient NAT rules, clean audit
    assert nat_rules(env) == []
    assert Reconciler(storm).audit() == []
    # recovery is idempotent
    assert storm.recover() == {"replayed": 0, "rolled_back": 0}
    # fault timeline recorded the crash + restart + saga resolution
    assert len(env.events("fault.crash")) == 1
    assert len(env.events("fault.restart")) == 1
    assert len(env.events("saga.commit")) + len(env.events("saga.rollback")) >= 1


def test_detach_crash_rolls_forward():
    """Detach's first step is the pivot: any crash mid-detach completes
    the teardown on recovery, never resurrects the flow."""
    env = fault_env()
    storm = env.storm
    flow, _mbs = env.attach([env.spec(name="svc", relay="fwd")])
    fired = crash_probe(env, "detach", "remove-rules", "before")

    with pytest.raises(ControllerCrashed):
        storm.detach(flow)
    assert fired
    env.sim.run()

    assert flow.detached
    assert flow not in storm.flows
    assert switch_rules(env) == []
    assert Reconciler(storm).audit() == []
    saga = storm.intent_log.by_op("detach")[0]
    assert saga.status == COMMITTED


def test_reconfigure_crash_keeps_a_complete_rule_set():
    """A crash between stage and retire leaves two shadowed rule
    generations; recovery retires the stale one."""
    env = fault_env()
    storm = env.storm
    flow, _mbs = env.attach([env.spec(name="a", relay="fwd")])
    mb2 = storm.provision_middlebox(env.tenant, env.spec(name="b", relay="fwd"))
    fired = crash_probe(env, "reconfigure_chain", "retire-old-rules", "before")

    with pytest.raises(ControllerCrashed):
        storm.reconfigure_chain(flow, [mb2])
    assert fired
    # mid-crash: both generations installed — the flow never lacks rules
    assert len(switch_rules(env)) >= flow.chain.expected_rule_count()
    env.sim.run()

    assert saga_committed(storm, "reconfigure_chain")
    assert flow.middleboxes == [mb2]
    rules = switch_rules(env)
    assert len(rules) == flow.chain.expected_rule_count()
    assert all(r.cookie == flow.chain.active_cookie for _s, r in rules)
    assert Reconciler(storm).audit() == []


def saga_committed(storm, op):
    return storm.intent_log.by_op(op)[0].status == COMMITTED
