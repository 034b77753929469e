"""Reconciliation loop: detects and repairs SDN/NAT drift and orphans."""

from repro.core import MiddleboxAutoscaler, Reconciler
from repro.core.reconcile import INVARIANTS, list_invariants, main
from repro.net.switch import cookie_in_family

from tests.faults.conftest import fault_env


def switch_rules(env, cookie):
    return [
        (name, rule)
        for name, rule in env.cloud.sdn.iter_rules()
        if cookie_in_family(rule.cookie, cookie)
    ]


def test_clean_platform_audits_clean():
    env = fault_env()
    flow, _ = env.attach([env.spec(name="svc", relay="fwd")])
    assert Reconciler(env.storm).audit() == []


def test_orphan_rules_are_garbage_collected():
    """Rules whose flow no longer exists (e.g. leaked when the whole
    intent log was lost) are swept."""
    env = fault_env()
    flow, _ = env.attach([env.spec(name="svc", relay="fwd")])
    # simulate a leak: forget the flow without removing its rules
    env.storm.flows.clear()
    assert switch_rules(env, flow.cookie)

    rec = Reconciler(env.storm)
    drifts = rec.repair()
    assert [d.kind for d in drifts] == ["rule-orphan"]
    assert switch_rules(env, flow.cookie) == []
    assert len(env.events("reconcile.rule-orphan")) == 1
    assert rec.audit() == []


def test_stale_generation_is_retired():
    env = fault_env()
    flow, _ = env.attach([env.spec(name="svc", relay="fwd")])
    # leave a shadowed generation behind, as a crash between stage and
    # retire would
    retired = flow.chain.stage()
    assert len(switch_rules(env, flow.cookie)) == 2 * flow.chain.expected_rule_count()

    rec = Reconciler(env.storm)
    drifts = rec.repair()
    assert [d.kind for d in drifts] == ["rule-stale-gen"]
    rules = switch_rules(env, flow.cookie)
    assert len(rules) == flow.chain.expected_rule_count()
    assert all(r.cookie == flow.chain.active_cookie for _s, r in rules)
    assert rec.audit() == []


def test_missing_rules_are_reinstalled():
    """A switch that lost rules the control plane believes installed
    (e.g. a switch restart) gets them re-pushed."""
    env = fault_env()
    flow, _ = env.attach([env.spec(name="svc", relay="fwd")])
    active = flow.chain.active_cookie
    # knock the rules out of the switch tables behind the SDN
    # controller's back
    for switch_name in list(env.cloud.compute_hosts):
        env.cloud.sdn.switch(f"ovs-{switch_name}").flow_table.remove_by_cookie(
            active, family=False
        )
    assert switch_rules(env, flow.cookie) == []

    rec = Reconciler(env.storm)
    drifts = rec.repair()
    assert [d.kind for d in drifts] == ["rule-missing"]
    assert len(switch_rules(env, flow.cookie)) == flow.chain.expected_rule_count()
    assert rec.audit() == []


def test_orphan_nat_rules_are_removed():
    env = fault_env()
    flow, _ = env.attach([env.spec(name="svc", relay="fwd")])
    from repro.net.nat import NatRule

    env.vm.host.stack.nat.install(
        NatRule(match_dst_port=3260, cookie="storm:vm9:ghost")
    )
    rec = Reconciler(env.storm)
    drifts = rec.repair()
    assert [d.kind for d in drifts] == ["nat-orphan"]
    assert env.vm.host.stack.nat.rules_for_cookie("storm:vm9:ghost") == []
    assert rec.audit() == []


def test_crashed_flowless_middlebox_reported_and_gced():
    """A crashed box is an orphan only when no live flow's current or
    desired chain uses it and the loop's pool neither holds nor has
    lent it; repair deprovisions exactly the orphans."""
    env = fault_env()
    storm = env.storm
    flow, (mb_a, mb_b) = env.attach(
        [env.spec(name="a", relay="fwd"), env.spec(name="b", relay="fwd")]
    )
    idle = storm.provision_middlebox(env.tenant, env.spec(name="idle", relay="fwd"))
    spares = [
        storm.provision_middlebox(env.tenant, env.spec(name=n, relay="fwd"))
        for n in ("pool-1", "pool-2")
    ]
    scaler = MiddleboxAutoscaler(
        storm, env.tenant, env.spec(name="pool", relay="fwd"), flows=[],
        initial_pool=spares,
    )
    rec = Reconciler(storm, capacity_pool=scaler)
    # a: bypassed, so only the desired chain still names it
    storm.reconfigure_chain(flow, [mb_b])
    env.injector.crash(mb_a)
    loaned = scaler.borrow()
    env.injector.crash(loaned)
    env.injector.crash(idle)

    assert [(d.kind, d.target) for d in rec.audit()] == [("mb-orphan", idle.name)]
    rec.repair()
    assert idle.name not in storm.middleboxes
    assert mb_a.name in storm.middleboxes
    assert loaned.name in storm.middleboxes and scaler.lent == [loaned]
    assert len(env.events("reconcile.mb-orphan")) == 1
    assert rec.audit() == []


def test_reconcile_loop_repairs_periodically():
    env = fault_env()
    flow, _ = env.attach([env.spec(name="svc", relay="fwd")])
    rec = Reconciler(env.storm)
    env.sim.process(rec.run(interval=0.1, duration=1.0))
    # inject drift mid-run
    env.injector.at(0.35, lambda: env.cloud.sdn.remove_by_cookie(flow.cookie))
    env.sim.run()
    assert len(switch_rules(env, flow.cookie)) == flow.chain.expected_rule_count()
    assert [d.kind for d in rec.repairs] == ["rule-missing"]


def test_list_invariants_cli(capsys):
    assert main(["--list-invariants"]) == 0
    out = capsys.readouterr().out
    for key, _text in INVARIANTS:
        assert key in out
    assert list_invariants() in out
