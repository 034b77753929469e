"""Leader-kill chaos matrix: crash the *cluster leader* at every saga
step boundary of attach/detach/reconfigure.  Unlike the single-node
matrix (tests/faults/test_control_plane_saga.py), recovery here is not
the crashed node restarting — it is a *different* replica winning the
election and finishing the saga from the shipped log, mid-operation:
roll forward past the pivot, compensate before it.  The two-outcome
and zero-leak invariants must survive the handoff, including when the
entire intent log is lost and the new leader rebuilds from the switch
tables."""

import pytest

from repro.core import ControllerCrashed, Reconciler
from repro.core.reconcile import FAIL_CLOSED
from repro.core.saga import ABORTED, COMMITTED
from repro.testbed import assert_at_rest

from tests.ha.conftest import COOKIE, cluster_signature, ha_env, nat_rules, switch_rules

ATTACH_STEPS = [
    "install-nat",
    "install-chain",
    "connect",
    "narrow",
    "remove-nat",
    "register-flow",
]


def leader_kill_probe(env, op, step_name, phase, restart_after=1.0):
    """Crash the current cluster leader exactly once, at one boundary."""
    fired = {}

    def probe(saga, step, when):
        if fired or saga.op != op or step.name != step_name or when != phase:
            return
        fired["at"] = env.sim.now
        env.injector.crash_leader(env.storm.ha, restart_after=restart_after)

    env.storm.engine.probe = probe
    return fired


def run_attach_failover(step_name, phase):
    env = ha_env()
    storm = env.storm
    cluster = storm.ha
    mb = storm.provision_middlebox(env.tenant, env.spec(name="svc", relay="fwd"))
    cluster.start()
    fired = leader_kill_probe(env, "attach_with_services", step_name, phase)

    def do_attach():
        yield env.sim.process(
            storm.attach_with_services(env.tenant, env.vm, "vol1", [mb])
        )

    with pytest.raises(ControllerCrashed):
        env.run(do_attach())
    assert fired, "probe never crashed the leader"
    env.sim.run(until=env.sim.now + 3.0)  # election + takeover + rejoin
    cluster.stop()
    return env


@pytest.mark.parametrize("phase", ["before", "after"])
@pytest.mark.parametrize("step_name", ATTACH_STEPS)
def test_attach_leader_kill_matrix(step_name, phase):
    env = run_attach_failover(step_name, phase)
    storm = env.storm
    cluster = storm.ha

    # a different replica took over and resolved the saga
    assert cluster.leader_name != "storm-cp0"
    assert cluster.term >= 2
    takeover = env.events("ha.takeover")[-1]["attrs"]
    sagas = storm.intent_log.by_op("attach_with_services")
    assert len(sagas) == 1
    saga = sagas[0]
    assert not saga.incomplete
    # the new leader adopted the saga under its own term
    assert saga.origin == cluster.leader_name and saga.term == cluster.term

    if saga.pivoted:
        # rolled forward: exactly one fully-attached flow
        assert saga.status == COMMITTED
        assert takeover["replayed"] == 1
        assert len(storm.flows) == 1
        flow = storm.flows[0]
        rules = switch_rules(env)
        assert len(rules) == flow.chain.expected_rule_count()
        assert all(r.cookie == flow.chain.active_cookie for _s, r in rules)
    else:
        # rolled back: as if the attach never happened
        assert saga.status == ABORTED
        assert takeover["rolled_back"] == 1
        assert storm.flows == []
        assert switch_rules(env) == []
    # both outcomes: zero transient NAT rules, clean audit
    assert nat_rules(env) == []
    assert Reconciler(storm).audit() == []
    # the ex-leader rejoined as a follower with a level log
    assert len(env.events("ha.rejoin")) == 1
    assert (
        cluster.logs["storm-cp0"].last_index
        == cluster.logs[cluster.leader_name].last_index
    )


@pytest.mark.parametrize("phase", ["before", "after"])
@pytest.mark.parametrize("step_name", ATTACH_STEPS)
def test_attach_failover_is_deterministic(step_name, phase):
    """Run-twice byte-identity for every failover scenario of the
    matrix: leadership, terms, logs, journals, and the full timeline."""
    first = cluster_signature(run_attach_failover(step_name, phase))
    second = cluster_signature(run_attach_failover(step_name, phase))
    assert first == second


def test_detach_leader_kill_rolls_forward():
    """Detach's first step is the pivot: a leader crash mid-detach
    means the *new* leader completes the teardown."""
    env = ha_env()
    storm = env.storm
    cluster = storm.ha
    flow, _mbs = env.attach([env.spec(name="svc", relay="fwd")])
    cluster.start()
    fired = leader_kill_probe(env, "detach", "remove-rules", "before")

    with pytest.raises(ControllerCrashed):
        storm.detach(flow)
    assert fired
    env.sim.run(until=env.sim.now + 3.0)
    cluster.stop()

    assert flow.detached
    assert flow not in storm.flows
    assert switch_rules(env) == []
    assert Reconciler(storm).audit() == []
    saga = storm.intent_log.by_op("detach")[0]
    assert saga.status == COMMITTED
    assert env.events("ha.takeover")[-1]["attrs"]["replayed"] == 1


def test_reconfigure_leader_kill_keeps_a_complete_rule_set():
    """A leader crash between stage and retire leaves two shadowed
    rule generations; the elected leader retires the stale one."""
    env = ha_env()
    storm = env.storm
    cluster = storm.ha
    flow, _mbs = env.attach([env.spec(name="a", relay="fwd")])
    mb2 = storm.provision_middlebox(env.tenant, env.spec(name="b", relay="fwd"))
    cluster.start()
    fired = leader_kill_probe(env, "reconfigure_chain", "retire-old-rules", "before")

    with pytest.raises(ControllerCrashed):
        storm.reconfigure_chain(flow, [mb2])
    assert fired
    # mid-crash: both generations installed — the flow never lacks rules
    assert len(switch_rules(env)) >= flow.chain.expected_rule_count()
    env.sim.run(until=env.sim.now + 3.0)
    cluster.stop()

    assert storm.intent_log.by_op("reconfigure_chain")[0].status == COMMITTED
    assert flow.middleboxes == [mb2]
    rules = switch_rules(env)
    assert len(rules) == flow.chain.expected_rule_count()
    assert all(r.cookie == flow.chain.active_cookie for _s, r in rules)
    assert Reconciler(storm).audit() == []


@pytest.mark.parametrize("phase", ["before", "after"])
def test_loop_quiesce_leader_kill_is_fenced(phase):
    """The control loop's quiesce is a saga: a leader killed at either
    step boundary leaves both drop rules or neither, the deposed
    leader's loop writes nothing more, and after takeover the loop
    converges under the new leader."""
    env = ha_env()
    storm = env.storm
    cluster = storm.ha
    flow, (mb,) = env.attach([env.spec(name="svc", relay="fwd")])
    loop = Reconciler(storm, default_policy=FAIL_CLOSED)
    cluster.start()
    fired = leader_kill_probe(env, "quiesce", "quiesce", phase)

    def quiesce_rules():
        return [r for _s, r in switch_rules(env) if r.cookie == f"{COOKIE}#quiesce"]

    env.injector.crash(mb)
    loop.tick()  # the kill lands inside the quiesce saga
    assert fired, "probe never crashed the leader"
    assert len(quiesce_rules()) == (0 if phase == "before" else 2)
    # the deposed leader's loop writes nothing
    rules = switch_rules(env)
    loop.tick()
    assert switch_rules(env) == rules
    assert env.events("watchdog.") == []

    env.sim.run(until=env.sim.now + 3.0)  # election + takeover + rejoin
    cluster.stop()
    assert cluster.leader_name != "storm-cp0"
    assert len(quiesce_rules()) in (0, 2)
    assert storm.intent_log.incomplete() == []
    assert Reconciler(storm).audit() == []

    loop.tick()
    assert len(quiesce_rules()) == 2 and flow.chain.quiesced
    assert len(env.events("watchdog.quiesce")) == 1
    assert_at_rest(storm)


# -- total log loss: rebuild from the switch tables ----------------------


def test_log_loss_on_healthy_leader_rebuilds_in_place():
    """Losing every replica's log under a seated leader: the rebuild
    sweeps nothing (no drift), committed flows keep their rules."""
    env = ha_env()
    storm = env.storm
    cluster = storm.ha
    flow, _mbs = env.attach([env.spec(name="svc", relay="fwd")])
    old_log = storm.intent_log
    rules_before = switch_rules(env)

    env.injector.lose_intent_log(cluster)

    assert storm.intent_log is not old_log  # fresh log, shipping wired
    assert storm.intent_log.shipper is cluster
    assert len(env.events("fault.log-loss")) == 1
    rebuilds = env.events("ha.log-rebuild")
    assert len(rebuilds) == 1 and rebuilds[0]["attrs"]["drifts"] == 0
    assert flow in storm.flows
    assert switch_rules(env) == rules_before
    assert Reconciler(storm).audit() == []
    # and the platform still works: the next op journals + ships again
    storm.provision_middlebox(env.tenant, env.spec(name="post", relay="fwd"))
    assert len(storm.intent_log) >= 1


def test_log_loss_with_in_flight_saga_sweeps_transients():
    """Leader killed mid-attach AND every log lost: the elected leader
    cannot roll the saga back (the journal is gone) — it rebuilds from
    the switch tables, sweeping the half-installed transients."""
    env = ha_env()
    storm = env.storm
    cluster = storm.ha
    mb = storm.provision_middlebox(env.tenant, env.spec(name="svc", relay="fwd"))
    cluster.start()
    fired = {}

    def probe(saga, step, when):
        if fired or saga.op != "attach_with_services":
            return
        if step.name == "install-chain" and when == "after":
            fired["at"] = env.sim.now
            env.injector.crash_leader(cluster)
            env.injector.lose_intent_log(cluster)  # leaderless: deferred

    storm.engine.probe = probe

    def do_attach():
        yield env.sim.process(
            storm.attach_with_services(env.tenant, env.vm, "vol1", [mb])
        )

    with pytest.raises(ControllerCrashed):
        env.run(do_attach())
    assert fired
    # half-installed state exists right now (wildcard chain rules, NAT)
    assert switch_rules(env) != [] or nat_rules(env) != []

    env.sim.run(until=env.sim.now + 2.0)  # election -> takeover -> rebuild
    cluster.stop()

    rebuilds = env.events("ha.log-rebuild")
    assert len(rebuilds) == 1
    assert rebuilds[0]["attrs"]["drifts"] > 0  # it actually swept things
    assert rebuilds[0]["target"] == cluster.leader_name
    # ground truth restored: no flow, no rules, no NAT, clean audit
    assert storm.flows == []
    assert switch_rules(env) == []
    assert nat_rules(env) == []
    assert Reconciler(storm).audit() == []
