"""Leader election: seeded, quorum-safe, and byte-identical across
runs.  The cluster boots with replica 0 already seated (term 1), so
elections only ever happen on failover."""

import pytest

from repro.core import ControllerCrashed, HaConfig, Reconciler
from repro.core.ha import FOLLOWER, LEADER

from tests.ha.conftest import cluster_signature, ha_env, nat_rules, switch_rules


def test_bootstrap_leader_seated_at_construction():
    env = ha_env()
    cluster = env.storm.ha
    assert cluster.leader_name == "storm-cp0"
    assert cluster.term == 1
    assert cluster.role("storm-cp0") == LEADER
    assert env.storm.controller is cluster.node("storm-cp0")
    assert cluster.quorum == 2
    # full replication mesh between 3 replicas
    assert len(list(cluster.replication_links())) == 3


def test_quorum_validation():
    with pytest.raises(ValueError):
        ha_env(ha_config=HaConfig(replicas=3, quorum=4))
    with pytest.raises(ValueError):
        ha_env(ha_config=HaConfig(replicas=0))


def test_single_replica_degenerates_to_single_node():
    """replicas=1 is PR 3's platform with the shipping plumbing on."""
    env = ha_env(ha_config=HaConfig(replicas=1))
    cluster = env.storm.ha
    assert cluster.quorum == 1
    flow, _mbs = env.attach([env.spec(name="svc", relay="fwd")])
    assert flow in env.storm.flows
    assert Reconciler(env.storm).audit() == []
    # every entry self-acked into the lone replica's log
    assert cluster.logs["storm-cp0"].last_index > 0


def test_leader_crash_elects_exactly_one_follower():
    env = ha_env()
    cluster = env.storm.ha
    cluster.start()
    old = env.injector.crash_leader(cluster)
    env.sim.run(until=1.0)
    cluster.stop()
    assert old.name == "storm-cp0"
    assert cluster.leader_name in ("storm-cp1", "storm-cp2")
    assert cluster.term == 2
    # the seeded jitter staggers candidates: one election, no split vote
    assert cluster.elections == 1
    elects = env.events("ha.elect")
    leaders = env.events("ha.leader")
    takeovers = env.events("ha.takeover")
    assert len(elects) == 1 and elects[0]["target"] == cluster.leader_name
    assert len(leaders) == 1 and leaders[0]["attrs"]["term"] == 2
    assert len(takeovers) == 1  # nothing in flight: 0 replayed, 0 rolled back
    assert takeovers[0]["attrs"] == {"term": 2, "replayed": 0, "rolled_back": 0}
    # election happened after one full timeout, not instantly
    assert elects[0]["ts"] >= cluster.config.election_timeout


def test_failover_timeline_is_byte_identical():
    def scenario():
        env = ha_env()
        cluster = env.storm.ha
        env.attach([env.spec(name="svc", relay="fwd")])
        cluster.start()
        env.injector.at(1.0, env.injector.crash_leader, cluster)
        env.sim.run(until=3.0)
        cluster.stop()
        return cluster_signature(env)

    assert scenario() == scenario()


def test_crashed_leader_rejoins_and_catches_up():
    env = ha_env()
    cluster = env.storm.ha
    env.attach([env.spec(name="svc", relay="fwd")])
    cluster.start()
    old = env.injector.crash_leader(cluster, restart_after=1.0)
    env.sim.run(until=env.sim.now + 0.5)  # election settles
    assert cluster.leader_name != old.name

    # ship fresh entries while the ex-leader is down: a second attach
    env.cloud.create_volume(env.tenant, "vol2", env.volume.size)
    mb2 = env.storm.provision_middlebox(env.tenant, env.spec(name="svc2", relay="fwd"))

    def do_attach():
        flow = yield env.sim.process(
            env.storm.attach_with_services(env.tenant, env.vm, "vol2", [mb2])
        )
        return flow

    flow2 = env.run(do_attach())
    assert flow2 in env.storm.flows

    env.sim.run(until=env.sim.now + 1.5)  # restart + rejoin + catch-up
    cluster.stop()
    assert cluster.role(old.name) == FOLLOWER
    assert len(env.events("ha.rejoin")) == 1
    assert len(env.events("ha.catch-up")) >= 1
    # snapshot catch-up brought the rejoined log level with the leader's
    leader_log = cluster.logs[cluster.leader_name]
    assert cluster.logs[old.name].last_index == leader_log.last_index
    assert Reconciler(env.storm).audit() == []


def test_isolated_leader_steps_down_and_minority_cannot_elect():
    """Split-brain: the leader loses its replication links.  It cannot
    commit anything (first ship steps it down), and alone it can never
    re-elect itself; the majority side elects a real leader."""
    env = ha_env()
    cluster = env.storm.ha
    cluster.start()
    old = env.injector.isolate_leader(cluster)
    assert old.name == "storm-cp0"

    # any control op through the isolated leader fails its quorum and
    # deposes it — and leaves zero half-installed state behind
    with pytest.raises(ControllerCrashed):
        env.attach([env.spec(name="svc", relay="fwd")])
    assert cluster.leader_name != old.name  # stepped down
    assert switch_rules(env) == [] and nat_rules(env) == []
    assert len(env.events("ha.quorum-lost")) == 1

    env.sim.run(until=env.sim.now + 1.0)
    new = cluster.leader_name
    assert new is not None and new != old.name
    assert cluster.role(new) == LEADER

    # heal: terms converge on exactly one leader.  (With every log
    # still empty the rejoining node may legitimately re-win on its
    # inflated term — what is forbidden is *two* leaders.)
    env.injector.heal_control_partition(cluster, old.name)
    env.sim.run(until=env.sim.now + 1.0)
    cluster.stop()
    assert cluster.leader_name is not None
    assert sum(1 for n in cluster.nodes if cluster.role(n.name) == LEADER) == 1
    assert cluster.role(cluster.leader_name) == LEADER

    # the platform is fully operational under the new leadership
    flow, _mbs = env.attach([env.spec(name="svc", relay="fwd")])
    assert flow in env.storm.flows
    assert Reconciler(env.storm).audit() == []


def test_partitioned_minority_follower_cannot_take_over():
    """One follower cut off from both peers: the seated leader keeps
    the quorum side running; the minority's elections go nowhere."""
    env = ha_env()
    cluster = env.storm.ha
    cluster.start()
    env.injector.control_partition(cluster, "storm-cp2")
    env.sim.run(until=2.0)
    assert cluster.leader_name == "storm-cp0"
    # the cut-off follower candidated (timeouts fired) but never won
    assert cluster.role("storm-cp2") != LEADER
    # quorum side still commits
    flow, _mbs = env.attach([env.spec(name="svc", relay="fwd")])
    assert flow in env.storm.flows

    env.injector.heal_control_partition(cluster, "storm-cp2")
    env.sim.run(until=env.sim.now + 2.0)
    cluster.stop()
    # after healing, exactly one leader and every log level again —
    # whoever leads, it must hold the full (quorum-acknowledged) log
    leader = cluster.leader_name
    assert leader is not None
    top = max(log.last_index for log in cluster.logs.values())
    assert cluster.logs[leader].last_index == top
    assert sum(1 for n in cluster.nodes if cluster.role(n.name) == LEADER) == 1
    assert Reconciler(env.storm).audit() == []


def test_election_restriction_prefers_the_full_log():
    """A follower that missed shipped entries cannot win an election
    against one that holds them."""
    env = ha_env()
    cluster = env.storm.ha
    # cp2 misses the attach's entries
    env.injector.control_partition(cluster, "storm-cp2")
    env.attach([env.spec(name="svc", relay="fwd")])
    assert cluster.logs["storm-cp1"].last_index > cluster.logs["storm-cp2"].last_index
    env.injector.heal_control_partition(cluster, "storm-cp2")
    cluster.start()
    # kill the leader before any heartbeat tick can catch cp2 up
    env.injector.crash_leader(cluster)
    env.sim.run(until=env.sim.now + 3.0)
    cluster.stop()
    assert cluster.leader_name == "storm-cp1"
