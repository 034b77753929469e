"""Synchronous quorum log shipping and O(active) compaction."""

import pytest

from repro.core import ControllerCrashed, Reconciler
from repro.core.saga import COMPACT_EVERY, QuorumLost
from repro.obs import ObsBus, instrument

from tests.ha.conftest import ha_env


def journals(cluster, name):
    return {
        rec.saga.saga_id: list(rec.journal)
        for rec in cluster.logs[name].records.values()
    }


def test_every_replica_acks_every_entry():
    env = ha_env()
    cluster = env.storm.ha
    flow, _mbs = env.attach([env.spec(name="svc", relay="fwd")])
    assert flow in env.storm.flows
    indexes = {name: log.last_index for name, log in cluster.logs.items()}
    assert len(set(indexes.values())) == 1 and indexes["storm-cp0"] > 0
    # identical journals everywhere, for the provision and attach sagas
    assert (
        journals(cluster, "storm-cp0")
        == journals(cluster, "storm-cp1")
        == journals(cluster, "storm-cp2")
    )
    # the shipped journals mirror the live ones exactly (no unacked
    # tail in the quiescent state)
    for saga in env.storm.intent_log.sagas:
        assert journals(cluster, "storm-cp0")[saga.saga_id] == saga.journal


def test_gap_triggers_snapshot_catch_up():
    """A follower that missed entries is snapshot-caught-up the next
    time an entry ships, in O(active sagas)."""
    env = ha_env()
    cluster = env.storm.ha
    env.injector.control_partition(cluster, "storm-cp2")
    env.attach([env.spec(name="svc", relay="fwd")])
    behind = cluster.logs["storm-cp2"].last_index
    assert behind < cluster.logs["storm-cp0"].last_index
    env.injector.heal_control_partition(cluster, "storm-cp2")
    # next control op ships -> gap detected -> snapshot
    env.storm.provision_middlebox(env.tenant, env.spec(name="late", relay="fwd"))
    assert cluster.logs["storm-cp2"].last_index == cluster.logs["storm-cp0"].last_index
    catchups = env.log.matching("ha.catch-up")
    assert catchups and catchups[0].target == "storm-cp2"
    assert catchups[0].detail["skipped"] > 0
    # resolved history was not re-shipped: the snapshot carried only
    # the active saga (the in-flight provision), not the committed past
    assert len(cluster.logs["storm-cp2"].records) == 1


def test_failed_ship_leaves_no_trace():
    """A quorum-failed ship must not linger in any replica log (logs
    hold only quorum-acknowledged entries — the election restriction
    compares them)."""
    env = ha_env()
    cluster = env.storm.ha
    before = {name: log.last_index for name, log in cluster.logs.items()}
    env.injector.isolate_leader(cluster)
    with pytest.raises(QuorumLost):
        env.storm.provision_middlebox(env.tenant, env.spec(name="svc", relay="fwd"))
    assert {name: log.last_index for name, log in cluster.logs.items()} == before
    assert all(not log.records for log in cluster.logs.values())
    # the aborted saga is resolved locally, never 'in flight'
    assert env.storm.intent_log.incomplete() == []


def test_begin_time_quorum_failure_is_a_settlement():
    """Both begin-time aborts (no quorum for the first entry; no leader
    at all) settle through the engine: the saga drops its closures and
    counts towards the next compaction like any other settlement."""
    env = ha_env()
    cluster = env.storm.ha
    log = env.storm.intent_log
    env.injector.isolate_leader(cluster)
    for name in ("svc", "leaderless"):
        with pytest.raises(QuorumLost):
            env.storm.provision_middlebox(env.tenant, env.spec(name=name, relay="fwd"))
    failed = list(log.sagas)
    assert [saga.journal for saga in failed] == [["begin", "abort"]] * 2
    assert all(not saga.incomplete and saga.steps == [] for saga in failed)
    assert all(not rl.records for rl in cluster.logs.values())

    env.injector.heal_control_partition(cluster, "storm-cp0")
    cluster.start()
    env.sim.run(until=env.sim.now + 1.0)
    cluster.stop()
    assert cluster.leader_name is not None
    # the two failures were settlements 1 and 2 of the next 64
    mbs = [
        env.storm.provision_middlebox(env.tenant, env.spec(name=f"s{i}", relay="fwd"))
        for i in range(COMPACT_EVERY // 2 - 1)
    ]  # settlements 3 to 33
    for mb in mbs[:-1]:
        env.storm.deprovision_middlebox(mb)  # 34 to 63
    assert log.compacted == 0 and log.sagas[:2] == failed
    env.storm.deprovision_middlebox(mbs[-1])  # the 64th compacts
    assert log.compacted_aborted == 2 and len(log) == 0


@pytest.mark.parametrize("cut", ["link-down", "unplug", "crash"])
def test_route_reads_reachability_live(cut):
    """A follower taken off between two ships of one leadership does not
    ack the second, and acks again (by snapshot) once it is back: the
    route is built once, but its verdict is never cached."""
    env = ha_env()
    cluster = env.storm.ha
    bus = ObsBus(env.sim)
    instrument(bus, storm=env.storm)
    leader, follower = cluster.node("storm-cp0"), cluster.node("storm-cp2")
    link = cluster.link_between(leader.name, follower.name)
    nic = link.a if link.a.owner is leader else link.b  # leader's end

    def index(node):
        return cluster.logs[node.name].last_index

    def provision(name):
        return env.storm.provision_middlebox(env.tenant, env.spec(name=name, relay="fwd"))

    if cut == "link-down":
        take_off, bring_back = (lambda: env.injector.link_down(link),
                                lambda: env.injector.link_up(link))
    elif cut == "unplug":
        take_off, bring_back = (lambda: setattr(nic, "link", None),
                                lambda: setattr(nic, "link", link))
    else:
        take_off, bring_back = (lambda: env.injector.crash(follower),
                                lambda: env.injector.restart(follower))

    provision("before")
    assert index(follower) == index(leader) > 0
    take_off()
    behind = index(follower)
    provision("during")  # two of three replicas: the quorum holds
    assert cluster.leader_name == leader.name
    assert index(follower) == behind < index(leader)
    bring_back()
    catchups = bus.metrics.counter("ha.ship.catchups").value
    provision("after")
    assert bus.metrics.counter("ha.ship.catchups").value == catchups + 1
    assert index(follower) == index(leader)


def test_route_follows_the_leader_after_an_election():
    env = ha_env()
    cluster = env.storm.ha
    cluster.start()
    old = env.injector.crash_leader(cluster)
    env.sim.run(until=env.sim.now + 1.0)
    cluster.stop()
    new = cluster.leader_node
    assert new is not None and new is not old
    (peer,) = [n for n in cluster.nodes if n is not old and n is not new]
    env.storm.provision_middlebox(env.tenant, env.spec(name="svc", relay="fwd"))
    indexes = {name: log.last_index for name, log in cluster.logs.items()}
    assert indexes[new.name] == indexes[peer.name] > indexes[old.name]
    with pytest.raises(KeyError, match="nope"):
        cluster.node("nope")


def test_quorum_loss_is_a_controller_crash_to_callers():
    env = ha_env()
    cluster = env.storm.ha
    env.injector.isolate_leader(cluster)
    with pytest.raises(ControllerCrashed):
        env.attach([env.spec(name="svc", relay="fwd")])
    assert Reconciler(env.storm).audit() == []


def test_ship_metrics_and_lag_histogram():
    env = ha_env()
    bus = ObsBus(env.sim)
    instrument(bus, storm=env.storm)
    env.attach([env.spec(name="svc", relay="fwd")])
    entries = bus.metrics.counter("ha.ship.entries").value
    assert entries == cluster_index(env)
    lag = bus.metrics.histogram("ha.ship.lag")
    # two followers acked every entry, each at one control-link RTT
    assert lag.count == 2 * entries
    assert lag.min == lag.max == 2 * env.params.control_link_latency
    # election/term gauges seeded by instrument()
    assert bus.metrics.gauge("ha.term").value == 1.0
    assert bus.metrics.gauge("ha.leader", scope="storm-cp0").value == 1.0
    assert bus.metrics.gauge("ha.leader", scope="storm-cp1").value == 0.0


def cluster_index(env):
    return env.storm.ha.logs["storm-cp0"].last_index


# -- compaction (satellite: O(active) replay) ---------------------------


def test_compaction_drops_only_resolved_sagas():
    env = ha_env()
    cluster = env.storm.ha
    env.attach([env.spec(name="svc", relay="fwd")])
    log = env.storm.intent_log
    total = len(log)
    assert total >= 2  # provision + attach, all committed
    dropped = log.compact()  # the replica logs compact with it
    assert dropped == total
    assert len(log) == 0 and log.compacted == total
    assert all(not rl.records for rl in cluster.logs.values())
    assert all(rl.compacted == total for rl in cluster.logs.values())
    # indexes are positions, not sizes: compaction must not move them
    assert cluster_index(env) > 0


def test_replay_after_compaction_equals_replay_without():
    """The satellite invariant: crash-replay over a compacted log
    resolves exactly what replay over the full log would — compaction
    drops only resolved sagas, which replay never touches."""

    def scenario(compact):
        env = ha_env()
        cluster = env.storm.ha
        # history: two committed sagas (provision + attach)
        env.attach([env.spec(name="svc", relay="fwd")])
        if compact:
            env.storm.intent_log.compact()
        # one in-flight saga: crash the leader mid-attach of a second
        # volume, after its chain is installed but before the pivot
        env.cloud.create_volume(env.tenant, "vol2", env.volume.size)
        mb2 = env.storm.provision_middlebox(
            env.tenant, env.spec(name="svc2", relay="fwd")
        )
        fired = {}

        def probe(saga, step, when):
            if not fired and saga.op == "attach_with_services" and \
                    step.name == "install-chain" and when == "after":
                fired["at"] = env.sim.now
                env.injector.crash(env.storm.controller)

        env.storm.engine.probe = probe
        cluster.start()

        def do_attach():
            yield env.sim.process(
                env.storm.attach_with_services(env.tenant, env.vm, "vol2", [mb2])
            )

        with pytest.raises(ControllerCrashed):
            env.run(do_attach())
        assert fired
        env.sim.run(until=env.sim.now + 1.0)  # election + takeover
        cluster.stop()
        sagas = env.storm.intent_log.by_op("attach_with_services")
        resolution = [(s.cookie, s.status, tuple(s.journal)) for s in sagas]
        return {
            "resolution": resolution,
            "flows": [f.volume_name for f in env.storm.flows],
            "audit": Reconciler(env.storm).audit(),
            "takeover": env.log.matching("ha.takeover")[-1].detail,
        }

    plain, compacted = scenario(compact=False), scenario(compact=True)
    # compaction dropped the committed history from the shipped view,
    # but takeover resolves the identical in-flight set identically
    assert compacted["resolution"] == [r for r in plain["resolution"]
                                       if r[0] == "storm:vm1:vol2"]
    assert plain["flows"] == compacted["flows"] == ["vol1"]
    assert plain["audit"] == compacted["audit"] == []
    assert plain["takeover"] == compacted["takeover"]


def test_auto_compaction_every_64_resolved_sagas():
    """The engine's one trigger compacts the logical log and, through
    the shipper hook, every replica log."""
    env = ha_env()
    log = env.storm.intent_log

    def two_sagas(i):
        mb = env.storm.provision_middlebox(env.tenant, env.spec(name=f"s{i}", relay="fwd"))
        env.storm.deprovision_middlebox(mb)

    for i in range(COMPACT_EVERY // 2 - 1):
        two_sagas(i)
    assert log.compacted == 0 and len(log) == COMPACT_EVERY - 2
    two_sagas(-1)
    assert log.compacted == COMPACT_EVERY and len(log) == 0
    assert all(not rl.records for rl in env.storm.ha.logs.values())
