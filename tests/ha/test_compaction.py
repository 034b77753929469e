"""Compaction moves the window's settled sagas instead of scanning for
them: in overload the in-flight log is the attach-mutex queue, and one
compaction must not visit it, yet it must leave the intent log and
every replica log exactly as the scan it replaced would."""

import pytest

from repro.core.saga import COMMITTED, IN_FLIGHT, ControllerCrashed, QuorumLost, Saga, SagaStep
from repro.testbed import assert_at_rest

from tests.ha.conftest import ha_env

QUEUED = 12


def _scan(log, cluster):
    """What the scan compaction left: the intent log's in-flight sagas in
    begin order, each replica log's records of in-flight sagas, and the
    counters with every resolved saga added, as ``Saga.incomplete``
    judged them.  Returns that and the number of ``incomplete`` reads."""
    reads = 0

    def incomplete(saga):
        nonlocal reads
        reads += 1
        return saga.incomplete

    kept = [s for s in log.sagas if incomplete(s)]
    resolved = [s for s in log.sagas if not incomplete(s)]
    committed = sum(s.status == COMMITTED for s in resolved)
    replicas = {}
    for name, rlog in cluster.logs.items():
        records = {i: (r.saga, r.acked) for i, r in rlog.records.items() if incomplete(r.saga)}
        dropped = sum(1 for r in rlog.records.values() if not incomplete(r.saga))
        replicas[name] = (records, rlog.compacted + dropped, rlog.last_index)
    state = (
        kept,
        log.compacted_committed + committed,
        log.compacted_aborted + len(resolved) - committed,
        replicas,
    )
    return state, reads


def _state(log, cluster):
    replicas = {
        name: (
            {i: (r.saga, r.acked) for i, r in rlog.records.items()},
            rlog.compacted,
            rlog.last_index,
        )
        for name, rlog in cluster.logs.items()
    }
    return (list(log.sagas), log.compacted_committed, log.compacted_aborted, replicas)


def test_one_compaction_reads_no_queued_saga(monkeypatch):
    env = ha_env()
    cluster, engine, log = env.storm.ha, env.storm.engine, env.storm.intent_log
    sim = env.sim
    cluster.start()

    def saga(op, hold=0.0, fail=False):
        def hold_the_mutex():
            yield sim.timeout(hold)

        def do():
            if fail:
                raise RuntimeError("step failed")
            return hold_the_mutex() if hold else None

        steps = [
            SagaStep("splice", do=do, undo=lambda: None, locked=True),
            SagaStep("register", do=lambda: None, pivot=True, locked=False),
        ]
        return engine.begin(op, f"{op}:{len(log.sagas)}", steps)

    def drive(s):
        try:
            yield from engine.run(s)
        except (ControllerCrashed, RuntimeError):
            pass

    # a begin that finds no quorum settles as aborted at once
    env.injector.isolate_leader(cluster)
    with pytest.raises(QuorumLost):
        saga("unshipped")
    env.injector.heal_control_partition(cluster, "storm-cp0")
    sim.run(until=sim.now + 1.0)
    assert cluster.leader_name is not None

    # a leader takeover rolls back the saga its predecessor left holding
    # the mutex; two more commit and one rolls back on its own
    orphan = saga("orphan", hold=1.0)
    sim.process(drive(orphan))
    sim.run(until=sim.now + 0.01)
    env.injector.crash_leader(cluster, restart_after=0.5)
    sim.run(until=sim.now + 2.0)
    assert orphan.status != IN_FLIGHT and env.events("ha.takeover")
    for op in ("commit-a", "commit-b", "fails"):
        s = saga(op, fail=op == "fails")
        sim.process(drive(s))
    sim.run(until=sim.now + 0.01)

    # a follower cut off while a saga ships catches up by snapshot
    follower = next(n.name for n in cluster.nodes if n.name != cluster.leader_name)
    env.injector.control_partition(cluster, follower)
    sim.process(drive(saga("while-cut")))
    sim.run(until=sim.now + 0.01)
    env.injector.heal_control_partition(cluster, follower)
    sim.process(drive(saga("after-heal")))
    sim.run(until=sim.now + 0.01)
    assert any(e["target"] == follower for e in env.events("ha.catch-up"))

    # one holder and QUEUED sagas waiting for the mutex behind it
    for index in range(QUEUED + 1):
        sim.process(drive(saga("attach", hold=5.0 if index == 0 else 0.0)))
    sim.run(until=sim.now + 0.01)
    assert len(engine.mutex) == QUEUED + 1
    assert sum(s.status == IN_FLIGHT for s in log.sagas) == QUEUED + 1

    expected, scan_reads = _scan(log, cluster)
    assert scan_reads >= QUEUED * (1 + len(cluster.logs))
    reads = 0
    incomplete = Saga.incomplete

    def counted(saga):
        nonlocal reads
        reads += 1
        return incomplete.fget(saga)

    monkeypatch.setattr(Saga, "incomplete", property(counted))
    dropped = log.compact()
    monkeypatch.setattr(Saga, "incomplete", incomplete)
    assert reads == 0
    assert _state(log, cluster) == expected
    assert dropped == 7 and log.compacted_aborted == 3  # unshipped, orphan, fails

    sim.run(until=sim.now + 6.0)
    cluster.stop()
    assert_at_rest(env.storm)
    assert all(s.status == COMMITTED for s in log.sagas[-QUEUED:])
