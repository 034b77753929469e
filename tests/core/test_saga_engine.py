"""The saga engine on its own (no cloud), and the two things built on
it — single-node crash recovery and HA takeover — resolving through
the same routine."""

import pytest

from repro.core import ControllerCrashed, Reconciler
from repro.core.saga import (
    ABORTED,
    COMMITTED,
    COMPACT_EVERY,
    SagaEngine,
    SagaError,
    SagaStep,
)
from repro.faults import FaultInjector
from repro.sim import Simulator

from tests.core.conftest import storm_env
from tests.faults.conftest import fault_env


def recording_steps(sim, names, pivot=None, yielding=()):
    """Steps that append ``do:<name>`` / ``undo:<name>`` to a shared
    list; the ones in ``yielding`` return a generator."""
    calls = []

    def make(name):
        def do():
            calls.append(f"do:{name}")
            return name

        def do_yielding():
            calls.append(f"do:{name}")
            yield sim.timeout(0.001)
            return name

        return SagaStep(
            name,
            do=do_yielding if name in yielding else do,
            undo=lambda: calls.append(f"undo:{name}"),
            pivot=name == pivot,
            locked=False,
        )

    return [make(name) for name in names], calls


def test_run_now_commits_and_returns_the_last_result():
    engine = SagaEngine(Simulator())
    steps, calls = recording_steps(engine.sim, ["a", "b"])
    saga = engine.begin("op", "cookie", steps, who="test")
    assert engine.run_now(saga) == "b"
    assert saga.status == COMMITTED and saga.detail == {"who": "test"}
    assert calls == ["do:a", "do:b"]
    assert saga.journal == [
        "begin", "start:a", "done:a", "start:b", "done:b", "commit",
    ]


def test_yielding_step_where_the_engine_may_not_wait_is_compensated():
    engine = SagaEngine(Simulator())
    steps, calls = recording_steps(engine.sim, ["a", "b", "c"], yielding={"b"})
    saga = engine.begin("op", "cookie", steps)
    with pytest.raises(SagaError, match="'b' of 'op' yields"):
        engine.run_now(saga)
    assert saga.status == ABORTED
    # b started (its generator was never driven), so b and a are undone
    assert calls == ["do:a", "undo:b", "undo:a"]
    assert engine.log.incomplete() == []


def test_run_drives_yielding_steps_and_serializes_locked_prefixes():
    sim = Simulator()
    engine = SagaEngine(sim)
    order = []

    def saga_for(tag):
        def connect():
            order.append(f"{tag}:connect")
            yield sim.timeout(1.0)
            order.append(f"{tag}:connected")

        return engine.begin(
            "op",
            tag,
            [
                SagaStep("connect", do=connect, forward_only=True),
                SagaStep("after", do=lambda: order.append(f"{tag}:after"), locked=False),
            ],
        )

    first = sim.process(engine.run(saga_for("x")))
    second = sim.process(engine.run(saga_for("y")))
    sim.run(until=second)
    assert first.triggered
    # y's locked prefix waited for x's: the mutex spans the yield
    assert order == [
        "x:connect", "x:connected", "x:after", "y:connect", "y:connected", "y:after",
    ]
    assert sim.now == 2.0


def test_resume_skips_done_steps_and_runs_the_rest_exactly_once():
    engine = SagaEngine(Simulator())
    steps, calls = recording_steps(engine.sim, ["a", "b", "c", "d"], pivot="b")
    saga = engine.begin("op", "cookie", steps)

    # lose authority after step b (the pivot) is journaled
    def probe(saga, step, when):
        if step.name == "b" and when == "after":
            engine.authority = lambda saga: False

    engine.probe = probe
    with pytest.raises(ControllerCrashed):
        engine.run_now(saga)
    assert saga.pivoted and saga.incomplete
    assert calls == ["do:a", "do:b"]

    engine.probe = None
    engine.authority = lambda saga: True
    assert engine.resolve(engine.log.incomplete()) == {"replayed": 1, "rolled_back": 0}
    assert saga.status == COMMITTED
    assert calls == ["do:a", "do:b", "do:c", "do:d"]
    # nothing left: resolving again is a no-op
    assert engine.resolve(engine.log.incomplete()) == {"replayed": 0, "rolled_back": 0}


def test_resolve_compensates_before_the_pivot():
    engine = SagaEngine(Simulator())
    steps, calls = recording_steps(engine.sim, ["a", "b", "c"], pivot="c")
    saga = engine.begin("op", "cookie", steps)
    engine.authority = lambda saga: not saga.done("a")  # dies after a
    with pytest.raises(ControllerCrashed):
        engine.run_now(saga)
    engine.authority = lambda saga: True
    assert engine.resolve([saga]) == {"replayed": 0, "rolled_back": 1}
    assert saga.status == ABORTED
    assert calls == ["do:a", "undo:a"]


def test_resolve_stops_when_authority_is_lost_midway():
    engine = SagaEngine(Simulator())
    sagas = []
    for cookie in ("one", "two"):
        steps, _calls = recording_steps(engine.sim, ["a", "b"], pivot="a")
        saga = engine.begin("op", cookie, steps)
        saga.mark("start:a")
        saga.mark("done:a")
        saga.pivoted = True
        sagas.append(saga)
    engine.authority = lambda saga: saga.cookie == "one"
    assert engine.resolve(sagas) == {"replayed": 1, "rolled_back": 0}
    assert [s.incomplete for s in sagas] == [False, True]


def test_log_compacts_every_64_resolved_sagas():
    engine = SagaEngine(Simulator())
    for i in range(COMPACT_EVERY - 1):
        engine.run_now(engine.begin("op", f"c{i}", []))
    in_flight = engine.begin("op", "in-flight", [])
    assert len(engine.log) == COMPACT_EVERY and engine.log.compacted == 0
    engine.run_now(engine.begin("op", "last", []))
    # resolved history is gone, the in-flight saga is untouched
    assert engine.log.sagas == [in_flight]
    assert engine.log.compacted_committed == COMPACT_EVERY


# -- a settled saga keeps its record and drops its closures ---------------


def holds_no_closures(saga):
    return saga.steps == [] and saga.state == {} and saga.results == {}


def test_settled_sagas_keep_their_record_and_drop_their_closures():
    engine = SagaEngine(Simulator())
    steps, _calls = recording_steps(engine.sim, ["a", "b"])
    committed = engine.begin("op", "ok", steps, who="test")
    engine.run_now(committed)
    steps, _calls = recording_steps(engine.sim, ["a", "b"], yielding={"b"})
    aborted = engine.begin("op", "bad", steps)
    with pytest.raises(SagaError):
        engine.run_now(aborted)

    assert committed.status == COMMITTED and committed.detail == {"who": "test"}
    assert committed.journal == [
        "begin", "start:a", "done:a", "start:b", "done:b", "commit",
    ]
    assert aborted.status == ABORTED
    assert aborted.journal == ["begin", "start:a", "done:a", "start:b", "abort"]
    assert holds_no_closures(committed) and holds_no_closures(aborted)


def test_run_now_returns_the_result_and_the_callers_state_keeps_its_keys():
    engine = SagaEngine(Simulator())
    state = {}
    saga = engine.begin(
        "op",
        "cookie",
        [
            SagaStep("make", do=lambda: "made", store="made", forward_only=True),
            SagaStep("use", do=lambda: state["made"].upper(), locked=False),
        ],
        state=state,
    )
    assert engine.run_now(saga) == "MADE"
    # settling rebinds the saga's containers; the closures' dict is kept
    assert state == {"made": "made"}
    assert holds_no_closures(saga)


def test_a_crashed_saga_keeps_its_steps_until_resolve_settles_it():
    for pivot, outcome in (("a", COMMITTED), ("c", ABORTED)):
        engine = SagaEngine(Simulator())
        steps, _calls = recording_steps(engine.sim, ["a", "b", "c"], pivot=pivot)
        saga = engine.begin("op", "cookie", steps)
        engine.authority = lambda saga: not saga.done("a")
        with pytest.raises(ControllerCrashed):
            engine.run_now(saga)
        assert saga.incomplete and saga.steps is steps
        engine.authority = lambda saga: True
        engine.resolve(engine.log.incomplete())
        assert saga.status == outcome and holds_no_closures(saga)


def test_a_saga_settled_while_queued_on_the_mutex_stays_settled():
    """Recovery may abort a journaled saga still waiting for the attach
    mutex; when the mutex comes free the run must not commit it."""
    sim = Simulator()
    engine = SagaEngine(sim)
    calls = []

    def hold():
        yield sim.timeout(1.0)

    holder = engine.begin("op", "holder", [SagaStep("hold", do=hold, forward_only=True)])
    queued = engine.begin(
        "op",
        "queued",
        [
            SagaStep(
                "a",
                do=lambda: calls.append("do:a"),
                undo=lambda: calls.append("undo:a"),
            )
        ],
    )
    outcome = []

    def run_queued():
        try:
            yield sim.process(engine.run(queued))
            outcome.append("returned")
        except ControllerCrashed:
            outcome.append("crashed")

    sim.process(engine.run(holder))
    sim.process(run_queued())
    sim.timeout(0.5).callbacks.append(lambda _event: engine.resolve([queued]))
    sim.run()
    assert holder.status == COMMITTED
    assert outcome == ["crashed"]
    assert queued.status == ABORTED and "commit" not in queued.journal
    assert calls.count("do:a") == calls.count("undo:a")
    assert holds_no_closures(queued)


# -- the two callers of resolve() ----------------------------------------


def crash_mid_attach(env, step_name, crash):
    """Run vol1's attach and call ``crash()`` once, after ``step_name``."""
    storm = env.storm
    mb = storm.provision_middlebox(env.tenant, env.spec(name="svc", relay="fwd"))
    fired = []

    def probe(saga, step, when):
        if not fired and saga.op == "attach_with_services" \
                and step.name == step_name and when == "after":
            fired.append(env.sim.now)
            crash()

    storm.engine.probe = probe

    def do_attach():
        yield env.sim.process(
            storm.attach_with_services(env.tenant, env.vm, "vol1", [mb])
        )

    with pytest.raises(ControllerCrashed):
        env.run(do_attach())
    assert fired


@pytest.mark.parametrize(
    "step_name, expected",
    [
        ("install-chain", {"replayed": 0, "rolled_back": 1}),
        ("narrow", {"replayed": 1, "rolled_back": 0}),
    ],
)
def test_recover_and_takeover_resolve_alike(step_name, expected):
    # single node: the restart hook runs StorM.recover
    single = fault_env()
    node = single.storm.controller
    summaries = []
    node.on_restart = lambda: summaries.append(single.storm.recover())
    crash_mid_attach(
        single, step_name, lambda: single.injector.crash(node, restart_after=0.5)
    )
    single.sim.run()

    # HA: a different replica wins the election and takes over
    ha = fault_env(ha=True)
    cluster = ha.storm.ha
    cluster.start()
    crash_mid_attach(ha, step_name, lambda: ha.injector.crash_leader(cluster))
    ha.sim.run(until=ha.sim.now + 2.0)
    cluster.stop()
    takeover = ha.events("ha.takeover")[-1]["attrs"]

    assert summaries == [expected]
    assert {k: takeover[k] for k in expected} == expected
    for env in (single, ha):
        (saga,) = env.storm.intent_log.by_op("attach_with_services")
        assert saga.status == (COMMITTED if expected["replayed"] else ABORTED)
        assert len(env.storm.flows) == expected["replayed"]
        assert env.storm.intent_log.incomplete() == []
        assert Reconciler(env.storm).audit() == []


def test_bare_storm_survives_a_controller_crash_mid_attach():
    """No option switches journaling on: ``StorM(sim, cloud)`` is
    already crash-recoverable."""
    env = storm_env()
    injector = FaultInjector(env.sim, seed=1)
    crash_mid_attach(
        env,
        "connect",
        lambda: injector.crash(env.storm.controller, restart_after=0.5),
    )
    env.sim.run()  # restart -> recover: pre-pivot, so rolled back
    (saga,) = env.storm.intent_log.by_op("attach_with_services")
    assert saga.status == ABORTED
    assert env.storm.flows == {}
    assert Reconciler(env.storm).audit() == []
    # the platform is usable again
    env.storm.engine.probe = None
    flow, _mbs = env.attach([env.spec(name="again", relay="fwd")])
    assert list(env.storm.flows) == [flow]
