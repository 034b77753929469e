"""The obs bus is the one fault/recovery timeline: what the platform
emits on it passes the strict trace vocabulary, each timeline event
lands once, and a component built before the bus was attached still
reports on it."""

from repro.blockdev.disk import BLOCK_SIZE
from repro.core import Reconciler
from repro.core.reconcile import FAIL_OPEN
from repro.faults import FaultInjector
from repro.obs import ObsBus, events_of, instrument, validate_lines
from repro.testbed import Testbed, recovery_params

from tests.faults.conftest import fault_env
from tests.faults.test_replication_resync import _block, make_env


def _ejection_then_relay_recovery():
    """A replicated active-relay chain: the replica host dies (one
    ejection), then the primary storage host dies mid-burst (the relay
    reconnects downstream and replays its NVM journal)."""
    env = fault_env(params=recovery_params(tcp_rto=0.02, iscsi_relogin_backoff=0.02))
    flow, mb, [(rhost, _rvol, _state)] = make_env(env)

    def scenario():
        yield flow.session.write(0, BLOCK_SIZE, _block(0))
        yield env.sim.timeout(0.05)
        env.injector.crash(rhost, restart_after=0.2)
        yield flow.session.write(BLOCK_SIZE, BLOCK_SIZE, _block(1))
        burst = [
            flow.session.write(i * BLOCK_SIZE, BLOCK_SIZE, _block(i)) for i in range(2, 12)
        ]
        yield env.sim.timeout(0.001)
        env.injector.crash(env.storage, restart_after=0.2)
        for write in burst:
            yield write

    env.run(scenario())
    return env, mb


def test_recovery_timeline_passes_the_strict_vocabulary():
    env, mb = _ejection_then_relay_recovery()
    assert len(env.events("replica.eject")) == mb.service.ejections == 1
    assert env.events("relay.recovered")
    assert validate_lines(env.bus.export_jsonl(), names=True) == []


def test_watchdog_built_before_instrument_reports_on_the_bus():
    env = Testbed()
    flow, (mb1, mb2) = env.attach(
        [env.spec(name="a", relay="fwd"), env.spec(name="b", relay="fwd")]
    )
    dog = Reconciler(env.storm, default_policy=FAIL_OPEN)
    bus = ObsBus(env.sim)
    instrument(bus, storm=env.storm)
    injector = FaultInjector(env.sim, seed=7, obs=bus)
    env.sim.process(dog.run(duration=2.0))
    injector.at(0.5, injector.crash, mb1, 0.7)
    env.sim.run()

    kinds = [event["kind"] for event in events_of(bus.records, kind="watchdog.")]
    assert kinds == ["watchdog.bypass", "watchdog.reinstate"]
    assert bus.metrics.counter("watchdog.probes").value > 0
    assert flow.middleboxes == [mb1, mb2]
