"""Mid-fio leader failover: the data plane must not care which
replica leads.  Express-promoted flows demote on the crash (mandatory
fault fallback) and again on the leadership change (`ha-failover` —
the compiled path must re-validate under the new control plane), then
re-promote after clean ACKs; the workload finishes with zero errors
and the run is byte-identical when repeated."""

from repro.blockdev.disk import BLOCK_SIZE
from repro.cloud import CloudParams
from repro.core import Reconciler
from repro.workloads import FioConfig, FioJob

from tests.ha.conftest import cluster_signature, ha_env, switch_rules


def run_fio_failover():
    env = ha_env(
        params=CloudParams(
            express=True, tcp_rto=0.02, iscsi_relogin_backoff=0.02
        )
    )
    storm = env.storm
    cluster = storm.ha
    flow, _mbs = env.attach([env.spec(name="svc", relay="fwd")])
    cluster.start()

    fired = []

    def watch():
        manager = env.sim.express
        while manager.active_flows == 0:
            yield env.sim.timeout(0.0005)
        env.injector.crash_leader(cluster, restart_after=0.5)
        fired.append(env.sim.now)

    env.sim.process(watch())

    config = FioConfig(
        io_size=BLOCK_SIZE,
        num_threads=2,
        ios_per_thread=200,
        region_size=1024 * BLOCK_SIZE,
    )
    job = FioJob(env.sim, flow.session, config, vm=env.vm, params=env.cloud.params)
    result = env.run(job.run())
    env.sim.run(until=env.sim.now + 1.0)  # drain rejoin
    cluster.stop()
    return env, flow, result, fired


def test_fio_survives_leader_failover_with_demote_and_repromote():
    env, flow, result, fired = run_fio_failover()
    cluster = env.storm.ha
    manager = env.sim.express

    assert fired, "leader was never crashed mid-express"
    assert result.completed == 400 and result.errors == 0

    # failover really happened, mid-workload
    leaders = env.events("ha.leader")
    assert len(leaders) == 1 and leaders[0]["attrs"]["previous"] == "storm-cp0"
    assert fired[0] < leaders[0]["ts"] < fired[0] + result.elapsed
    assert cluster.leader_name in ("storm-cp1", "storm-cp2")

    # both demotion causes fired (the crash itself, then the takeover),
    # and the flow re-promoted afterwards: strictly more promotions
    # than the initial pair
    assert manager.demotions >= 2
    assert manager.promotions >= 4

    # the flow and its rules survived the whole episode
    assert flow in env.storm.flows
    assert len(switch_rules(env)) == flow.chain.expected_rule_count()
    assert Reconciler(env.storm).audit() == []
    assert env.storm.intent_log.incomplete() == []
    assert len(env.events("ha.rejoin")) == 1


def test_fio_failover_is_byte_identical():
    def signature():
        env, _flow, result, _fired = run_fio_failover()
        sig = cluster_signature(env)
        sig["fio"] = (result.completed, result.errors, result.elapsed)
        sig["express"] = (env.sim.express.promotions, env.sim.express.demotions)
        return sig

    assert signature() == signature()
