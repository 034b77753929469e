"""Express-path fault fallback: any fault-injector action must demote
promoted flows losslessly — the workload finishes over the packet path
(whose reliable-TCP recovery then does its usual job)."""

import pytest

from repro.blockdev.disk import BLOCK_SIZE
from repro.cloud import CloudParams
from repro.core import Reconciler
from repro.core.reconcile import FAIL_CLOSED, FAIL_OPEN
from repro.fs import ExtFilesystem, SessionDevice, fsck
from repro.testbed import assert_at_rest
from repro.workloads import FioConfig, FioJob, PostmarkConfig, PostmarkJob

from tests.faults.conftest import fault_env


def express_env(**kw):
    return fault_env(
        params=CloudParams(express=True, tcp_rto=0.02, iscsi_relogin_backoff=0.02),
        **kw,
    )


def _legacy_session(env):
    def attach():
        return (yield env.sim.process(env.cloud.attach_volume(env.vm, "vol1")))

    return env.run(attach())


def _when_promoted(env, action):
    """Fire ``action`` the moment at least one flow is on the express
    path, so the fault provably lands mid-express."""
    fired = []

    def watch():
        manager = env.sim.express
        while manager.active_flows == 0:
            yield env.sim.timeout(0.0005)
        action()
        fired.append(env.sim.now)

    env.sim.process(watch())
    return fired


def _run_fio(env, session, ios=40):
    config = FioConfig(
        io_size=BLOCK_SIZE, ios_per_thread=ios, region_size=1024 * BLOCK_SIZE
    )
    job = FioJob(env.sim, session, config, vm=env.vm, params=env.cloud.params)
    return env.run(job.run())


def test_drop_mid_express_demotes_and_completes():
    env = express_env()
    session = _legacy_session(env)
    link = env.storage.storage_iface.link
    fired = _when_promoted(env, lambda: env.injector.drop_next(link, count=3))
    result = _run_fio(env, session)
    manager = env.sim.express
    assert fired, "fault never fired: no flow was promoted"
    assert manager.promotions >= 1
    assert manager.demotions >= 1
    assert result.completed == 40
    assert result.errors == 0


def test_link_flap_mid_express_demotes_and_completes():
    env = express_env()
    session = _legacy_session(env)
    link = env.storage.storage_iface.link

    def flap():
        env.injector.link_down(link)
        env.injector.at(env.sim.now + 0.05, env.injector.link_up, link)

    fired = _when_promoted(env, flap)
    result = _run_fio(env, session)
    manager = env.sim.express
    assert fired, "fault never fired: no flow was promoted"
    assert manager.demotions >= 1
    assert result.completed == 40
    assert result.errors == 0


def test_crash_mid_express_recovers_fsck_clean():
    """Target crash while the flow is express: demote, re-login over
    the packet path, replay pending commands — and the filesystem on
    the volume stays consistent."""
    env = express_env(volume_size=8192 * BLOCK_SIZE)
    session = _legacy_session(env)
    device = SessionDevice(session, env.volume.size // BLOCK_SIZE)
    ExtFilesystem.mkfs(env.volume)
    fs = ExtFilesystem(env.sim, device)
    env.run(fs.mount())
    fired = _when_promoted(
        env, lambda: env.injector.crash(env.storage, restart_after=0.2)
    )
    job = PostmarkJob(
        env.sim,
        fs,
        PostmarkConfig(file_count=10, transactions=30),
        vm=env.vm,
        params=env.cloud.params,
    )
    result = env.run(job.run())
    manager = env.sim.express
    assert fired, "fault never fired: no flow was promoted"
    assert manager.demotions >= 1
    assert session.alive
    assert result.creations > 0
    report = fsck(env.volume)
    assert report.clean, report.errors


def test_lossy_window_mid_express_demotes_and_completes():
    env = express_env()
    session = _legacy_session(env)
    link = env.storage.storage_iface.link

    def lossy():
        env.injector.lossy_link(link, drop=0.2)
        env.injector.at(env.sim.now + 0.05, env.injector.clear_link, link)

    fired = _when_promoted(env, lossy)
    result = _run_fio(env, session)
    manager = env.sim.express
    assert fired, "fault never fired: no flow was promoted"
    assert manager.demotions >= 1
    assert result.completed == 40
    assert result.errors == 0


def _loop_tick_scenario(express, policy):
    """Two flows of one tenant cross its ingress switch: flow 1 through
    boxes a, c and flow 2 through b, both under fio.  Box a crashes
    (the injector demotes every flow), flow 2 is promoted again, and one
    control-loop tick quiesces or bypasses flow 1; a later tick, after
    a restarts, lifts the quiesce or reinstates the chain.  Returns the
    fio results, the loop's timeline and, in express mode, the flows
    promoted before the first tick and left promoted after it."""
    env = fault_env(
        params=CloudParams(express=express, tcp_rto=0.02, iscsi_relogin_backoff=0.02)
    )
    storm = env.storm
    flow1, (mb_a, _mb_c) = env.attach(
        [env.spec(name="a", relay="fwd"), env.spec(name="c", relay="fwd")]
    )
    mb_b = storm.provision_middlebox(env.tenant, env.spec(name="b", relay="fwd"))
    env.cloud.create_volume(env.tenant, "vol2", 1024 * BLOCK_SIZE)

    def attach_vol2():
        return (yield env.sim.process(
            storm.attach_with_services(env.tenant, env.vm, "vol2", [mb_b])
        ))

    flow2 = env.run(attach_vol2())
    loop = Reconciler(storm, default_policy=policy)
    seen = {}

    def drive():
        yield env.sim.timeout(0.05)
        env.injector.crash(mb_a, restart_after=0.2)
        yield env.sim.timeout(0.05)
        manager = env.sim.express
        if manager is not None:
            seen["promoted"] = manager.active_flows
        loop.tick()
        if manager is not None:
            seen["left"] = manager.active_flows
        yield env.sim.timeout(0.2)
        loop.tick()

    def workload():
        jobs = [
            env.sim.process(FioJob(
                env.sim, flow.session,
                FioConfig(io_size=BLOCK_SIZE, ios_per_thread=100,
                          region_size=512 * BLOCK_SIZE, seed=seed),
                vm=env.vm, params=env.cloud.params,
            ).run())
            for seed, flow in enumerate((flow1, flow2))
        ]
        results = []
        for job in jobs:
            results.append((yield job))
        return results

    env.sim.process(drive())
    results = env.run(workload())
    timeline = [(e["kind"], e["ts"]) for e in env.events("watchdog.")]
    numbers = [(r.completed, r.errors, r.elapsed, r.latency.mean) for r in results]
    assert_at_rest(storm)
    return numbers, timeline, seen


@pytest.mark.parametrize("policy", [FAIL_CLOSED, FAIL_OPEN])
def test_loop_tick_demotes_through_the_flow_table_hook(policy):
    """A quiesce or a bypass rewrites the ingress switch's flow table,
    which every promoted flow of the tenant watches: that change alone
    demotes them, and the workload matches packet mode exactly."""
    numbers, timeline, seen = _loop_tick_scenario(True, policy)
    assert seen["promoted"] >= 1, "no flow was promoted before the tick"
    assert seen["left"] == 0
    first = "watchdog.quiesce" if policy == FAIL_CLOSED else "watchdog.bypass"
    second = "watchdog.unquiesce" if policy == FAIL_CLOSED else "watchdog.reinstate"
    assert [kind for kind, _ts in timeline] == [first, second]
    assert all(completed == 100 for completed, *_rest in numbers)
    assert (numbers, timeline) == _loop_tick_scenario(False, policy)[:2]
