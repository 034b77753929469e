"""Whole-system determinism: identical seeds reproduce bit-for-bit."""

from repro.blockdev.disk import BLOCK_SIZE
from repro.workloads import FioConfig, FioJob

from tests.core.conftest import storm_env


def spliced_fio_run(seed: int):
    """One spliced active-relay Fio run; returns reproducible facts."""
    env = storm_env(volume_size=2048 * BLOCK_SIZE)
    flow, (mb,) = env.attach([env.spec(kind="xor", relay="active")])
    config = FioConfig(
        io_size=2 * BLOCK_SIZE,
        num_threads=2,
        ios_per_thread=20,
        region_size=1024 * BLOCK_SIZE,
        seed=seed,
    )
    job = FioJob(env.sim, flow.session, config, vm=env.vm, params=env.cloud.params)
    result = env.run(job.run())
    return (
        result.iops,
        result.latency.mean,
        tuple(result.latency.samples),
        mb.relay.pdus_relayed,
        env.sim.now,
    )


def test_same_seed_reproduces_exactly():
    assert spliced_fio_run(17) == spliced_fio_run(17)


def test_different_seeds_differ_but_hold_invariants():
    run_a = spliced_fio_run(17)
    run_b = spliced_fio_run(18)
    assert run_a[2] != run_b[2], "different seeds produced identical traces"
    for run in (run_a, run_b):
        iops, mean_latency, samples, relayed, now = run
        assert iops > 0 and mean_latency > 0
        assert len(samples) == 40  # every I/O completed
        assert relayed > 0


def test_full_platform_deploy_is_deterministic():
    from repro.core.policy import parse_policy

    def one_deploy():
        env = storm_env()
        policy = parse_policy(
            {
                "tenant": "acme",
                "services": [
                    {"name": "enc", "kind": "encryption", "relay": "active"},
                ],
                "chains": [{"vm": "vm1", "volume": "vol1", "chain": ["enc"]}],
            }
        )

        def deploy():
            flows = yield env.sim.process(env.storm.deploy_policy(policy))
            flow = flows[0]
            yield flow.session.write(0, BLOCK_SIZE, b"\x42" * BLOCK_SIZE)
            return (env.sim.now, env.volume.read_sync(0, 4096)[:16])

        return env.run(deploy())

    assert one_deploy() == one_deploy()
