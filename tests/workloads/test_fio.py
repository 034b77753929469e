"""Fio workload generator."""

import pytest

from repro.blockdev.disk import BLOCK_SIZE
from repro.testbed import Testbed
from repro.workloads import FioConfig, FioJob


def legacy_session(env):
    def attach():
        return (yield env.sim.process(env.cloud.attach_volume(env.vm, "vol1")))

    return env.run(attach())


def run_fio(env, session, **kw):
    defaults = dict(io_size=BLOCK_SIZE, ios_per_thread=20, region_size=1024 * BLOCK_SIZE)
    defaults.update(kw)
    config = FioConfig(**defaults)
    job = FioJob(env.sim, session, config, vm=env.vm, params=env.cloud.params)
    return env.run(job.run())


def test_fio_completes_all_ios():
    env = Testbed(volume_size=2048 * BLOCK_SIZE)
    session = legacy_session(env)
    result = run_fio(env, session, num_threads=2, ios_per_thread=15)
    assert result.completed == 30
    assert result.errors == 0
    assert result.iops > 0
    assert len(result.latency) == 30


def test_fio_deterministic_given_seed():
    def one_run():
        env = Testbed(volume_size=2048 * BLOCK_SIZE)
        session = legacy_session(env)
        return run_fio(env, session, seed=99).iops

    assert one_run() == pytest.approx(one_run())


def test_fio_sequential_faster_than_random():
    env = Testbed(volume_size=4096 * BLOCK_SIZE)
    session = legacy_session(env)
    sequential = run_fio(env, session, pattern="sequential", read_fraction=0.0, seed=1)
    random = run_fio(env, session, pattern="random", read_fraction=0.0, seed=1)
    assert sequential.iops > random.iops * 2  # seeks dominate random I/O


def test_fio_larger_io_higher_latency():
    env = Testbed(volume_size=4096 * BLOCK_SIZE)
    session = legacy_session(env)
    small = run_fio(env, session, io_size=4096, seed=3)
    large = run_fio(env, session, io_size=16 * 4096, seed=3)
    assert large.latency.mean > small.latency.mean


def test_fio_more_threads_more_throughput():
    env = Testbed(volume_size=4096 * BLOCK_SIZE)
    session = legacy_session(env)
    one = run_fio(env, session, num_threads=1, ios_per_thread=24, seed=5)
    four = run_fio(env, session, num_threads=4, ios_per_thread=6, seed=5)
    assert four.iops > one.iops  # disk queue + pipeline parallelism


def test_fio_config_validation():
    with pytest.raises(ValueError, match="multiple"):
        FioConfig(io_size=100)
    with pytest.raises(ValueError, match="read_fraction"):
        FioConfig(read_fraction=1.5)
    with pytest.raises(ValueError, match="pattern"):
        FioConfig(pattern="zigzag")
    with pytest.raises(ValueError, match="region"):
        FioConfig(io_size=8192, region_size=4096)


def test_fio_through_middlebox_flow():
    env = Testbed(volume_size=2048 * BLOCK_SIZE)
    flow, _ = env.attach([env.spec(relay="active")])
    result = run_fio(env, flow.session, ios_per_thread=10)
    assert result.completed == 10 and result.errors == 0
