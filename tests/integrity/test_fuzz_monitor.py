"""Hardened semantic monitor: the seeded hostile corpus must never
crash the filesystem reconstruction, never grow unbounded state, and
never stop the monitor from logging legitimate accesses afterwards."""

import pytest

from repro.blockdev.disk import BLOCK_SIZE
from repro.core.semantics import CACHE_CAP
from repro.fs import ExtFilesystem, SessionDevice
from repro.fs.directory import unpack_dirents
from repro.workloads import HostileWorkload, hostile_dirent_corpus

from tests.integrity.conftest import detected, integrity_env


@pytest.fixture
def monitored(request):
    """Formatted volume attached through an active monitor box."""
    env = integrity_env()
    ExtFilesystem.mkfs(env.volume)
    flow, (mb,) = env.attach(
        [env.spec(name="mon", kind="monitor", relay="active", mount_point="/mnt/box")]
    )
    fs = ExtFilesystem(
        env.sim, SessionDevice(flow.session, env.volume.size // BLOCK_SIZE)
    )
    env.run(fs.mount())
    return env, flow, mb, fs


def engine_cache_sizes(engine):
    return (
        len(engine._unclassified_writes),
        len(engine._dir_block_cache),
        len(engine._pending_records),
    )


def test_unpack_dirents_survives_the_whole_corpus():
    """Pure-parser regression: best-effort unpacking never raises and
    always returns a list, for every corpus shape."""
    for seed in (0, 7, 1234):
        for raw in hostile_dirent_corpus(seed=seed, count=64):
            entries = unpack_dirents(raw, best_effort=True)
            assert isinstance(entries, list)


def test_direct_fuzz_feed_is_survivable_and_counted(monitored):
    env, flow, mb, fs = monitored
    fed = env.injector.fuzz_semantic_monitor(mb.service, blocks=64, misaligned=4)
    assert fed == 68
    # hostile geometry (misaligned writes) is rejected and counted,
    # not raised
    assert mb.service.garbage_accesses >= 1
    assert len(env.events("tamper.fuzz")) == 1


def test_wire_fuzz_bounded_memory_and_live_afterwards(monitored):
    env, flow, mb, fs = monitored
    engine = mb.service.engine
    # hostile bytes through the real session, aimed at a scratch region
    # far from live metadata
    scratch = (env.volume.size // 2 // BLOCK_SIZE) * BLOCK_SIZE
    workload = HostileWorkload(flow.session, seed=5, blocks=48, offset=scratch)
    assert env.run(workload.run()) == 48
    assert all(size <= CACHE_CAP for size in engine_cache_sizes(engine))
    # the transport was honest, so no integrity violations either
    assert detected(env) == []
    # the monitor still reconstructs legitimate activity
    before = len(mb.service.access_log)
    env.run(fs.mkdir("/after"))
    env.run(fs.write_file("/after/alive.txt", b"ok".ljust(BLOCK_SIZE, b"\x00")))
    assert len(mb.service.access_log) > before
    descriptions = [r.description for r in mb.service.access_log]
    assert "/mnt/box/after/alive.txt" in descriptions


def test_cache_eviction_is_oldest_first_and_capped():
    from repro.core.semantics import _evict_oldest

    cache = {i: i for i in range(CACHE_CAP + 100)}
    _evict_oldest(cache)
    assert len(cache) == CACHE_CAP
    assert min(cache) == 100  # the oldest 100 went first


def test_fuzz_feed_run_twice_identical(monitored):
    env, flow, mb, fs = monitored
    env.injector.fuzz_semantic_monitor(mb.service, blocks=32)
    first = (mb.service.garbage_accesses, len(mb.service.access_log))

    env2 = integrity_env()
    ExtFilesystem.mkfs(env2.volume)
    flow2, (mb2,) = env2.attach(
        [env2.spec(name="mon", kind="monitor", relay="active", mount_point="/mnt/box")]
    )
    fs2 = ExtFilesystem(
        env2.sim, SessionDevice(flow2.session, env2.volume.size // BLOCK_SIZE)
    )
    env2.run(fs2.mount())
    env2.injector.fuzz_semantic_monitor(mb2.service, blocks=32)
    second = (mb2.service.garbage_accesses, len(mb2.service.access_log))
    assert first == second
