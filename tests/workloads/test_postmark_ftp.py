"""PostMark and FTP workloads."""

import pytest

from repro.blockdev.disk import BLOCK_SIZE
from repro.fs import ExtFilesystem, SessionDevice
from repro.testbed import Testbed
from repro.workloads import FtpTransfer, PostmarkConfig, PostmarkJob

from tests.workloads.test_fio import legacy_session


def test_postmark_runs_and_counts():
    env = Testbed(volume_size=8192 * BLOCK_SIZE)
    session = legacy_session(env)
    ExtFilesystem.mkfs(env.volume)
    fs = ExtFilesystem(env.sim, SessionDevice(session, env.volume.size // BLOCK_SIZE))
    env.run(fs.mount())
    config = PostmarkConfig(file_count=10, transactions=30)
    job = PostmarkJob(env.sim, fs, config, vm=env.vm, params=env.cloud.params)
    result = env.run(job.run())
    assert result.creations >= 10
    assert result.reads + result.appends + result.creations + result.deletions >= 30
    assert result.elapsed > 0
    assert result.read_ops_per_sec >= 0
    assert result.bytes_written > 0


def test_postmark_deterministic():
    def one_run():
        env = Testbed(volume_size=8192 * BLOCK_SIZE)
        session = legacy_session(env)
        ExtFilesystem.mkfs(env.volume)
        fs = ExtFilesystem(env.sim, SessionDevice(session, env.volume.size // BLOCK_SIZE))
        env.run(fs.mount())
        job = PostmarkJob(env.sim, fs, PostmarkConfig(file_count=8, transactions=20))
        result = env.run(job.run())
        return (result.reads, result.appends, result.creations, result.deletions, result.elapsed)

    assert one_run() == one_run()


def test_ftp_download_upload_throughput():
    env = Testbed(volume_size=6144 * BLOCK_SIZE)
    session = legacy_session(env)
    ftp = FtpTransfer(
        env.sim, env.vm, session, env.cloud.params, file_size=4 * 1024 * 1024
    )
    up = env.run(ftp.upload())
    down = env.run(ftp.download())
    assert up.bytes_moved == down.bytes_moved == 4 * 1024 * 1024
    # sequential streaming approaches (but cannot exceed) wire speed
    for result in (up, down):
        assert 20e6 < result.throughput < 125e6


def test_ftp_rejects_unaligned_size():
    env = Testbed()
    with pytest.raises(ValueError, match="multiple"):
        FtpTransfer(env.sim, env.vm, None, env.cloud.params, file_size=1000)
