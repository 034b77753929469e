"""Storage access monitor: reconstruction + alerting through the wire."""

import pytest

from repro.blockdev.disk import BLOCK_SIZE
from repro.core.policy import ServiceSpec
from repro.fs import ExtFilesystem, SessionDevice
from repro.testbed import Testbed


@pytest.fixture
def monitored_env():
    """VM with a formatted volume attached through a monitor middle-box."""
    env = Testbed(volume_size=4096 * BLOCK_SIZE)
    ExtFilesystem.mkfs(env.volume)
    spec = ServiceSpec(
        "mon", "monitor", relay="active", options={"mount_point": "/mnt/box"}
    )
    flow, (mb,) = env.attach([spec])
    fs = ExtFilesystem(
        env.sim, SessionDevice(flow.session, env.volume.size // BLOCK_SIZE)
    )
    env.run(fs.mount())
    return env, flow, mb, fs


def test_monitor_receives_initial_view(monitored_env):
    env, flow, mb, fs = monitored_env
    assert mb.service.engine is not None
    assert mb.service.engine.view.mount_point == "/mnt/box"


def test_file_operations_reconstructed(monitored_env):
    env, flow, mb, fs = monitored_env
    env.run(fs.mkdir("/secrets"))
    env.run(fs.write_file("/secrets/passwords.txt", b"hunter2".ljust(BLOCK_SIZE, b"\x00")))
    env.run(fs.read_file("/secrets/passwords.txt"))
    descriptions = [r.description for r in mb.service.access_log]
    assert "/mnt/box/secrets/passwords.txt" in descriptions
    reads = [
        r for r in mb.service.access_log
        if r.op == "read" and r.description == "/mnt/box/secrets/passwords.txt"
    ]
    assert reads, "read of the monitored file not logged"


def test_watch_raises_alert_even_without_tenant_cooperation(monitored_env):
    """Even 'malware' in the VM cannot dodge the wire-level monitor."""
    env, flow, mb, fs = monitored_env
    env.run(fs.mkdir("/etc"))
    env.run(fs.write_file("/etc/shadow", b"root:x".ljust(BLOCK_SIZE, b"\x00")))
    fired = []
    mb.service.watch("/mnt/box/etc/", callback=fired.append)
    env.run(fs.read_file("/etc/shadow"))  # the "malware" access
    assert fired, "no alert for watched path"
    assert fired[0].record.description == "/mnt/box/etc/shadow"
    assert fired[0].record.op == "read"
    assert mb.service.alerts


def test_unwatched_paths_do_not_alert(monitored_env):
    env, flow, mb, fs = monitored_env
    mb.service.watch("/mnt/box/private/")
    env.run(fs.write_file("/public.txt", b"x" * BLOCK_SIZE))
    assert mb.service.alerts == []


def test_log_rows_have_table1_shape(monitored_env):
    env, flow, mb, fs = monitored_env
    env.run(fs.write_file("/f.img", b"\x01" * BLOCK_SIZE))
    rows = mb.service.log_rows()
    assert rows
    access_id, op, description, size = rows[0]
    assert isinstance(access_id, int) and op in ("read", "write")
    assert isinstance(description, str) and size % BLOCK_SIZE == 0
    # ids are sequential starting at 1
    assert [r[0] for r in rows] == list(range(1, len(rows) + 1))


def test_metadata_accesses_visible_in_log(monitored_env):
    env, flow, mb, fs = monitored_env
    env.run(fs.write_file("/meta-test", b"\x02" * BLOCK_SIZE))
    categories = {r.category for r in mb.service.access_log}
    assert "metadata" in categories
    descriptions = [r.description for r in mb.service.access_log]
    assert any("inode_group" in d for d in descriptions)
