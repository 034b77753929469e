"""Access-control middle-box: wire-level allow/deny enforcement."""

import pytest

from repro.blockdev.disk import BLOCK_SIZE
from repro.core.policy import ServiceSpec
from repro.fs import ExtFilesystem, FsError, SessionDevice
from repro.iscsi.initiator import SessionDead
from repro.services.access_control import AccessRule
from repro.testbed import Testbed


def make_env(**options):
    env = Testbed(volume_size=4096 * BLOCK_SIZE)
    spec = ServiceSpec("acl", "access-control", relay="active", options=options)
    flow, (mb,) = env.attach([spec])
    return env, flow, mb.service


def test_default_allow_passes_everything():
    env, flow, acl = make_env()
    result = {}

    def io():
        yield flow.session.write(0, BLOCK_SIZE, b"\x01" * BLOCK_SIZE)
        result["data"] = yield flow.session.read(0, BLOCK_SIZE)

    env.run(io())
    assert result["data"] == b"\x01" * BLOCK_SIZE
    assert acl.denied == 0
    assert all(d.allowed for d in acl.decisions)


def test_deny_byte_range_blocks_single_block_write():
    env, flow, acl = make_env()
    acl.deny(ops=("write",), byte_range=(0, 16 * BLOCK_SIZE))
    outcome = {}

    def io():
        try:
            yield flow.session.write(0, BLOCK_SIZE - 0, None)  # header-only perf write
        except SessionDead as exc:
            outcome["error"] = str(exc)

    env.run(io())
    assert "error" in outcome["error"]
    assert acl.denied == 1
    # the write never reached the volume
    assert env.volume.read_sync(0, BLOCK_SIZE) == bytes(BLOCK_SIZE)


def test_deny_blocks_large_write_with_data():
    """Multi-segment (streamed) writes are buffered and still deniable."""
    env, flow, acl = make_env()
    acl.deny(ops=("write",), byte_range=(0, 64 * BLOCK_SIZE))
    outcome = {}

    def io():
        try:
            yield flow.session.write(0, 8 * BLOCK_SIZE, b"\xee" * (8 * BLOCK_SIZE))
        except SessionDead as exc:
            outcome["error"] = str(exc)

    env.run(io())
    assert "error" in outcome["error"]
    assert env.volume.read_sync(0, BLOCK_SIZE) == bytes(BLOCK_SIZE)


def test_read_only_region():
    env, flow, acl = make_env()
    protected = (0, 8 * BLOCK_SIZE)
    acl.deny(ops=("write",), byte_range=protected)
    results = {}

    def io():
        # writes outside the region are fine
        yield flow.session.write(16 * BLOCK_SIZE, BLOCK_SIZE, b"\x22" * BLOCK_SIZE)
        # reads of the protected region are fine
        results["read"] = yield flow.session.read(0, BLOCK_SIZE)
        # writes into it fail
        try:
            yield flow.session.write(BLOCK_SIZE, BLOCK_SIZE, b"\x33" * BLOCK_SIZE)
        except SessionDead:
            results["denied"] = True

    env.run(io())
    assert results["read"] == bytes(BLOCK_SIZE)
    assert results["denied"]
    assert env.volume.read_sync(16 * BLOCK_SIZE, BLOCK_SIZE) == b"\x22" * BLOCK_SIZE


def test_default_deny_with_allow_rule():
    env, flow, acl = make_env(default_allow=False)
    acl.allow(byte_range=(0, 4 * BLOCK_SIZE))
    results = {}

    def io():
        yield flow.session.write(0, BLOCK_SIZE, b"\x44" * BLOCK_SIZE)
        results["allowed"] = True
        try:
            yield flow.session.read(32 * BLOCK_SIZE, BLOCK_SIZE)
        except SessionDead:
            results["denied"] = True

    env.run(io())
    assert results == {"allowed": True, "denied": True}


def test_path_rule_protects_file():
    """Path-level rules via the semantics engine: deny writes to one
    directory even from a root-compromised VM."""
    env = Testbed(volume_size=4096 * BLOCK_SIZE)
    ExtFilesystem.mkfs(env.volume)
    spec = ServiceSpec(
        "acl", "access-control", relay="active", options={"mount_point": "/mnt"}
    )
    flow, (mb,) = env.attach([spec])
    acl = mb.service
    fs = ExtFilesystem(env.sim, SessionDevice(flow.session, env.volume.size // BLOCK_SIZE))
    env.run(fs.mount())
    env.run(fs.mkdir("/etc"))
    env.run(fs.write_file("/etc/passwd", b"root:x:0:0".ljust(BLOCK_SIZE, b"\x00")))
    acl.deny(ops=("write",), path_prefix="/mnt/etc/")
    outcome = {}

    def tamper():
        try:
            # in-place tampering (dd-style) hits the file's own blocks
            yield from fs.overwrite_file(
                "/etc/passwd", b"evil:x:0:0".ljust(BLOCK_SIZE, b"\x00")
            )
        except (SessionDead, FsError) as exc:
            outcome["blocked"] = type(exc).__name__

    env.run(tamper())
    assert "blocked" in outcome
    assert acl.denied >= 1
    # the file still holds the original content
    data = env.run(fs.read_file("/etc/passwd"))
    assert data.startswith(b"root:x:0:0")


def test_rule_validation():
    with pytest.raises(ValueError, match="exactly one"):
        AccessRule("deny")
    with pytest.raises(ValueError, match="exactly one"):
        AccessRule("deny", byte_range=(0, 1), path_prefix="/x")
    with pytest.raises(ValueError, match="allow/deny"):
        AccessRule("maybe", byte_range=(0, 1))
    with pytest.raises(ValueError, match="bad ops"):
        AccessRule("deny", ops=frozenset({"exec"}), byte_range=(0, 1))
