"""Tables I & II — reconstructing file operations from block accesses.

The paper's synthetic case: an iSCSI volume mounted at /mnt/box holds
ten directories name0..name9 of ten files 1.img..10.img each.  The
tenant VM writes /mnt/box/name1/1.img and reads /mnt/box/name9/7.img
(Table II); the monitoring middle-box reconstructs the block-level
trace into the rows of Table I, including directory-lookup reads
("/mnt/box/name9/."), inode-table metadata accesses, and the
observation that page-cached *writes are delayed past the reads* in
the block-level order.
"""

from harness import LEGACY, build_testbed
from repro.core.policy import ServiceSpec
from repro.fs import ExtFilesystem, SessionDevice, VolumeDevice
from repro.fs.layout import BLOCK_SIZE

VOLUME = 64 * 1024 * 1024


def _scenario():
    bed = build_testbed(LEGACY, volume_size=VOLUME)
    # --- provider-side preparation (before services attach) ---
    # (the StorM testbed in build_testbed attaches during construction;
    # build our own monitor attach instead)
    sim, cloud, storm = bed.sim, bed.cloud, bed.storm
    volume = cloud.create_volume(bed.tenant, "boxvol", VOLUME)
    ExtFilesystem.mkfs(volume)
    setup_fs = ExtFilesystem(sim, VolumeDevice(sim, volume))
    bed.run(setup_fs.mount())

    def populate():
        for d in range(10):
            yield from setup_fs.mkdir(f"/name{d}")
            for f in range(1, 11):
                yield from setup_fs.write_file(f"/name{d}/{f}.img", size=BLOCK_SIZE)

    bed.run(populate())
    # --- attach through a monitoring middle-box ---
    spec = ServiceSpec(
        "mon", "monitor", relay="active", options={"mount_point": "/mnt/box"}
    )
    monitor_mb = storm.provision_middlebox(bed.tenant, spec)

    def attach():
        return (
            yield sim.process(
                storm.attach_with_services(bed.tenant, bed.vm, "boxvol", [monitor_mb])
            )
        )

    flow = bed.run(attach())
    monitor = monitor_mb.service
    # --- tenant VM mounts (write-back cache on, as in a real guest) ---
    fs = ExtFilesystem(
        sim, SessionDevice(flow.session, VOLUME // BLOCK_SIZE), writeback=True
    )
    bed.run(fs.mount())

    def table2_ops():
        # Table II: 1* write name1/1.img ; 2** read name9/7.img
        yield from fs.write_file("/name1/1.img", b"\x5a" * (8 * BLOCK_SIZE))
        yield from fs.read_file("/name9/7.img")

    bed.run(table2_ops())
    bed.run(fs.flush())  # the cached writes finally reach the wire
    return monitor


def test_table1_semantics(benchmark):
    monitor = benchmark.pedantic(_scenario, rounds=1, iterations=1)
    rows = monitor.log_rows()
    print()
    print("Table I (reconstructed block-level accesses):")
    print(f"{'ID':>4}  {'Op':5}  {'File':45}  Size")
    for access_id, op, description, size in rows:
        print(f"{access_id:>4}  {op:5}  {description:45}  {size}")
    descriptions = [row[2] for row in rows]
    ops = [(row[1], row[2]) for row in rows]
    # the high-level operations were recovered (Table II)
    assert ("write", "/mnt/box/name1/1.img") in ops
    assert ("read", "/mnt/box/name9/7.img") in ops
    # directory lookups appear as "<dir>/." reads, like Table I rows 1/35/71
    assert any(d.endswith("name9/.") for d in descriptions)
    # metadata accesses (inode table) appear, like Table I rows 2..34
    assert any("inode_group" in d for d in descriptions)
    # the write-back observation: every data write to 1.img lands
    # *after* the read of 7.img in the block-level order
    read_position = next(
        i for i, (op, d) in enumerate(ops) if op == "read" and d.endswith("7.img")
    )
    write_positions = [
        i for i, (op, d) in enumerate(ops) if op == "write" and d.endswith("1.img")
    ]
    assert write_positions and all(p > read_position for p in write_positions)
    # total bytes written to 1.img match the file operation
    written = sum(row[3] for row in rows if row[1] == "write" and row[2].endswith("1.img"))
    assert written == 8 * BLOCK_SIZE
