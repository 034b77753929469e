"""Defense in depth: monitor + access control + snapshots vs ransomware.

A tenant stacks StorM capabilities around one volume:

1. a **monitoring** middle-box logs every file access;
2. an **access-control** middle-box makes /mnt/vault/ read-only on the
   wire (even root in the VM cannot write it);
3. a provider-side **snapshot** taken before the attack allows point-in-
   time recovery of everything else the ransomware scrambled.

Run:  python examples/ransomware_rollback.py
"""

from repro.fs import ExtFilesystem, SessionDevice, VolumeDevice, dump_layout, fsck
from repro.fs.layout import BLOCK_SIZE
from repro.iscsi.initiator import SessionDead
from repro.testbed import Testbed

VOLUME_SIZE = 64 * 1024 * 1024


def main():
    bed = Testbed()
    sim, cloud, storm, tenant = bed.sim, bed.cloud, bed.storm, bed.tenant
    volume = cloud.create_volume(tenant, "data", VOLUME_SIZE, snapshottable=True)

    # provider-side image preparation
    ExtFilesystem.mkfs(volume)
    image = ExtFilesystem(sim, VolumeDevice(sim, volume))
    bed.run(image.mount())

    def prepare():
        yield from image.mkdir("/vault")
        yield from image.write_file("/vault/master-keys.pem", b"KEY" * 1365 + b"\x00")
        yield from image.mkdir("/docs")
        for i in range(3):
            yield from image.write_file(f"/docs/report{i}.txt", b"important " * 409 + b"\x00\x00")

    bed.run(prepare())

    monitor_mb = storm.provision_middlebox(
        tenant, bed.spec("ids", "monitor", mount_point="/mnt")
    )
    acl_mb = storm.provision_middlebox(
        tenant, bed.spec("acl", "access-control", mount_point="/mnt")
    )

    def scenario():
        flow = yield sim.process(
            storm.attach_with_services(tenant, bed.vm, "data", [monitor_mb, acl_mb])
        )
        acl_mb.service.deny(ops=("write",), path_prefix="/mnt/vault/")
        snapshot = cloud.snapshot_volume("data", "nightly")
        print("protections armed: monitor + vault write-deny + nightly snapshot")

        fs = ExtFilesystem(sim, SessionDevice(flow.session, VOLUME_SIZE // BLOCK_SIZE))
        yield from fs.mount()

        # --- the ransomware runs inside the VM -----------------------
        scrambled = 0
        for i in range(3):
            data = yield from fs.read_file(f"/docs/report{i}.txt")
            garbage = bytes(b ^ 0xFF for b in data)
            yield from fs.overwrite_file(f"/docs/report{i}.txt", garbage)
            scrambled += 1
        blocked = False
        try:
            yield from fs.overwrite_file("/vault/master-keys.pem", b"\x00" * BLOCK_SIZE)
        except SessionDead:
            blocked = True
        print(f"ransomware scrambled {scrambled} documents; vault write blocked: {blocked}")
        assert blocked and acl_mb.service.denied >= 1

        # --- incident response ---------------------------------------
        suspicious = [
            r.description
            for r in monitor_mb.service.access_log
            if r.op == "write" and r.category == "file"
        ]
        print(f"monitor log shows tampered files: {sorted(set(suspicious))}")

        # the snapshot still has the clean documents
        report = fsck(snapshot)
        assert report.clean, report.errors
        view = dump_layout(snapshot, mount_point="/mnt")
        docs_ino = view.children[2]["docs"]
        recovered = 0
        for name, ino in view.children[docs_ino].items():
            inode = view.inodes[ino]
            clean = snapshot.read_sync(inode.direct[0] * BLOCK_SIZE, BLOCK_SIZE)
            assert clean.startswith(b"important ")
            recovered += 1
        print(f"snapshot 'nightly' verified clean (fsck) — {recovered} documents recoverable")
        print("OK: attack logged, vault protected, data recoverable.")

    bed.run(scenario())


if __name__ == "__main__":
    main()
