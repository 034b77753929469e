"""Service chaining: a monitoring + encryption bundle (paper §II-B).

"A tenant concerned about data security and audit logging can request
both storage monitoring and encryption service middle-boxes.  StorM
chains these middle-boxes so that after the storage monitor records
the I/O access, the data is passed through the encryption box."

This example builds exactly that bundle: the tenant VM mounts an
ext-like filesystem over the chained flow; the monitor reconstructs
file-level operations (and alerts on a watched directory) while the
encryption box keeps the volume ciphertext at rest.

Run:  python examples/secure_audit_pipeline.py
"""

from repro.fs import ExtFilesystem, SessionDevice, dump_layout
from repro.fs.layout import BLOCK_SIZE
from repro.testbed import Testbed

VOLUME_SIZE = 64 * 1024 * 1024


def main():
    bed = Testbed(volume_size=VOLUME_SIZE)
    sim, storm, tenant, volume = bed.sim, bed.storm, bed.tenant, bed.volume
    ExtFilesystem.mkfs(volume)
    monitor_mb = storm.provision_middlebox(
        tenant, bed.spec("audit", "monitor", mount_point="/mnt/box")
    )
    crypt_mb = storm.provision_middlebox(tenant, bed.spec("crypt", "encryption"))
    # monitor first (sees plaintext for reconstruction), then encryption
    chain = [monitor_mb, crypt_mb]
    # the monitor's view comes from the plaintext image; after this the
    # at-rest copy is converted to ciphertext under the tenant's key
    monitor_mb.service.use_view(dump_layout(volume, mount_point="/mnt/box"))
    crypt_mb.service.encrypt_volume(volume)

    def scenario():
        flow = yield sim.process(
            storm.attach_with_services(tenant, bed.vm, "vol1", chain)
        )
        print(f"chain: VM -> {' -> '.join(mb.name for mb in chain)} -> storage")

        monitor = monitor_mb.service
        monitor.watch("/mnt/box/finance/", callback=lambda alert: print(
            f"  ALERT: {alert.record.op} {alert.record.description}"
        ))

        fs = ExtFilesystem(sim, SessionDevice(flow.session, VOLUME_SIZE // BLOCK_SIZE))
        yield from fs.mount()
        yield from fs.mkdir("/finance")
        yield from fs.write_file("/finance/q3-forecast.xls", b"revenue..." * 410)
        yield from fs.read_file("/finance/q3-forecast.xls")

        print("\naudit log (reconstructed from block-level traffic):")
        for access_id, op, path, size in monitor.log_rows()[-8:]:
            print(f"  #{access_id:<4} {op:5} {path:42} {size}")

        # the encryption box behind the monitor kept the bytes opaque
        ino = monitor.engine.view.children[
            monitor.engine.view.children[2]["finance"]
        ]["q3-forecast.xls"]
        data_block = monitor.engine.view.inodes[ino].direct[0]
        at_rest = volume.read_sync(data_block * BLOCK_SIZE, BLOCK_SIZE)
        print(f"\nat rest, the file's first block starts: {at_rest[:10]!r}")
        assert not at_rest.startswith(b"revenue")
        print("OK: audited in plaintext, stored as ciphertext.")

    bed.run(scenario())


if __name__ == "__main__":
    main()
