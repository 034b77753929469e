"""Object storage through StorM (the paper's §II-A generality claim).

A Swift-like object server runs on a storage host; a tenant VM's
bucket is attached through an object-encryption middle-box using the
exact same splicing/steering/atomic-attach machinery as block volumes
— just on the object port.

Run:  python examples/object_storage.py
"""

from repro.objstore import ObjectStoreServer
from repro.testbed import Testbed


def main():
    bed = Testbed(volume_size=16 * 1024 * 1024)
    sim, storage, backing = bed.sim, bed.storage, bed.volume  # vol1 backs the objects
    server = ObjectStoreServer(sim, storage.stack, storage.storage_iface.ip, backing)
    crypt = bed.storm.provision_middlebox(bed.tenant, bed.spec("objcrypt", "object-encryption"))

    def scenario():
        flow = yield sim.process(
            bed.storm.attach_object_session(bed.tenant, bed.vm, storage.storage_iface.ip, [crypt])
        )
        print(f"object session spliced through {crypt.name} (port 8080)")
        secret = b"quarterly numbers: up and to the right" * 20
        yield flow.session.put("finance", "q3.xlsx", secret)
        response = yield flow.session.get("finance", "q3.xlsx")
        print(f"client read back {len(response.data)} bytes, intact: {response.data == secret}")
        listing = yield flow.session.list("finance")
        print(f"bucket listing: {listing.keys}")
        extent = server._index[("finance", "q3.xlsx")]
        at_rest = backing.read_sync(extent.offset, 4096)
        print(f"at rest on the object volume: {at_rest[:20]!r}")
        assert response.data == secret and not at_rest.startswith(b"quarterly")
        print("OK: object flow encrypted by the tenant's middle-box.")

    bed.run(scenario())


if __name__ == "__main__":
    main()
