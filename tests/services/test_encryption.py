"""Encryption middle-box + tenant-side dm-crypt comparator."""

import pytest

from repro.blockdev.disk import BLOCK_SIZE
from repro.core.policy import ServiceSpec
from repro.services import TenantSideEncryption
from repro.testbed import Testbed


def make_env(algorithm="aes-256"):
    env = Testbed()
    spec = ServiceSpec("enc", "encryption", relay="active", options={"algorithm": algorithm})
    flow, (mb,) = env.attach([spec])
    return env, flow, mb


@pytest.mark.parametrize("algorithm", ["aes-256", "stream"])
def test_roundtrip_and_ciphertext_at_rest(algorithm):
    env, flow, mb = make_env(algorithm)
    payload = bytes(range(256)) * (BLOCK_SIZE // 256)
    result = {}

    def io():
        yield flow.session.write(0, BLOCK_SIZE, payload)
        result["read"] = yield flow.session.read(0, BLOCK_SIZE)

    env.run(io())
    assert result["read"] == payload
    at_rest = env.volume.read_sync(0, BLOCK_SIZE)
    assert at_rest != payload
    assert mb.service.bytes_encrypted == BLOCK_SIZE
    assert mb.service.bytes_decrypted == BLOCK_SIZE


def test_random_access_decryption():
    """Reading a range never written as one unit still decrypts (CTR)."""
    env, flow, mb = make_env()
    blocks = {i: bytes([i + 1] * BLOCK_SIZE) for i in range(4)}
    result = {}

    def io():
        for i, data in blocks.items():
            yield flow.session.write(i * BLOCK_SIZE, BLOCK_SIZE, data)
        # read blocks 1..2 as one I/O
        result["mid"] = yield flow.session.read(BLOCK_SIZE, 2 * BLOCK_SIZE)

    env.run(io())
    assert result["mid"] == blocks[1] + blocks[2]


def test_no_reformat_needed_transparent_to_vm():
    """The same volume written via middle-box reads back via middle-box —
    the VM never sees ciphertext or needs a special volume format."""
    env, flow, mb = make_env()
    payload = b"plaintext!" * 409 + b"\x00" * 6
    assert len(payload) == BLOCK_SIZE
    result = {}

    def io():
        yield flow.session.write(0, BLOCK_SIZE, payload)
        result["data"] = yield flow.session.read(0, BLOCK_SIZE)

    env.run(io())
    assert result["data"] == payload


def test_tenant_side_encryption_charges_vm_cpu():
    env = Testbed()
    result = {}

    def scenario():
        session = yield env.sim.process(env.cloud.attach_volume(env.vm, "vol1"))
        enc = TenantSideEncryption(env.vm, session, env.cloud.params)
        env.vm.cpu.begin_window()
        payload = bytes([5] * (4 * BLOCK_SIZE))
        yield from enc.write(0, len(payload), payload)
        result["data"] = yield from enc.read(0, len(payload))
        result["busy"] = env.vm.cpu.busy_time

    env.run(scenario())
    assert result["data"] == bytes([5] * (4 * BLOCK_SIZE))
    assert result["busy"] > 0
    # at rest it is ciphertext even in the tenant-side model
    assert env.volume.read_sync(0, BLOCK_SIZE) != bytes([5] * BLOCK_SIZE)


def test_middlebox_offloads_cpu_from_tenant_vm():
    """The core Fig. 10 effect: cipher cycles land on the MB, not the VM."""
    env, flow, mb = make_env()
    env.vm.cpu.begin_window()
    mb.cpu.begin_window()
    payload = bytes([9] * (16 * BLOCK_SIZE))

    def io():
        yield flow.session.write(0, len(payload), payload)

    env.run(io())
    assert mb.cpu.busy_time > 0
    assert env.vm.cpu.busy_time == 0  # the VM did not burn cipher cycles


def test_unknown_algorithm_rejected():
    from repro.services import EncryptionService

    with pytest.raises(ValueError, match="unknown algorithm"):
        EncryptionService(algorithm="rot13")


def test_aes_ctr_refuses_offsets_off_the_16_byte_grid():
    """CTR's counter is ``offset // 16``: at an unaligned offset that is
    the keystream of the wrong bytes, so both AES paths refuse it (the
    stream cipher already refuses offsets off its 8-byte grid)."""
    from repro.services import EncryptionService

    plain = bytes(range(48))
    service = EncryptionService()
    assert service._transform(plain[16:48], 16) == service._transform(plain, 0)[16:48]
    with pytest.raises(ValueError, match="16-byte aligned"):
        service._transform(plain[8:40], 8)

    class Image:
        def transform_sync(self, fn):
            return fn(8, plain[8:40])

    with pytest.raises(ValueError, match="16-byte aligned"):
        TenantSideEncryption(vm=None, session=None).encrypt_volume(Image())
