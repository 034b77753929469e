"""CTR mode, the one block cipher mode of operation.

CTR with an offset-derived counter is what the encryption middle-box
uses: any 16-byte-aligned byte range of the volume can be encrypted or
decrypted independently, which is the property a block device needs
(dm-crypt achieves the same with per-sector IVs).
"""

from __future__ import annotations

from repro.crypto.aes import AES

BLOCK = 16


def _check_aligned(data: bytes) -> None:
    if len(data) % BLOCK:
        raise ValueError(f"data length {len(data)} is not a multiple of {BLOCK}")


def ctr_transform(cipher: AES, data: bytes, start_counter: int = 0) -> bytes:
    """Encrypt/decrypt (self-inverse) with counter blocks.

    ``start_counter`` is the index of the first 16-byte block — pass
    ``byte_offset // 16`` for a 16-byte-aligned ``byte_offset`` to get
    position-dependent, random-access keystream over a volume.  A
    counter past ``2**128 - 1`` raises ``OverflowError``.
    """
    _check_aligned(data)
    n = len(data)
    encrypt = cipher.encrypt_block
    keystream = b"".join([
        encrypt(counter.to_bytes(BLOCK, "big"))
        for counter in range(start_counter, start_counter + n // BLOCK)
    ])
    # XOR whole buffers as big integers, as StreamCipher.transform does
    mixed = int.from_bytes(data, "big") ^ int.from_bytes(keystream, "big")
    return mixed.to_bytes(n, "big")
