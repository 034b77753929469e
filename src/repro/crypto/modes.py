"""Block cipher modes of operation.

CTR with an offset-derived counter is what the encryption middle-box
uses: any 16-byte-aligned byte range of the volume can be encrypted or
decrypted independently, which is the property a block device needs
(dm-crypt achieves the same with per-sector IVs).
"""

from __future__ import annotations

from operator import xor

from repro.crypto.aes import AES

BLOCK = 16


def _check_aligned(data: bytes) -> None:
    if len(data) % BLOCK:
        raise ValueError(f"data length {len(data)} is not a multiple of {BLOCK}")


def ecb_encrypt(cipher: AES, data: bytes) -> bytes:
    _check_aligned(data)
    return b"".join(
        cipher.encrypt_block(data[i : i + BLOCK]) for i in range(0, len(data), BLOCK)
    )


def ecb_decrypt(cipher: AES, data: bytes) -> bytes:
    _check_aligned(data)
    return b"".join(
        cipher.decrypt_block(data[i : i + BLOCK]) for i in range(0, len(data), BLOCK)
    )


def cbc_encrypt(cipher: AES, iv: bytes, data: bytes) -> bytes:
    _check_aligned(data)
    if len(iv) != BLOCK:
        raise ValueError("IV must be 16 bytes")
    out = []
    previous = iv
    for i in range(0, len(data), BLOCK):
        block = bytes(map(xor, data[i : i + BLOCK], previous))
        previous = cipher.encrypt_block(block)
        out.append(previous)
    return b"".join(out)


def cbc_decrypt(cipher: AES, iv: bytes, data: bytes) -> bytes:
    _check_aligned(data)
    if len(iv) != BLOCK:
        raise ValueError("IV must be 16 bytes")
    out = []
    previous = iv
    for i in range(0, len(data), BLOCK):
        block = data[i : i + BLOCK]
        plain = cipher.decrypt_block(block)
        out.append(bytes(map(xor, plain, previous)))
        previous = block
    return b"".join(out)


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
