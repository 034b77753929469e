"""A light-weight keystream cipher.

The paper's §V-A processing-overhead experiments run a "stream cipher"
service that touches every bit of the payload.  This is a position-
seeded xorshift keystream: self-inverse, random-access (the keystream
depends only on key and byte offset), and cheap — its simulated CPU
cost is ``CloudParams.stream_cipher_cpu_per_byte``.
"""

from __future__ import annotations

try:  # vectorized keystream and XOR; the pure-Python path below is identical
    import numpy as _np
except ImportError:  # pragma: no cover - numpy ships with the toolchain
    _np = None


class StreamCipher:
    """XOR keystream generated by a 64-bit xorshift* PRNG per 8 bytes."""

    def __init__(self, key: int = 0x9E3779B97F4A7C15):
        if key == 0:
            raise ValueError("key must be non-zero")
        self.key = key & 0xFFFFFFFFFFFFFFFF

    def _word(self, index: int) -> int:
        """Keystream word for 8-byte chunk ``index`` (xorshift64*)."""
        x = (self.key ^ (index + 0x632BE59BD9B4E019)) & 0xFFFFFFFFFFFFFFFF
        x ^= (x << 13) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 7
        x ^= (x << 17) & 0xFFFFFFFFFFFFFFFF
        return (x * 0x2545F4914F6CDD1D) & 0xFFFFFFFFFFFFFFFF

    def transform(self, data: bytes, byte_offset: int = 0) -> bytes:
        """Encrypt/decrypt (self-inverse) ``data`` located at ``byte_offset``."""
        if byte_offset % 8:
            raise ValueError("byte_offset must be 8-byte aligned")
        n = len(data)
        if not n:
            return b""
        base = byte_offset // 8
        nwords = (n + 7) // 8
        if _np is not None:
            # Same xorshift64* pipeline on a uint64 vector: shifts and
            # the multiply wrap modulo 2**64 exactly like the masked
            # Python arithmetic, so the keystream is bit-identical.
            x = _np.arange(base, base + nwords, dtype=_np.uint64)
            x += _np.uint64(0x632BE59BD9B4E019)
            x ^= _np.uint64(self.key)
            x ^= x << _np.uint64(13)
            x ^= x >> _np.uint64(7)
            x ^= x << _np.uint64(17)
            x *= _np.uint64(0x2545F4914F6CDD1D)
            # XOR the payload as native uint64 words too (little-endian
            # on every platform we run, like the Python path's words);
            # a partial last word is zero-padded and cut off again.
            tail = n % 8
            padded = data + bytes(8 - tail) if tail else data
            x ^= _np.frombuffer(padded, dtype=_np.uint64)
            return x.tobytes()[:n]
        word = self._word
        keystream = b"".join(
            word(base + i).to_bytes(8, "little") for i in range(nwords)
        )
        # XOR whole buffers as big integers — C-speed instead of a
        # Python loop per byte; identical output to the per-byte XOR.
        mixed = int.from_bytes(data, "little") ^ int.from_bytes(
            keystream[:n], "little"
        )
        return mixed.to_bytes(n, "little")
