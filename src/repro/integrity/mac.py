"""Keyed MACs and key derivation for the end-to-end integrity layer.

Everything is built on :mod:`hashlib` — stdlib, deterministic across
processes, and fast enough for per-PDU use in the simulator.  A MAC is
one keyed :func:`hashlib.blake2s` call over one framed buffer;
length-prefixed framing makes the MAC input injective, so
``mac(a, b) != mac(ab, "")`` by construction.  The payload MAC
(:meth:`repro.integrity.IntegrityLayer.stamp`) is hash-then-MAC: the
payload is hashed once with SHA-256, and the MAC covers the digest
behind a fixed-layout header.
"""

from __future__ import annotations

import hashlib
from struct import Struct

#: truncated MAC size on the (simulated) wire, per stamp and per hop mark
MAC_SIZE = 16

#: integers enter MAC inputs as unsigned 64-bit big-endian words
U64_MASK = 0xFFFFFFFFFFFFFFFF
#: one length-prefixed 8-byte integer part, packed in one call:
#: ``FRAMED_U64.pack(8, v) == frame(v.to_bytes(8, "big"))``
FRAMED_U64 = Struct(">IQ")
#: the fixed-width fields of a payload MAC header: offset, length, seq
PAYLOAD_FIELDS = Struct(">QQQ")


def frame(*parts: bytes) -> bytes:
    """Length-prefixed concatenation of ``parts`` (4-byte big-endian
    lengths): the injective MAC input."""
    return b"".join(len(part).to_bytes(4, "big") + part for part in parts)


def keyed_mac(key: bytes, *parts: bytes) -> bytes:
    """MAC over length-prefixed parts under ``key``."""
    return hashlib.blake2s(frame(*parts), key=key[:32], digest_size=MAC_SIZE).digest()


def hop_mark(key: bytes, prev: bytes, framed_seq: bytes) -> bytes:
    """One fold step of the traversal proof, ``keyed_mac(key, prev,
    seq)`` with the seq part already framed (``FRAMED_U64.pack(8, seq)``)."""
    framed = len(prev).to_bytes(4, "big") + prev + framed_seq
    return hashlib.blake2s(framed, key=key, digest_size=MAC_SIZE).digest()


def derive_key(master: bytes, *labels: str) -> bytes:
    """Derive a per-purpose subkey from a tenant master key."""
    framed = frame(*(label.encode("utf-8") for label in labels))
    return hashlib.blake2s(framed, key=master[:32], digest_size=32).digest()
