"""AES (FIPS-197) implemented from scratch.

Supports 128/192/256-bit keys, encryption only: the services run the
block cipher in CTR mode, which never inverts it.  Byte-oriented and
table-driven: besides the S-box, one 256-entry product table per
MixColumns coefficient (2 and 3) is built at import, so a round is list
indexing and XOR, with no Python call per byte or per column.  The
state stays 16 separate bytes (no T-tables, no numpy).  The simulator
charges cipher CPU time via the cloud's CPU model, not via wall-clock.
"""

from __future__ import annotations

_SBOX = [
    0x63, 0x7C, 0x77, 0x7B, 0xF2, 0x6B, 0x6F, 0xC5, 0x30, 0x01, 0x67, 0x2B, 0xFE, 0xD7, 0xAB, 0x76,
    0xCA, 0x82, 0xC9, 0x7D, 0xFA, 0x59, 0x47, 0xF0, 0xAD, 0xD4, 0xA2, 0xAF, 0x9C, 0xA4, 0x72, 0xC0,
    0xB7, 0xFD, 0x93, 0x26, 0x36, 0x3F, 0xF7, 0xCC, 0x34, 0xA5, 0xE5, 0xF1, 0x71, 0xD8, 0x31, 0x15,
    0x04, 0xC7, 0x23, 0xC3, 0x18, 0x96, 0x05, 0x9A, 0x07, 0x12, 0x80, 0xE2, 0xEB, 0x27, 0xB2, 0x75,
    0x09, 0x83, 0x2C, 0x1A, 0x1B, 0x6E, 0x5A, 0xA0, 0x52, 0x3B, 0xD6, 0xB3, 0x29, 0xE3, 0x2F, 0x84,
    0x53, 0xD1, 0x00, 0xED, 0x20, 0xFC, 0xB1, 0x5B, 0x6A, 0xCB, 0xBE, 0x39, 0x4A, 0x4C, 0x58, 0xCF,
    0xD0, 0xEF, 0xAA, 0xFB, 0x43, 0x4D, 0x33, 0x85, 0x45, 0xF9, 0x02, 0x7F, 0x50, 0x3C, 0x9F, 0xA8,
    0x51, 0xA3, 0x40, 0x8F, 0x92, 0x9D, 0x38, 0xF5, 0xBC, 0xB6, 0xDA, 0x21, 0x10, 0xFF, 0xF3, 0xD2,
    0xCD, 0x0C, 0x13, 0xEC, 0x5F, 0x97, 0x44, 0x17, 0xC4, 0xA7, 0x7E, 0x3D, 0x64, 0x5D, 0x19, 0x73,
    0x60, 0x81, 0x4F, 0xDC, 0x22, 0x2A, 0x90, 0x88, 0x46, 0xEE, 0xB8, 0x14, 0xDE, 0x5E, 0x0B, 0xDB,
    0xE0, 0x32, 0x3A, 0x0A, 0x49, 0x06, 0x24, 0x5C, 0xC2, 0xD3, 0xAC, 0x62, 0x91, 0x95, 0xE4, 0x79,
    0xE7, 0xC8, 0x37, 0x6D, 0x8D, 0xD5, 0x4E, 0xA9, 0x6C, 0x56, 0xF4, 0xEA, 0x65, 0x7A, 0xAE, 0x08,
    0xBA, 0x78, 0x25, 0x2E, 0x1C, 0xA6, 0xB4, 0xC6, 0xE8, 0xDD, 0x74, 0x1F, 0x4B, 0xBD, 0x8B, 0x8A,
    0x70, 0x3E, 0xB5, 0x66, 0x48, 0x03, 0xF6, 0x0E, 0x61, 0x35, 0x57, 0xB9, 0x86, 0xC1, 0x1D, 0x9E,
    0xE1, 0xF8, 0x98, 0x11, 0x69, 0xD9, 0x8E, 0x94, 0x9B, 0x1E, 0x87, 0xE9, 0xCE, 0x55, 0x28, 0xDF,
    0x8C, 0xA1, 0x89, 0x0D, 0xBF, 0xE6, 0x42, 0x68, 0x41, 0x99, 0x2D, 0x0F, 0xB0, 0x54, 0xBB, 0x16,
]

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36, 0x6C, 0xD8, 0xAB, 0x4D]


def _gmul(a: int, b: int) -> int:
    """GF(2^8) product modulo x^8 + x^4 + x^3 + x + 1 (builds the tables)."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        if a & 0x100:
            a ^= 0x11B
        b >>= 1
    return result


_MUL2, _MUL3 = ([_gmul(x, c) for x in range(256)] for c in (2, 3))

# The state is column-major, state[row + 4*col].  ShiftRows rotates row
# r left by r columns; these are the source index of each output byte.
_SHIFT = tuple(r + 4 * ((c + r) % 4) for c in range(4) for r in range(4))


class AES:
    """The raw block cipher: 16-byte blocks, 16/24/32-byte keys."""

    def __init__(self, key: bytes):
        if len(key) not in (16, 24, 32):
            raise ValueError(f"AES key must be 16/24/32 bytes, got {len(key)}")
        self.key = bytes(key)
        self.rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        self._round_keys = self._expand_key()
        self._inner_keys = self._round_keys[1:-1]

    # -- key schedule ----------------------------------------------------

    def _expand_key(self) -> list[list[int]]:
        nk = len(self.key) // 4
        words = [list(self.key[4 * i : 4 * i + 4]) for i in range(nk)]
        for i in range(nk, 4 * (self.rounds + 1)):
            word = list(words[i - 1])
            if i % nk == 0:
                word = word[1:] + word[:1]
                word = [_SBOX[b] for b in word]
                word[0] ^= _RCON[i // nk - 1]
            elif nk > 6 and i % nk == 4:
                word = [_SBOX[b] for b in word]
            words.append([w ^ p for w, p in zip(word, words[i - nk])])
        # group into 16-byte round keys
        return [
            sum(words[4 * r : 4 * r + 4], [])
            for r in range(self.rounds + 1)
        ]

    # -- block operations -------------------------------------------------------

    def encrypt_block(self, plaintext: bytes) -> bytes:
        if len(plaintext) != 16:
            raise ValueError("AES block must be 16 bytes")
        sbox, m2, m3 = _SBOX, _MUL2, _MUL3
        s = [b ^ k for b, k in zip(plaintext, self._round_keys[0])]
        for k in self._inner_keys:
            # SubBytes + ShiftRows, then MixColumns + AddRoundKey
            t = [sbox[s[i]] for i in _SHIFT]
            s = [
                m2[t[0]] ^ m3[t[1]] ^ t[2] ^ t[3] ^ k[0],
                t[0] ^ m2[t[1]] ^ m3[t[2]] ^ t[3] ^ k[1],
                t[0] ^ t[1] ^ m2[t[2]] ^ m3[t[3]] ^ k[2],
                m3[t[0]] ^ t[1] ^ t[2] ^ m2[t[3]] ^ k[3],
                m2[t[4]] ^ m3[t[5]] ^ t[6] ^ t[7] ^ k[4],
                t[4] ^ m2[t[5]] ^ m3[t[6]] ^ t[7] ^ k[5],
                t[4] ^ t[5] ^ m2[t[6]] ^ m3[t[7]] ^ k[6],
                m3[t[4]] ^ t[5] ^ t[6] ^ m2[t[7]] ^ k[7],
                m2[t[8]] ^ m3[t[9]] ^ t[10] ^ t[11] ^ k[8],
                t[8] ^ m2[t[9]] ^ m3[t[10]] ^ t[11] ^ k[9],
                t[8] ^ t[9] ^ m2[t[10]] ^ m3[t[11]] ^ k[10],
                m3[t[8]] ^ t[9] ^ t[10] ^ m2[t[11]] ^ k[11],
                m2[t[12]] ^ m3[t[13]] ^ t[14] ^ t[15] ^ k[12],
                t[12] ^ m2[t[13]] ^ m3[t[14]] ^ t[15] ^ k[13],
                t[12] ^ t[13] ^ m2[t[14]] ^ m3[t[15]] ^ k[14],
                m3[t[12]] ^ t[13] ^ t[14] ^ m2[t[15]] ^ k[15],
            ]
        return bytes([sbox[s[i]] ^ k for i, k in zip(_SHIFT, self._round_keys[-1])])
