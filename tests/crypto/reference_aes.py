"""Textbook AES (FIPS-197 section 5): the oracle for ``repro.crypto.aes``.

One step per function, exactly as the standard writes them: GF(2^8)
multiplication by repeated ``xtime``, ShiftRows / MixColumns /
AddRoundKey on a column-major state, and the direct (not the
equivalent) inverse cipher.  Slow on purpose; only the tests run it.
Shares nothing with the module under test but the S-box and the key
schedule, which the FIPS-197 known-answer vectors pin down on their own.
"""

from __future__ import annotations

from repro.crypto.aes import _INV_SBOX, _SBOX, AES


def xtime(a: int) -> int:
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def gmul(a: int, b: int) -> int:
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = xtime(a)
        b >>= 1
    return result


def add_round_key(state: list[int], round_key: list[int]) -> None:
    for i in range(16):
        state[i] ^= round_key[i]


def shift_rows(state: list[int]) -> list[int]:
    # state is column-major: state[row + 4*col]
    out = list(state)
    for row in range(1, 4):
        for col in range(4):
            out[row + 4 * col] = state[row + 4 * ((col + row) % 4)]
    return out


def inv_shift_rows(state: list[int]) -> list[int]:
    out = list(state)
    for row in range(1, 4):
        for col in range(4):
            out[row + 4 * ((col + row) % 4)] = state[row + 4 * col]
    return out


def mix_columns(state: list[int]) -> None:
    for col in range(4):
        a = state[4 * col : 4 * col + 4]
        state[4 * col + 0] = gmul(a[0], 2) ^ gmul(a[1], 3) ^ a[2] ^ a[3]
        state[4 * col + 1] = a[0] ^ gmul(a[1], 2) ^ gmul(a[2], 3) ^ a[3]
        state[4 * col + 2] = a[0] ^ a[1] ^ gmul(a[2], 2) ^ gmul(a[3], 3)
        state[4 * col + 3] = gmul(a[0], 3) ^ a[1] ^ a[2] ^ gmul(a[3], 2)


def inv_mix_columns(state: list[int]) -> None:
    for col in range(4):
        a = state[4 * col : 4 * col + 4]
        state[4 * col + 0] = gmul(a[0], 14) ^ gmul(a[1], 11) ^ gmul(a[2], 13) ^ gmul(a[3], 9)
        state[4 * col + 1] = gmul(a[0], 9) ^ gmul(a[1], 14) ^ gmul(a[2], 11) ^ gmul(a[3], 13)
        state[4 * col + 2] = gmul(a[0], 13) ^ gmul(a[1], 9) ^ gmul(a[2], 14) ^ gmul(a[3], 11)
        state[4 * col + 3] = gmul(a[0], 11) ^ gmul(a[1], 13) ^ gmul(a[2], 9) ^ gmul(a[3], 14)


def encrypt_block(key: bytes, plaintext: bytes) -> bytes:
    cipher = AES(key)
    round_keys = cipher._expand_key()
    state = list(plaintext)
    add_round_key(state, round_keys[0])
    for round_no in range(1, cipher.rounds):
        state = [_SBOX[b] for b in state]
        state = shift_rows(state)
        mix_columns(state)
        add_round_key(state, round_keys[round_no])
    state = [_SBOX[b] for b in state]
    state = shift_rows(state)
    add_round_key(state, round_keys[cipher.rounds])
    return bytes(state)


def decrypt_block(key: bytes, ciphertext: bytes) -> bytes:
    cipher = AES(key)
    round_keys = cipher._expand_key()
    state = list(ciphertext)
    add_round_key(state, round_keys[cipher.rounds])
    for round_no in range(cipher.rounds - 1, 0, -1):
        state = inv_shift_rows(state)
        state = [_INV_SBOX[b] for b in state]
        add_round_key(state, round_keys[round_no])
        inv_mix_columns(state)
    state = inv_shift_rows(state)
    state = [_INV_SBOX[b] for b in state]
    add_round_key(state, round_keys[0])
    return bytes(state)
