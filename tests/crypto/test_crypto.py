"""Cipher correctness: FIPS-197 and SP 800-38A vectors, a textbook
oracle, modes, the stream cipher, and the per-block call budget."""

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.crypto
from repro.crypto import (
    AES,
    StreamCipher,
    cbc_decrypt,
    cbc_encrypt,
    ctr_transform,
    ecb_decrypt,
    ecb_encrypt,
)
from tests.crypto import reference_aes


# -- FIPS-197 Appendix C known-answer vectors ------------------------------

FIPS_PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")


def test_aes128_fips_vector():
    key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
    cipher = AES(key)
    assert cipher.encrypt_block(FIPS_PLAINTEXT) == expected
    assert cipher.decrypt_block(expected) == FIPS_PLAINTEXT


def test_aes192_fips_vector():
    key = bytes.fromhex("000102030405060708090a0b0c0d0e0f1011121314151617")
    expected = bytes.fromhex("dda97ca4864cdfe06eaf70a0ec0d7191")
    cipher = AES(key)
    assert cipher.encrypt_block(FIPS_PLAINTEXT) == expected
    assert cipher.decrypt_block(expected) == FIPS_PLAINTEXT


def test_aes256_fips_vector():
    key = bytes.fromhex(
        "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
    )
    expected = bytes.fromhex("8ea2b7ca516745bfeafc49904b496089")
    cipher = AES(key)
    assert cipher.encrypt_block(FIPS_PLAINTEXT) == expected
    assert cipher.decrypt_block(expected) == FIPS_PLAINTEXT


def test_bad_key_length_rejected():
    with pytest.raises(ValueError, match="key"):
        AES(b"short")


def test_bad_block_length_rejected():
    cipher = AES(b"k" * 32)
    with pytest.raises(ValueError, match="block"):
        cipher.encrypt_block(b"too short")


@settings(max_examples=25, deadline=None)
@given(st.binary(min_size=16, max_size=16), st.sampled_from([16, 24, 32]))
def test_aes_roundtrip_property(block, key_len):
    cipher = AES(bytes(range(key_len)))
    assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([16, 24, 32]).flatmap(lambda n: st.binary(min_size=n, max_size=n)),
       st.binary(min_size=16, max_size=16))
def test_aes_matches_textbook_oracle(key, block):
    cipher = AES(key)
    assert cipher.encrypt_block(block) == reference_aes.encrypt_block(key, block)
    assert cipher.decrypt_block(block) == reference_aes.decrypt_block(key, block)


# -- modes ------------------------------------------------------------------

KEY = bytes(range(32))


@settings(max_examples=20, deadline=None)
@given(st.binary(min_size=0, max_size=256).map(lambda b: b.ljust((len(b) + 15) // 16 * 16, b"\x00")))
def test_ecb_roundtrip(data):
    cipher = AES(KEY)
    assert ecb_decrypt(cipher, ecb_encrypt(cipher, data)) == data


def test_ecb_leaks_patterns_cbc_does_not():
    cipher = AES(KEY)
    data = b"\x00" * 32
    ecb = ecb_encrypt(cipher, data)
    assert ecb[:16] == ecb[16:]
    cbc = cbc_encrypt(cipher, b"\x01" * 16, data)
    assert cbc[:16] != cbc[16:]


@settings(max_examples=20, deadline=None)
@given(st.binary(min_size=16, max_size=128).map(lambda b: b[: len(b) // 16 * 16]))
def test_cbc_roundtrip(data):
    cipher = AES(KEY)
    iv = b"\x42" * 16
    assert cbc_decrypt(cipher, iv, cbc_encrypt(cipher, iv, data)) == data


def test_ctr_is_self_inverse_and_positional():
    cipher = AES(KEY)
    data = bytes(range(256)) * 2
    enc = ctr_transform(cipher, data, start_counter=100)
    assert ctr_transform(cipher, enc, start_counter=100) == data
    # decrypting the second half alone works (random access)
    half = len(data) // 2
    tail = ctr_transform(cipher, enc[half:], start_counter=100 + half // 16)
    assert tail == data[half:]
    # wrong position -> garbage
    assert ctr_transform(cipher, enc, start_counter=0) != data


# SP 800-38A Appendix F: the four-block plaintext shared by every mode,
# under the AES-256 key of F.2.5 / F.5.5
SP800_KEY256 = bytes.fromhex(
    "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4"
)
SP800_PLAINTEXT = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)


def test_cbc_aes256_sp800_38a_vector():
    iv = bytes(range(16))
    expected = bytes.fromhex(
        "f58c4c04d6e5f1ba779eabfb5f7bfbd6"
        "9cfc4e967edb808d679f777bc6702c7d"
        "39f23369a9d9bacfa530e26304231461"
        "b2eb05e2c39be9fcda6c19078c6a9d1b"
    )
    cipher = AES(SP800_KEY256)
    assert cbc_encrypt(cipher, iv, SP800_PLAINTEXT) == expected
    assert cbc_decrypt(cipher, iv, expected) == SP800_PLAINTEXT


def test_ctr_aes256_sp800_38a_vector():
    counter = int("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff", 16)
    expected = bytes.fromhex(
        "601ec313775789a5b7a7f504bbf3d228"
        "f443e3ca4d62b59aca84e990cacaf5c5"
        "2b0930daa23de94ce87017ba2d84988d"
        "dfc9c58db67aada613c2dd08457941a6"
    )
    cipher = AES(SP800_KEY256)
    assert ctr_transform(cipher, SP800_PLAINTEXT, start_counter=counter) == expected
    assert ctr_transform(cipher, expected, start_counter=counter) == SP800_PLAINTEXT


def ctr_by_definition(cipher, data, start_counter):
    """CTR one block at a time: XOR with ``encrypt_block(counter)``."""
    out = b""
    for i in range(0, len(data), 16):
        pad = cipher.encrypt_block((start_counter + i // 16).to_bytes(16, "big"))
        out += bytes(a ^ b for a, b in zip(data[i : i + 16], pad))
    return out


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=6).flatmap(
        lambda n: st.binary(min_size=16 * n, max_size=16 * n)
    ),
    st.one_of(
        st.integers(min_value=0, max_value=1 << 20),
        st.integers(min_value=(1 << 128) - 6, max_value=(1 << 128) - 1),
    ),
)
def test_ctr_whole_buffer_matches_per_block_definition(data, start_counter):
    cipher = AES(KEY)
    blocks = len(data) // 16
    if start_counter + blocks > 1 << 128:
        # a counter past 2**128 - 1 has no 16-byte block
        with pytest.raises(OverflowError):
            ctr_transform(cipher, data, start_counter=start_counter)
        return
    expected = ctr_by_definition(cipher, data, start_counter)
    assert ctr_transform(cipher, data, start_counter=start_counter) == expected


def test_ctr_empty_and_counter_overflow():
    cipher = AES(KEY)
    assert ctr_transform(cipher, b"", start_counter=1 << 128) == b""
    with pytest.raises(OverflowError):
        ctr_transform(cipher, bytes(48), start_counter=(1 << 128) - 2)


def test_mode_validation():
    cipher = AES(KEY)
    with pytest.raises(ValueError, match="multiple"):
        ecb_encrypt(cipher, b"123")
    with pytest.raises(ValueError, match="IV"):
        cbc_encrypt(cipher, b"short", b"\x00" * 16)


# -- stream cipher -------------------------------------------------------------

def test_stream_cipher_roundtrip_and_offsets():
    cipher = StreamCipher(key=0xDEADBEEF)
    data = bytes(range(256))
    enc = cipher.transform(data, byte_offset=4096)
    assert enc != data
    assert cipher.transform(enc, byte_offset=4096) == data
    # same data at a different offset encrypts differently
    assert cipher.transform(data, byte_offset=8192) != enc


def test_stream_cipher_random_access_slice():
    cipher = StreamCipher()
    data = bytes(range(64)) * 4
    enc = cipher.transform(data, byte_offset=0)
    # transform a middle slice independently
    assert cipher.transform(enc[64:128], byte_offset=64) == data[64:128]


@settings(max_examples=25, deadline=None)
@given(st.binary(min_size=0, max_size=300), st.integers(min_value=0, max_value=1 << 30))
def test_stream_cipher_property(data, chunk):
    cipher = StreamCipher(key=7)
    offset = chunk * 8
    assert cipher.transform(cipher.transform(data, offset), offset) == data


def test_stream_cipher_rejects_bad_args():
    with pytest.raises(ValueError, match="non-zero"):
        StreamCipher(key=0)
    with pytest.raises(ValueError, match="aligned"):
        StreamCipher().transform(b"x", byte_offset=3)


# -- host cost -----------------------------------------------------------------

CRYPTO_DIR = str(Path(repro.crypto.__file__).parent)


def test_call_budget_per_block():
    """One block is a table-driven pass: ``encrypt_block`` plus one
    comprehension per round and one for the first AddRoundKey, so at
    most ``rounds + 4`` Python frames in ``repro.crypto`` per block of
    a CTR transform (the GF(2^8) arithmetic is list indexing)."""
    cipher = AES(KEY)
    data = bytes(4096)
    frames = 0

    def profile(frame, event, _arg):
        nonlocal frames
        if event == "call" and frame.f_code.co_filename.startswith(CRYPTO_DIR):
            frames += 1

    sys.setprofile(profile)
    try:
        ctr_transform(cipher, data, start_counter=7)
    finally:
        sys.setprofile(None)
    assert 0 < frames <= (cipher.rounds + 4) * (len(data) // 16)
