"""Unit and property tests for the stream cipher."""

import hashlib
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CryptoSpec, GB
from repro.crypto import (
    KEY_SIZE,
    NONCE_SIZE,
    decrypt,
    decrypt_duration,
    derive_key,
    encrypt,
    keystream_xor,
)
from repro.errors import ConfigurationError

KEY = derive_key(b"seed", "test")
NONCE = b"n" * NONCE_SIZE


def test_roundtrip():
    ct = encrypt(KEY, NONCE, b"model parameters")
    assert ct != b"model parameters"
    assert decrypt(KEY, NONCE, ct) == b"model parameters"


def test_wrong_key_garbles():
    ct = encrypt(KEY, NONCE, b"model parameters")
    other = derive_key(b"seed", "other")
    assert decrypt(other, NONCE, ct) != b"model parameters"


def test_empty_plaintext():
    assert encrypt(KEY, NONCE, b"") == b""


def test_bad_key_and_nonce_rejected():
    with pytest.raises(ConfigurationError):
        encrypt(b"short", NONCE, b"x")
    with pytest.raises(ConfigurationError):
        encrypt(KEY, b"short", b"x")
    with pytest.raises(ConfigurationError):
        encrypt(KEY, NONCE, b"x", offset=-1)


@given(data=st.binary(max_size=300), cut=st.integers(min_value=0, max_value=300))
@settings(max_examples=60, deadline=None)
def test_seekable_chunked_equals_whole(data, cut):
    cut = min(cut, len(data))
    whole = encrypt(KEY, NONCE, data)
    part = encrypt(KEY, NONCE, data[:cut]) + encrypt(KEY, NONCE, data[cut:], offset=cut)
    assert part == whole


@given(data=st.binary(max_size=500), offset=st.integers(min_value=0, max_value=1000))
@settings(max_examples=60, deadline=None)
def test_roundtrip_at_any_offset(data, offset):
    assert decrypt(KEY, NONCE, encrypt(KEY, NONCE, data, offset), offset) == data


@given(data=st.binary(min_size=32, max_size=200))
@settings(max_examples=30, deadline=None)
def test_ciphertext_differs_from_plaintext(data):
    # A keystream collision of 32+ bytes of zeros is cryptographically absurd.
    assert encrypt(KEY, NONCE, data) != data


def keystream_xor_per_byte(key, nonce, data, offset=0):
    """Reference: one SHA-256 per 32-byte counter block, XORed byte by byte."""
    out = bytearray(len(data))
    for pos in range(len(data)):
        counter, index = divmod(offset + pos, 32)
        block = hashlib.sha256(key + nonce + struct.pack(">Q", counter)).digest()
        out[pos] = data[pos] ^ block[index]
    return bytes(out)


@given(
    data=st.integers(0, 300).flatmap(lambda n: st.binary(min_size=n, max_size=n)),
    offset=st.integers(0, 3) | st.integers(0, 4).map(lambda k: 32 * k + 31) | st.integers(0, 10**6),
)
@settings(max_examples=150, deadline=None)
def test_keystream_xor_matches_the_per_byte_reference(data, offset):
    assert keystream_xor(KEY, NONCE, data, offset) == keystream_xor_per_byte(KEY, NONCE, data, offset)


def test_decrypt_duration_matches_paper_anchor():
    spec = CryptoSpec()
    # 8 GB over 4 big cores should be ~0.9 s (paper §2.3).
    assert decrypt_duration(8 * GB, 4, spec) == pytest.approx(0.9, rel=0.1)


def test_decrypt_duration_scales_inverse_with_threads():
    spec = CryptoSpec()
    one = decrypt_duration(1 * GB, 1, spec)
    four = decrypt_duration(1 * GB, 4, spec)
    assert one == pytest.approx(4 * four)


def test_decrypt_duration_rejects_zero_threads():
    with pytest.raises(ConfigurationError):
        decrypt_duration(1.0, 0, CryptoSpec())
