"""Model-file confidentiality: a real stream cipher with a timing model.

The paper encrypts model files with OpenSSL (AES) and measures 0.9 s to
decrypt 8 GB of parameters on the big cluster.  Here we implement a real
keystream cipher (SHA-256 in counter mode) so that:

* ciphertext on simulated flash is genuinely unintelligible without the
  key (the "attacker reads flash" test decrypts to garbage), and
* decryption is a real byte transformation on the restoration path — a
  corrupted ciphertext produces corrupted plaintext that the checksum
  layer then catches (the model-loading Iago defense, §6).

The *duration* of a decryption is a separate concern, charged by the
pipeline through :func:`decrypt_duration` using the calibrated per-core
bandwidth (so an 8 GB model costs ~0.9 s of simulated time on 4 cores
regardless of how many real bytes back the scaled-down payload).
"""

from __future__ import annotations

import hashlib
import struct

from ..config import CryptoSpec
from ..errors import ConfigurationError

__all__ = ["KEY_SIZE", "NONCE_SIZE", "keystream_xor", "encrypt", "decrypt", "decrypt_duration"]

KEY_SIZE = 32
NONCE_SIZE = 16
_BLOCK = hashlib.sha256().digest_size


def _check_key(key: bytes) -> None:
    if not isinstance(key, (bytes, bytearray)) or len(key) != KEY_SIZE:
        raise ConfigurationError("key must be %d bytes" % KEY_SIZE)


def keystream_xor(key: bytes, nonce: bytes, data: bytes, offset: int = 0) -> bytes:
    """XOR ``data`` with the keystream starting at byte ``offset``.

    Seekable: encrypting a large file in chunks with the correct offsets
    equals encrypting it in one piece, which lets the restoration
    pipeline decrypt tensors independently and out of order.
    """
    _check_key(key)
    if len(nonce) != NONCE_SIZE:
        raise ConfigurationError("nonce must be %d bytes" % NONCE_SIZE)
    if offset < 0:
        raise ConfigurationError("negative offset")
    size = len(data)
    if not size:
        return b""
    first, skip = divmod(offset, _BLOCK)
    prefix = key + nonce
    stream = b"".join(
        hashlib.sha256(prefix + struct.pack(">Q", counter)).digest()
        for counter in range(first, (offset + size - 1) // _BLOCK + 1)
    )
    # One XOR over the range: bytes as integers of one byte order.
    mask = int.from_bytes(stream[skip : skip + size], "little")
    return (int.from_bytes(data, "little") ^ mask).to_bytes(size, "little")


def encrypt(key: bytes, nonce: bytes, plaintext: bytes, offset: int = 0) -> bytes:
    """Encrypt ``plaintext`` at keystream position ``offset``."""
    return keystream_xor(key, nonce, plaintext, offset)


def decrypt(key: bytes, nonce: bytes, ciphertext: bytes, offset: int = 0) -> bytes:
    """Decrypt ``ciphertext`` that was encrypted at position ``offset``."""
    return keystream_xor(key, nonce, ciphertext, offset)


def decrypt_duration(nominal_bytes: float, threads: int, spec: CryptoSpec) -> float:
    """Simulated seconds to decrypt ``nominal_bytes`` on ``threads`` cores."""
    if threads < 1:
        raise ConfigurationError("threads must be >= 1")
    return nominal_bytes / (spec.decrypt_bw_per_core * threads)
