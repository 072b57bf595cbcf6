"""Cryptographic primitives for model confidentiality and integrity.

Real byte transformations (stream cipher, key wrapping, checksums) with
separate calibrated timing helpers — see module docstrings.
"""

from .checksum import CHECKSUM_SIZE, checksum, verify
from .cipher import (
    KEY_SIZE,
    NONCE_SIZE,
    decrypt,
    decrypt_duration,
    encrypt,
    keystream_xor,
)
from .keys import HardwareKeyStore, derive_key, unwrap_model_key, wrap_model_key

__all__ = [
    "CHECKSUM_SIZE",
    "KEY_SIZE",
    "NONCE_SIZE",
    "HardwareKeyStore",
    "checksum",
    "decrypt",
    "decrypt_duration",
    "derive_key",
    "encrypt",
    "keystream_xor",
    "unwrap_model_key",
    "verify",
    "wrap_model_key",
]
