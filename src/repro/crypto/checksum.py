"""Checksums for delegated model loading (the model-loading Iago defense).

The TA delegates flash I/O to the untrusted REE, so every loaded chunk is
verified against a checksum carried in the (authenticated) model header
(§6: "TZ-LLM counters this by verifying the returned content using
checksums").  We use truncated SHA-256; the timing model charges
verification at the calibrated per-core bandwidth.
"""

from __future__ import annotations

import hashlib
import hmac

__all__ = ["CHECKSUM_SIZE", "checksum", "verify"]

CHECKSUM_SIZE = 16


def checksum(data: bytes) -> bytes:
    """Truncated-SHA-256 checksum of ``data``."""
    return hashlib.sha256(b"tzllm-sum:" + data).digest()[:CHECKSUM_SIZE]


def verify(data: bytes, expected: bytes) -> bool:
    """Constant-time check of ``data`` against an ``expected`` checksum."""
    return hmac.compare_digest(checksum(data), expected)
