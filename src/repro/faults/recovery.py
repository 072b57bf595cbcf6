"""Recovery policy: how hard the TEE fights before surfacing a failure.

The default policy is *legacy*: no retries, no watchdog — exactly the
behaviour the rest of the test-suite (and the paper's prototype) assumes,
where a single injected flash error surfaces to the CA.  Hardened
deployments pass :meth:`RecoveryPolicy.hardened` (or their own tuning)
into ``TZLLM``; the chaos suite and the fault-recovery
benchmark run hardened.

Knob-by-knob mapping to the recovery sites:

* ``flash_read_attempts`` — the prefill I/O driver's bounded retry on
  :class:`~repro.errors.StorageError` (exponential backoff).
* ``decrypt_refetch_attempts`` — corrupted-chunk recovery: a checksum
  failure re-fetches the group's ciphertext over a bounce buffer instead
  of aborting the prefill.  Persistent corruption still raises
  :class:`~repro.errors.IagoViolation` — an attacker must not be able to
  hide behind the retry loop.
* ``npu_job_timeout`` / ``npu_max_reissues`` — the TEE co-driver's
  watchdog on the REE scheduler: an un-taken shadow job is abandoned and
  re-issued at the *same* sequence number (replay-safe).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigurationError

__all__ = ["RecoveryPolicy"]


@dataclass(frozen=True)
class RecoveryPolicy:
    """Bounded-recovery knobs threaded through the TA and its pipeline."""

    #: total load attempts per restore group (1 = legacy, no retry).
    flash_read_attempts: int = 1
    #: ciphertext re-fetches after a checksum failure (0 = legacy abort).
    decrypt_refetch_attempts: int = 0
    #: base backoff before retry ``n`` (doubles each attempt), seconds.
    retry_backoff: float = 2e-3
    #: TEE watchdog timeout on a secure job's completion (None = legacy,
    #: wait forever on the untrusted REE scheduler).
    npu_job_timeout: Optional[float] = None
    #: shadow-job re-issues before the watchdog gives up.
    npu_max_reissues: int = 2

    def __post_init__(self):
        if self.flash_read_attempts < 1:
            raise ConfigurationError("flash_read_attempts must be >= 1")
        if self.decrypt_refetch_attempts < 0:
            raise ConfigurationError("decrypt_refetch_attempts must be >= 0")
        if self.retry_backoff < 0:
            raise ConfigurationError("retry_backoff must be non-negative")
        if self.npu_job_timeout is not None and self.npu_job_timeout <= 0:
            raise ConfigurationError("npu_job_timeout must be positive")
        if self.npu_max_reissues < 0:
            raise ConfigurationError("npu_max_reissues must be >= 0")

    def backoff(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based): base * 2^(n-1)."""
        if attempt < 1:
            raise ConfigurationError("attempt is 1-based")
        return self.retry_backoff * (2 ** (attempt - 1))

    @classmethod
    def hardened(cls) -> "RecoveryPolicy":
        """The chaos-suite posture: every recovery mechanism on, bounded."""
        return cls(
            flash_read_attempts=4,
            decrypt_refetch_attempts=3,
            retry_backoff=1e-3,
            npu_job_timeout=0.25,
            npu_max_reissues=3,
        )
