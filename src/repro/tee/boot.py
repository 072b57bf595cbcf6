"""Secure boot: the integrity root the threat model leans on (§3.1).

"The integrity of these components can be guaranteed with secure boot" —
the TEE OS, TEE NPU driver, and LLM TA are trusted *because* a measured
boot chain verified them.  This module implements that chain
functionally: each stage carries an image and the signer's digest of the
next stage; boot verifies stage-by-stage from an immutable ROM key, and a
tampered image (or a stage inserted by the attacker) breaks the chain.

TA installation goes through the same machinery: the TEE OS only installs
TAs whose images verify against the vendor digest database.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import IntegrityError, SecurityViolation

__all__ = ["BootImage", "BootChain", "TAVerifier"]


def _digest(data: bytes) -> bytes:
    return hashlib.sha256(b"boot-measure:" + data).digest()


@dataclass(frozen=True)
class BootImage:
    """One stage: name + code bytes + the expected digest of the next."""

    name: str
    code: bytes
    next_digest: Optional[bytes] = None  # None for the last stage

    @property
    def digest(self) -> bytes:
        return _digest(self.code)


class BootChain:
    """BL1 (ROM) → BL2 → EL3 monitor → TEE OS, measured stage by stage."""

    def __init__(self, rom_digest: bytes):
        #: burned into silicon: the digest of the first mutable stage.
        self.rom_digest = rom_digest
        self.measurements: List[bytes] = []
        self.booted_stages: List[str] = []

    @staticmethod
    def sign_chain(stages: List[BootImage]) -> List[BootImage]:
        """Vendor-side: link each stage to the digest of its successor."""
        linked: List[BootImage] = []
        next_digest: Optional[bytes] = None
        for image in reversed(stages):
            linked.append(BootImage(image.name, image.code, next_digest))
            next_digest = linked[-1].digest
        return list(reversed(linked))

    def boot(self, stages: List[BootImage]) -> List[str]:
        """Verify and 'execute' the chain; returns booted stage names.

        Raises :class:`IntegrityError` at the first stage whose
        measurement does not match what its predecessor vouched for.
        """
        if not stages:
            raise IntegrityError("empty boot chain")
        expected = self.rom_digest
        self.measurements = []
        self.booted_stages = []
        for index, image in enumerate(stages):
            measured = image.digest
            if not hmac.compare_digest(measured, expected):
                raise IntegrityError(
                    "stage %r failed verification (tampered or substituted)" % image.name
                )
            self.measurements.append(measured)
            self.booted_stages.append(image.name)
            if image.next_digest is None:
                if index != len(stages) - 1:
                    raise IntegrityError(
                        "stage %r terminates the chain early" % image.name
                    )
                return self.booted_stages
            expected = image.next_digest
        raise IntegrityError("chain ended without a terminal stage")


class TAVerifier:
    """Vendor digest database gating TA installation into the TEE."""

    def __init__(self):
        self._trusted: Dict[str, bytes] = {}
        self.rejections = 0

    def enroll(self, ta_name: str, image: bytes) -> None:
        """Vendor-side: record the shipped TA image digest."""
        self._trusted[ta_name] = _digest(image)

    def verify(self, ta_name: str, image: bytes) -> None:
        """Install-time check; raises on unknown or modified images."""
        expected = self._trusted.get(ta_name)
        if expected is None:
            self.rejections += 1
            raise SecurityViolation("TA %r is not enrolled" % ta_name)
        if not hmac.compare_digest(_digest(image), expected):
            self.rejections += 1
            raise IntegrityError("TA %r image modified" % ta_name)
