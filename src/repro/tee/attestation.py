"""Remote attestation: how the model key reaches the device (§6 context).

The paper assumes the wrapped model key is already on flash; this module
implements the provisioning flow that puts it there, rooted in the same
primitives the paper trusts (secure boot measurements, the hardware key):

1. at the factory, the manufacturer enrolls each device's attestation
   key (derived from the hardware key) with its attestation service;
2. in the field, the TEE produces a *quote* — boot-chain measurements +
   a provider-chosen nonce, MACed under the attestation key;
3. the model provider checks the quote against its golden measurements
   through the attestation service (freshness via the nonce), and only
   then wraps its model key to that specific device.

A jailbroken device (modified boot chain) produces measurements the
provider rejects, so it never receives a key — the supply-chain
complement to the runtime protections.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from ..crypto.keys import derive_key, wrap_model_key
from ..errors import SecurityViolation
from ..hw.common import World
from .boot import BootChain

__all__ = ["Quote", "DeviceAttestor", "AttestationService", "ModelProvider"]


def _attestation_key(hardware_key: bytes) -> bytes:
    return derive_key(hardware_key, "attestation")


def _mac(key: bytes, *parts: bytes) -> bytes:
    message = b"|".join(parts)
    return hmac.new(key, message, hashlib.sha256).digest()


@dataclass(frozen=True)
class Quote:
    """The device's signed statement of what booted."""

    device_id: str
    measurements: Tuple[bytes, ...]
    nonce: bytes
    mac: bytes


class DeviceAttestor:
    """TEE-side quoting (the hardware key never leaves the secure world)."""

    def __init__(self, device_id: str, keystore, boot_chain: BootChain):
        self.device_id = device_id
        self._keystore = keystore
        self._boot_chain = boot_chain

    def quote(self, nonce: bytes) -> Quote:
        hardware_key = self._keystore.hardware_key(World.SECURE)
        measurements = tuple(self._boot_chain.measurements)
        if not measurements:
            raise SecurityViolation("device has not completed secure boot")
        mac = _mac(
            _attestation_key(hardware_key),
            self.device_id.encode(),
            *measurements,
            nonce,
        )
        return Quote(self.device_id, measurements, nonce, mac)


class AttestationService:
    """Manufacturer-run verifier (knows each device's attestation key)."""

    def __init__(self):
        self._enrolled: Dict[str, bytes] = {}

    def enroll_device(self, device_id: str, keystore) -> None:
        """Factory step: escrow the device's attestation key."""
        hardware_key = keystore.hardware_key(World.SECURE)
        self._enrolled[device_id] = _attestation_key(hardware_key)

    def verify(self, quote: Quote) -> bool:
        key = self._enrolled.get(quote.device_id)
        if key is None:
            return False
        expected = _mac(
            key, quote.device_id.encode(), *quote.measurements, quote.nonce
        )
        return hmac.compare_digest(expected, quote.mac)

    def device_wrap_key(self, device_id: str, model_id: str) -> bytes:
        """Per-(device, model) provisioning key the device can re-derive."""
        key = self._enrolled.get(device_id)
        if key is None:
            raise SecurityViolation("device %r not enrolled" % device_id)
        return derive_key(key, "provision:" + model_id)


class ModelProvider:
    """The model owner: verifies quotes, then releases wrapped keys."""

    def __init__(
        self,
        service: AttestationService,
        golden_measurements: List[bytes],
        model_id: str,
        model_key: bytes,
    ):
        self.service = service
        self.golden = tuple(golden_measurements)
        self.model_id = model_id
        self._model_key = model_key
        self._issued_nonces: Set[bytes] = set()
        self._nonce_counter = 0
        self.provisioned: Set[str] = set()
        self.rejections = 0

    def challenge(self) -> bytes:
        """A fresh nonce for the device to quote against."""
        self._nonce_counter += 1
        nonce = hashlib.sha256(
            ("nonce:%s:%d" % (self.model_id, self._nonce_counter)).encode()
        ).digest()[:16]
        self._issued_nonces.add(nonce)
        return nonce

    def provision(self, quote: Quote) -> bytes:
        """Verify the quote; return the model key wrapped to the device.

        Raises :class:`SecurityViolation` on a stale nonce, an unknown
        device, a bad MAC, or non-golden measurements.
        """
        if quote.nonce not in self._issued_nonces:
            self.rejections += 1
            raise SecurityViolation("stale or foreign nonce")
        self._issued_nonces.discard(quote.nonce)  # single use
        if not self.service.verify(quote):
            self.rejections += 1
            raise SecurityViolation("quote failed verification")
        if quote.measurements != self.golden:
            self.rejections += 1
            raise SecurityViolation(
                "device booted non-golden software; refusing to release the model key"
            )
        wrap = self.service.device_wrap_key(quote.device_id, self.model_id)
        self.provisioned.add(quote.device_id)
        return wrap_model_key(wrap, self._model_key, self.model_id)


def device_unwrap_provisioned_key(keystore, wrapped: bytes, model_id: str) -> bytes:
    """TEE-side unwrap of a provisioned key (re-derives the wrap key)."""
    from ..crypto.keys import unwrap_model_key

    hardware_key = keystore.hardware_key(World.SECURE)
    wrap = derive_key(_attestation_key(hardware_key), "provision:" + model_id)
    return unwrap_model_key(wrap, wrapped, model_id)
