"""Restoration backends: where alloc/load/decrypt actually happen.

The pipeline executor (:mod:`repro.core.pipeline`) is backend-agnostic;
the two implementations correspond to the systems the paper evaluates:

* :class:`TEERestoreBackend` — TZ-LLM proper: CMA ballooning through the
  extend-and-shrink interface, delegated aio into unprotected memory,
  TZASC protection, real ciphertext checksum verification and decryption.
* :class:`REERestoreBackend` — the REE-LLM-Flash baseline: buddy (4 KiB)
  allocation, plain loads, no protection, no decryption.

Allocation and decryption are *CPU work* — the pipeline's CPU worker
calls these generators while it holds the (modelled) big cluster, so they
compete with computation exactly as in Fig. 5.
"""

from __future__ import annotations

from typing import List

from ..config import PlatformSpec
from ..crypto import decrypt, verify
from ..errors import IagoViolation
from ..llm.gguf import ModelContainer
from ..llm.tensors import TensorMeta
from ..ree.kernel import REEKernel
from ..ree.pages import Allocation
from ..ree.tz_driver import TZDriver
from ..sim import Simulator
from ..tee.secure_memory import SecureRegion
from .restore_graph import RestoreGroup

__all__ = ["RestoreBackend", "TEERestoreBackend", "REERestoreBackend"]


class RestoreBackend:
    """Interface the pipeline drives.  All sizes are region-relative."""

    granule: int

    @property
    def allocated(self) -> int:
        raise NotImplementedError

    def alloc_to(self, target_bytes: int, threads: int):
        """Extend the parameter memory to ``target_bytes`` (generator;
        CPU-resident work: page migration or buddy fast path)."""
        raise NotImplementedError

    def load_group(self, group: RestoreGroup):
        """Flash I/O for a group's tensors (generator; I/O engine)."""
        raise NotImplementedError

    def protect_to(self, target_bytes: int):
        """Ensure protection covers ``[0, target_bytes)`` (generator)."""
        raise NotImplementedError

    def decrypt_duration(self, nominal_bytes: int, threads: int) -> float:
        """CPU seconds to verify+decrypt ``nominal_bytes``."""
        raise NotImplementedError

    def decrypt_group_data(self, group: RestoreGroup) -> None:
        """The functional verify+decrypt of a group's payload bytes."""
        raise NotImplementedError

    def refetch_group_data(self, group: RestoreGroup):
        """Recovery re-read of a group whose decrypt failed verification
        (generator).  Backends without a verified load path never see a
        checksum failure, so the default refuses."""
        raise NotImplementedError

    def release_to(self, target_bytes: int):
        """Shrink the parameter memory back to ``target_bytes``
        (generator; reverse-topological release, §4.1)."""
        raise NotImplementedError


def _payload_addr(base_addr: int, group: RestoreGroup, tensor: TensorMeta) -> int:
    """Where a tensor's (scaled) payload lives inside its group."""
    offset = group.region_offset
    for t in group.tensors:
        if t.name == tensor.name:
            return base_addr + offset
        offset += t.payload_bytes
    raise KeyError(tensor.name)


class TEERestoreBackend(RestoreBackend):
    """TZ-LLM's restoration: CMA ballooning, TZASC, verify + decrypt."""

    def __init__(
        self,
        sim: Simulator,
        platform: PlatformSpec,
        region: SecureRegion,
        tz_driver: TZDriver,
        container: ModelContainer,
        file_path: str,
        model_key: bytes,
    ):
        self.sim = sim
        self.platform = platform
        self.region = region
        self.tz_driver = tz_driver
        self.container = container
        self.file_path = file_path
        self.model_key = model_key
        self.granule = region.granule
        self.loaded_nominal = 0
        self.decrypted_groups = 0
        self.refetched_groups = 0
        self.refetch_attempts = 0

    @property
    def allocated(self) -> int:
        return self.region.allocated

    def alloc_to(self, target_bytes: int, threads: int):
        delta = target_bytes - self.region.allocated
        if delta > 0:
            yield from self.region.extend_allocated(delta, threads=threads)

    def load_group(self, group: RestoreGroup):
        if getattr(group, "uniform_load", False):
            # Size-obfuscated load (§6 mitigation): one fixed-size request
            # per group — the group's tensors are contiguous in the
            # container, and dummy bytes pad the transfer to the quantum.
            first = group.tensors[0]
            total_payload = sum(t.payload_bytes for t in group.tensors)
            yield from self.tz_driver.delegated_read_into(
                self.file_path,
                self.container.file_offset(first),
                total_payload,
                self.region.base_addr + group.region_offset,
                nominal=group.alloc_bytes,
            )
            self.loaded_nominal += group.nominal_bytes
            return
        for tensor in group.tensors:
            dest = _payload_addr(self.region.base_addr, group, tensor)
            yield from self.tz_driver.delegated_read_into(
                self.file_path,
                self.container.file_offset(tensor),
                tensor.payload_bytes,
                dest,
                nominal=tensor.nominal_bytes,
            )
            self.loaded_nominal += tensor.nominal_bytes

    def protect_to(self, target_bytes: int):
        delta = target_bytes - self.region.protected
        if delta > 0:
            yield from self.region.extend_protected(delta)

    def decrypt_duration(self, nominal_bytes: int, threads: int) -> float:
        return nominal_bytes / self.platform.crypto.aggregate_decrypt_bw(threads)

    def decrypt_group_data(self, group: RestoreGroup) -> None:
        """Verify REE-loaded ciphertext, then decrypt in place (TA CPU).

        A forged load (the model-loading Iago attack) fails the checksum
        here, *before* any plaintext is produced.
        """
        tee_os = self.region.tee_os
        ta = self.region.ta
        for tensor in group.tensors:
            addr = _payload_addr(self.region.base_addr, group, tensor)
            ciphertext = tee_os.ta_read(ta, addr, tensor.payload_bytes)
            expected = getattr(tensor, "checksum", None)
            if expected is not None and not verify(ciphertext, expected):
                raise IagoViolation(
                    "tensor %r failed load checksum (forged REE read?)" % tensor.name
                )
            plaintext = decrypt(
                self.model_key, self.container.nonce, ciphertext, offset=tensor.offset
            )
            tee_os.ta_write(ta, addr, plaintext)
        self.decrypted_groups += 1

    def refetch_group_data(self, group: RestoreGroup):
        """Corrupted-chunk recovery (generator): re-fetch, verify, decrypt.

        By the time a checksum failure is detected the group's memory is
        already TZASC-protected, so the fast aio path cannot land there;
        the ciphertext comes back over the TZ driver's bounce buffer, is
        verified and decrypted TA-side, and the plaintext is written
        through the TA's own mapping.  A re-read that *still* fails its
        checksum raises :class:`IagoViolation` — persistent corruption is
        an attack, and the retry loop must not hide it.
        """
        tee_os = self.region.tee_os
        ta = self.region.ta
        self.refetch_attempts += 1
        for tensor in group.tensors:
            ciphertext = yield from self.tz_driver.delegated_read_bounce(
                self.file_path,
                self.container.file_offset(tensor),
                tensor.payload_bytes,
                nominal=tensor.nominal_bytes,
            )
            expected = getattr(tensor, "checksum", None)
            if expected is not None and not verify(ciphertext, expected):
                raise IagoViolation(
                    "tensor %r failed checksum again on re-fetch" % tensor.name
                )
            plaintext = decrypt(
                self.model_key, self.container.nonce, ciphertext, offset=tensor.offset
            )
            addr = _payload_addr(self.region.base_addr, group, tensor)
            tee_os.ta_write(ta, addr, plaintext)
        self.refetched_groups += 1

    def release_to(self, target_bytes: int):
        delta = self.region.protected - target_bytes
        if delta > 0:
            yield from self.region.shrink(delta)


class REERestoreBackend(RestoreBackend):
    """The unprotected baseline: buddy pages, plain loads, no decryption."""

    def __init__(
        self,
        sim: Simulator,
        platform: PlatformSpec,
        kernel: REEKernel,
        container: ModelContainer,
        file_path: str,
    ):
        self.sim = sim
        self.platform = platform
        self.kernel = kernel
        self.container = container
        self.file_path = file_path
        self.granule = kernel.db.granule
        self._allocated = 0
        self._allocations: List[Allocation] = []
        self.loaded_nominal = 0

    @property
    def allocated(self) -> int:
        return self._allocated

    def alloc_to(self, target_bytes: int, threads: int):
        delta = target_bytes - self._allocated
        if delta <= 0:
            return
        alloc = yield from self.kernel.alloc_timed(delta, movable=True, tag="ree-llm")
        self._allocations.append(alloc)
        self._allocated = target_bytes

    def load_group(self, group: RestoreGroup):
        for tensor in group.tensors:
            yield from self.kernel.fs.read(
                self.file_path,
                self.container.file_offset(tensor),
                tensor.payload_bytes,
                nominal=tensor.nominal_bytes,
            )
            self.loaded_nominal += tensor.nominal_bytes

    def protect_to(self, target_bytes: int):
        return
        yield  # pragma: no cover - makes this a generator

    def decrypt_duration(self, nominal_bytes: int, threads: int) -> float:
        return 0.0

    def decrypt_group_data(self, group: RestoreGroup) -> None:
        return None

    def release_to(self, target_bytes: int):
        while self._allocations and self._allocated > target_bytes:
            tail = self._allocations.pop()
            self.kernel.free(tail)
            self._allocated -= tail.n_frames * self.granule
        yield self.sim.timeout(0)
