"""Pipeline-aware secure memory: the "extend and shrink" interface (§4.2).

A :class:`SecureRegion` binds one TZASC slot to one REE CMA region and one
TA.  Its life cycle follows the paper exactly:

* ``extend_allocated`` — the TEE asks the REE TZ driver to allocate the
  next contiguous CMA blocks (memory ballooning).  The TEE *verifies* that
  the address the untrusted REE returned is exactly adjacent to the
  previously allocated blocks — the CMA Iago defense (§6).  The new memory
  is allocated but **not yet protected**, so the REE filesystem can DMA
  encrypted parameters straight into it (no bounce buffer).
* ``extend_protected`` — the TZASC region end moves forward to cover the
  allocated bytes and the range is mapped into the TA's address space.
  From this instant non-secure masters lose access.
* ``shrink`` — from the end only (reverse topological release order keeps
  the region contiguous): sensitive bytes are scrubbed, the range is
  unmapped, the TZASC end moves back, and the blocks return to the CMA.

All sizes are in granule multiples (the CMA's allocation unit).
"""

from __future__ import annotations

from ..errors import ConfigurationError, IagoViolation, MemoryError_
from ..hw.common import AddrRange
from .ta import TrustedApplication

__all__ = ["SecureRegion"]


class SecureRegion:
    """One TZASC region bound to one CMA region and one TA."""

    def __init__(
        self,
        tee_os,  # TEEOS; untyped to avoid an import cycle
        ta: TrustedApplication,
        name: str,
        tzasc_slot: int,
        cma_name: str,
        base_addr: int,
        capacity: int,
        granule: int,
    ):
        self.tee_os = tee_os
        self.ta = ta
        self.name = name
        self.tzasc_slot = tzasc_slot
        self.cma_name = cma_name
        self.base_addr = base_addr
        self.capacity = capacity
        self.granule = granule
        self.allocated = 0  # bytes ballooned in from the CMA
        self.protected = 0  # bytes covered by the TZASC region (<= allocated)
        self._slot_active = False
        #: memory-timeline attach point (repro.obs.memory): name-level
        #: attribution layered over the raw TZASC slot events.
        self.timeline = None

    # ------------------------------------------------------------------
    @property
    def allocated_end(self) -> int:
        return self.base_addr + self.allocated

    @property
    def protected_end(self) -> int:
        return self.base_addr + self.protected

    def _check_granule(self, n_bytes: int) -> None:
        if n_bytes <= 0 or n_bytes % self.granule != 0:
            raise ConfigurationError(
                "size %d is not a positive multiple of granule %d" % (n_bytes, self.granule)
            )

    # ------------------------------------------------------------------
    def extend_allocated(self, n_bytes: int, threads: int = 1):
        """Balloon ``n_bytes`` in from the REE CMA (generator).

        Returns the :class:`AddrRange` of the newly allocated (still
        unprotected) memory.
        """
        self._check_granule(n_bytes)
        if self.allocated + n_bytes > self.capacity:
            raise MemoryError_(
                "region %s: %d + %d exceeds capacity %d"
                % (self.name, self.allocated, n_bytes, self.capacity)
            )
        expected = self.allocated_end
        addr = yield from self.tee_os.tz_call(
            "ree.cma_alloc", self.cma_name, expected, n_bytes, threads
        )
        # Iago defense: the untrusted REE chose the address; verify it.
        if addr != expected:
            raise IagoViolation(
                "CMA returned 0x%x, expected contiguous 0x%x" % (addr, expected)
            )
        self.allocated += n_bytes
        return AddrRange(expected, n_bytes)

    def extend_protected(self, n_bytes: int):
        """Move the TZASC end over ``n_bytes`` of allocated memory
        (generator).  Maps the new range into the TA's address space."""
        self._check_granule(n_bytes)
        if self.protected + n_bytes > self.allocated:
            raise MemoryError_(
                "region %s: protecting %d beyond allocated %d"
                % (self.name, self.protected + n_bytes, self.allocated)
            )
        new_range = AddrRange(self.protected_end, n_bytes)
        yield from self.tee_os.program_tzasc(self, self.protected + n_bytes)
        self.protected += n_bytes
        self.tee_os.map_into_ta(self.ta, new_range)
        if self.timeline is not None:
            self.timeline.note(
                "region", "protect", self.name, self.protected, "", self.tzasc_slot
            )
        return new_range

    def shrink(self, n_bytes: int):
        """Release ``n_bytes`` from the end back to the REE (generator)."""
        self._check_granule(n_bytes)
        if n_bytes > self.protected:
            raise MemoryError_(
                "region %s: shrinking %d below zero (protected %d)"
                % (self.name, n_bytes, self.protected)
            )
        if self.allocated != self.protected:
            raise MemoryError_(
                "region %s: shrink with unprotected allocated tail" % self.name
            )
        victim = AddrRange(self.protected_end - n_bytes, n_bytes)
        # Clear sensitive data before the REE can see the memory again.
        self.tee_os.scrub(victim)
        self.tee_os.unmap_from_ta(self.ta, victim)
        yield from self.tee_os.program_tzasc(self, self.protected - n_bytes)
        self.protected -= n_bytes
        self.allocated -= n_bytes
        if self.timeline is not None:
            self.timeline.note(
                "region", "shrink", self.name, self.protected, "", self.tzasc_slot
            )
        yield from self.tee_os.tz_call("ree.cma_release", self.cma_name, n_bytes)

    def shrink_all(self):
        """Release the whole region (generator)."""
        yield from self.release_unprotected_tail()
        if self.protected:
            yield from self.shrink(self.protected)

    def release_unprotected_tail(self):
        """Return allocated-but-never-protected memory to the CMA
        (generator).  Needed on error paths: a failed restoration leaves
        a ballooned tail the TZASC never covered.  The tail only ever
        held REE-written ciphertext, so no scrub is required."""
        delta = self.allocated - self.protected
        if delta > 0:
            self.allocated -= delta
            yield from self.tee_os.tz_call("ree.cma_release", self.cma_name, delta)
