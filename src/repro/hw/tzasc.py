"""TrustZone Address Space Controller (TZC-400 style).

The TZASC protects up to ``spec.tzasc_regions`` *contiguous* physical
regions as secure memory.  It filters every memory transaction:

* CPU accesses from the non-secure world to a secure region are denied.
* Device DMA is denied to secure regions unless the secure world has
  explicitly granted that device access to that region (the mechanism the
  TEE NPU co-driver uses to let the NPU read job contexts, §4.3).

Regions are page-aligned and may only be reconfigured by the secure world
— the simulated hardware checks the caller's world on every programming
operation, exactly like real TZASC programming interfaces exposed only to
secure EL3/EL1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..config import PAGE_SIZE
from ..errors import AccessDenied, ConfigurationError, DMAViolation, SecurityViolation
from .common import AddrRange, World

__all__ = ["TZASCRegion", "TZASC"]


@dataclass
class TZASCRegion:
    """One programmed TZASC region."""

    slot: int
    range: AddrRange
    #: device names granted DMA access while the region is secure.
    allowed_devices: Set[str] = field(default_factory=set)

    @property
    def base(self) -> int:
        return self.range.base

    @property
    def size(self) -> int:
        return self.range.size

    @property
    def end(self) -> int:
        return self.range.end


class TZASC:
    """The region filter.  All addresses/sizes must be page-aligned."""

    def __init__(self, region_slots: int = 8, config_time: float = 20e-6):
        self.region_slots = region_slots
        self.config_time = config_time
        self._regions: Dict[int, TZASCRegion] = {}
        #: number of programming operations (for overhead accounting).
        self.config_ops = 0
        #: observability attach points (repro.obs.instrument).
        self.metrics = None
        self.recorder = None
        #: memory-timeline attach point (repro.obs.memory).
        self.timeline = None

    def _note_denial(self, path: str, detail: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                "tzasc_denials_total", "Memory transactions denied by the TZASC"
            ).inc(path=path)
        if self.recorder is not None:
            self.recorder.record("security", "tzasc.%s" % path, detail)

    def _note_config(self, op: str, slot: int, old_size: int, new_size: int) -> None:
        """Emit one region-programming event — symmetric across
        configure, resize (grow *and* shrink) and disable, so observers
        never see phantom secure memory after a silent drain."""
        if self.metrics is not None:
            self.metrics.counter(
                "tzasc_region_config_total", "TZASC region programming operations"
            ).inc(op=op)
            self.metrics.gauge(
                "tzasc_region_bytes", "Configured bytes per TZASC region slot"
            ).set(float(new_size), slot=str(slot))
        if self.recorder is not None:
            self.recorder.record(
                "memory",
                "tzasc.%s" % op,
                "slot %d: %d -> %d bytes" % (slot, old_size, new_size),
            )
        if self.timeline is not None:
            self.timeline.note("region", op, slot, new_size, "", old_size)

    # ------------------------------------------------------------------
    # programming interface (secure world only)
    # ------------------------------------------------------------------
    def _require_secure(self, world: World) -> None:
        if not world.is_secure:
            raise SecurityViolation("TZASC programming from non-secure world")

    @staticmethod
    def _check_aligned(value: int, what: str) -> None:
        if value % PAGE_SIZE != 0:
            raise ConfigurationError("%s 0x%x is not page-aligned" % (what, value))

    def configure(self, world: World, slot: int, base: int, size: int) -> TZASCRegion:
        """Program ``slot`` to protect ``[base, base+size)`` as secure."""
        self._require_secure(world)
        if not 0 <= slot < self.region_slots:
            raise ConfigurationError("TZASC slot %d out of range" % slot)
        self._check_aligned(base, "region base")
        self._check_aligned(size, "region size")
        new_range = AddrRange(base, size)
        for other in self._regions.values():
            if other.slot != slot and other.range.overlaps(new_range) and size > 0:
                raise ConfigurationError(
                    "region slot %d overlaps slot %d" % (slot, other.slot)
                )
        region = self._regions.get(slot)
        if region is None:
            old_size = 0
            region = TZASCRegion(slot=slot, range=new_range)
            self._regions[slot] = region
        else:
            old_size = region.range.size
            region.range = new_range
        self.config_ops += 1
        self._note_config("configure", slot, old_size, size)
        return region

    def resize(self, world: World, slot: int, new_size: int) -> TZASCRegion:
        """Move the region's end (extend or shrink); base is fixed.

        This is the only reshaping the "extend and shrink" secure-memory
        interface needs (§4.2) and mirrors how the TZC-400's region end
        address register is reprogrammed.
        """
        self._require_secure(world)
        region = self._region_for_slot(slot)
        self._check_aligned(new_size, "region size")
        proposed = AddrRange(region.base, new_size)
        for other in self._regions.values():
            if other.slot != slot and other.range.overlaps(proposed) and new_size > 0:
                raise ConfigurationError(
                    "resize of slot %d would overlap slot %d" % (slot, other.slot)
                )
        old_size = region.range.size
        region.range = proposed
        self.config_ops += 1
        self._note_config("resize", slot, old_size, new_size)
        return region

    def disable(self, world: World, slot: int) -> None:
        self._require_secure(world)
        old_size = self._region_for_slot(slot).range.size
        del self._regions[slot]
        self.config_ops += 1
        self._note_config("disable", slot, old_size, 0)

    def allow_device(self, world: World, slot: int, device: str) -> None:
        """Grant ``device`` DMA access to a secure region."""
        self._require_secure(world)
        self._region_for_slot(slot).allowed_devices.add(device)
        self.config_ops += 1

    def revoke_device(self, world: World, slot: int, device: str) -> None:
        self._require_secure(world)
        self._region_for_slot(slot).allowed_devices.discard(device)
        self.config_ops += 1

    def _region_for_slot(self, slot: int) -> TZASCRegion:
        region = self._regions.get(slot)
        if region is None:
            raise ConfigurationError("TZASC slot %d is not configured" % slot)
        return region

    # ------------------------------------------------------------------
    # transaction filtering
    # ------------------------------------------------------------------
    def regions(self) -> List[TZASCRegion]:
        return sorted(self._regions.values(), key=lambda r: r.slot)

    def region(self, slot: int) -> Optional[TZASCRegion]:
        return self._regions.get(slot)

    def is_secure(self, addr: int) -> bool:
        return any(r.range.contains(addr) for r in self._regions.values())

    def check_cpu(self, rng: AddrRange, world: World) -> None:
        """Filter a CPU load/store covering ``rng``."""
        if world.is_secure:
            return
        for region in self._regions.values():
            if region.range.overlaps(rng):
                detail = "non-secure CPU access to secure %r (slot %d)" % (
                    region.range,
                    region.slot,
                )
                self._note_denial("cpu", detail)
                raise AccessDenied(detail)

    def check_dma(self, rng: AddrRange, device: str) -> None:
        """Filter a device DMA transaction covering ``rng``."""
        for region in self._regions.values():
            if region.range.overlaps(rng):
                if device not in region.allowed_devices:
                    detail = "device %r DMA to secure %r (slot %d) denied" % (
                        device,
                        region.range,
                        region.slot,
                    )
                    self._note_denial("dma", detail)
                    raise DMAViolation(detail)
