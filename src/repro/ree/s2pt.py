"""Stage-2 page table (S2PT) alternative: the design the paper rejects.

Prior work protects secure memory by running the REE inside a VM and
unmapping secure pages from the stage-2 tables.  The cost is a
two-dimensional page walk on every TLB miss, *continuously*, for every
REE application (§2.4.2).  This model reproduces the Fig. 2 motivation
experiment: each application's slowdown is its memory intensity (TLB-miss
proneness) times the calibrated walk-overhead factor, with 2 MiB huge
mappings much cheaper than the 4 KiB mappings that fragmentation forces.

The model also exposes the design trade-off used in the ablation bench:
S2PT overhead is *continuous* while CMA migration overhead is *transient*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..config import S2PTSpec
from ..errors import AccessDenied, ConfigurationError, DMAViolation
from ..hw.common import AddrRange

__all__ = ["S2PTState", "s2pt_slowdown", "S2PTProtection"]


@dataclass
class S2PTState:
    """Whether stage-2 translation is on, and the mapping granularity."""

    enabled: bool = False
    #: after the LLM's gigabytes are allocated, most stage-2 mappings fall
    #: back to 4 KiB (§2.4.2); fresh systems can still use 2 MiB blocks.
    fragmented: bool = True


def s2pt_slowdown(memory_intensity: float, state: S2PTState, spec: S2PTSpec) -> float:
    """Multiplicative slowdown (>= 1.0) for an app under stage-2 translation.

    ``memory_intensity`` in [0, 1] expresses how TLB-miss-bound the app is
    (1.0 = the paper's worst Geekbench subtest at 9.8%).
    """
    if not 0.0 <= memory_intensity <= 1.0:
        raise ConfigurationError("memory_intensity must be within [0, 1]")
    if not state.enabled:
        return 1.0
    factor = spec.walk_overhead_factor if state.fragmented else spec.huge_page_overhead_factor
    return 1.0 + memory_intensity * factor


class S2PTProtection:
    """The stage-2 protection mechanism itself (page-granular unmapping).

    Protects secure pages from the REE *CPU* by unmapping them from the
    stage-2 tables.  Crucially — and this is the §2.4.2 argument for
    choosing TZASC — **S2PT does not control DMA**: a device programmed
    by the untrusted REE can still reach "protected" pages unless a
    privileged monitor additionally intercepts every IOMMU update
    (``intercept_iommu=True``), which costs a trap per mapping operation
    and grows the EL3 TCB.

    The class exposes the same ``check_cpu`` / ``check_dma`` interface as
    the TZASC so tests can run identical attacks against both designs.
    """

    def __init__(self, spec: S2PTSpec, intercept_iommu: bool = False):
        self.spec = spec
        self.intercept_iommu = intercept_iommu
        self.state = S2PTState(enabled=False)
        self._protected: List[AddrRange] = []
        #: privileged-monitor traps taken for IOMMU interception.
        self.iommu_traps = 0

    def protect(self, rng: AddrRange) -> None:
        """Unmap ``rng`` from the REE's stage-2 tables (page granular —
        no contiguity requirement, unlike the TZASC)."""
        self._protected.append(rng)
        self.state.enabled = True

    def check_cpu(self, rng: AddrRange, world) -> None:
        if getattr(world, "is_secure", False):
            return
        for protected in self._protected:
            if protected.overlaps(rng):
                raise AccessDenied("stage-2 fault: REE access to %r" % protected)

    def check_dma(self, rng: AddrRange, device: str) -> None:
        """The gap: device DMA bypasses stage-2 unless the monitor
        intercepts IOMMU programming."""
        if not self.intercept_iommu:
            return  # attack surface: DMA sails through
        for protected in self._protected:
            if protected.overlaps(rng):
                self.iommu_traps += 1
                raise DMAViolation(
                    "intercepted IOMMU mapping: device %r to %r" % (device, protected)
                )
