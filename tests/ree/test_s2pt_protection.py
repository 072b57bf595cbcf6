"""Tests for the S2PT alternative protection design and its DMA gap."""

import pytest

from repro.config import MiB, S2PTSpec
from repro.errors import AccessDenied, DMAViolation
from repro.hw import AddrRange, World
from repro.ree.s2pt import S2PTProtection

S = World.SECURE
N = World.NONSECURE
SECRET = AddrRange(8 * MiB, 4 * MiB)


def test_s2pt_blocks_ree_cpu_access():
    s2pt = S2PTProtection(S2PTSpec())
    s2pt.protect(SECRET)
    with pytest.raises(AccessDenied):
        s2pt.check_cpu(AddrRange(9 * MiB, 64), N)
    s2pt.check_cpu(AddrRange(9 * MiB, 64), S)  # secure side still mapped
    s2pt.check_cpu(AddrRange(0, 64), N)  # unprotected memory open


def test_s2pt_dma_gap_without_iommu_interception():
    """§2.4.2: S2PT cannot prevent DMA attacks by itself.

    The identical attack that the TZASC blocks passes straight through
    stage-2 protection — the executable version of the paper's argument
    for choosing TZASC.
    """
    s2pt = S2PTProtection(S2PTSpec(), intercept_iommu=False)
    s2pt.protect(SECRET)
    # A rogue device reads the "protected" range: no exception at all.
    s2pt.check_dma(AddrRange(9 * MiB, 64), "rogue-nic")


def test_s2pt_iommu_interception_closes_the_gap_at_a_cost():
    s2pt = S2PTProtection(S2PTSpec(), intercept_iommu=True)
    s2pt.protect(SECRET)
    with pytest.raises(DMAViolation):
        s2pt.check_dma(AddrRange(9 * MiB, 64), "rogue-nic")
    # Every intercepted operation is a privileged-monitor trap (the TCB
    # and overhead cost the paper cites).
    assert s2pt.iommu_traps == 1


def test_s2pt_page_granular_no_contiguity_requirement():
    """Unlike the TZASC, S2PT protects arbitrary scattered pages."""
    s2pt = S2PTProtection(S2PTSpec())
    s2pt.protect(AddrRange(1 * MiB, 4096))
    s2pt.protect(AddrRange(5 * MiB, 4096))  # not adjacent — fine
    with pytest.raises(AccessDenied):
        s2pt.check_cpu(AddrRange(5 * MiB, 16), N)


def test_tzasc_blocks_the_same_dma_attack():
    """Control: the design TZ-LLM chose stops the DMA attack cold."""
    from repro.hw import TZASC

    tzasc = TZASC()
    tzasc.configure(S, 0, SECRET.base, SECRET.size)
    with pytest.raises(DMAViolation):
        tzasc.check_dma(AddrRange(9 * MiB, 64), "rogue-nic")
