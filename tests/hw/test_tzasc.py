"""Unit tests for the TZASC region filter."""

import pytest

from repro.config import PAGE_SIZE
from repro.errors import AccessDenied, ConfigurationError, DMAViolation, SecurityViolation
from repro.hw import AddrRange, TZASC, World

S = World.SECURE
N = World.NONSECURE
PG = PAGE_SIZE


@pytest.fixture
def tzasc():
    return TZASC(region_slots=8)


def test_configure_requires_secure_world(tzasc):
    with pytest.raises(SecurityViolation):
        tzasc.configure(N, 0, 0, PG)


def test_unaligned_region_rejected(tzasc):
    with pytest.raises(ConfigurationError):
        tzasc.configure(S, 0, 100, PG)
    with pytest.raises(ConfigurationError):
        tzasc.configure(S, 0, 0, PG + 1)


def test_slot_bounds_checked(tzasc):
    with pytest.raises(ConfigurationError):
        tzasc.configure(S, 8, 0, PG)
    with pytest.raises(ConfigurationError):
        tzasc.configure(S, -1, 0, PG)


def test_nonsecure_cpu_blocked_from_secure_region(tzasc):
    tzasc.configure(S, 0, 4 * PG, 4 * PG)
    with pytest.raises(AccessDenied):
        tzasc.check_cpu(AddrRange(5 * PG, 16), N)
    # Secure CPU passes.
    tzasc.check_cpu(AddrRange(5 * PG, 16), S)
    # Non-secure access outside the region passes.
    tzasc.check_cpu(AddrRange(0, PG), N)
    tzasc.check_cpu(AddrRange(8 * PG, PG), N)


def test_partial_overlap_still_blocked(tzasc):
    tzasc.configure(S, 0, 4 * PG, 2 * PG)
    # Access straddling the region boundary is denied.
    with pytest.raises(AccessDenied):
        tzasc.check_cpu(AddrRange(3 * PG, 2 * PG), N)


def test_region_overlap_rejected(tzasc):
    tzasc.configure(S, 0, 0, 4 * PG)
    with pytest.raises(ConfigurationError):
        tzasc.configure(S, 1, 2 * PG, 4 * PG)
    # Adjacent is fine.
    tzasc.configure(S, 1, 4 * PG, 4 * PG)


def test_resize_extends_and_shrinks_end(tzasc):
    tzasc.configure(S, 0, 0, 2 * PG)
    tzasc.resize(S, 0, 6 * PG)
    with pytest.raises(AccessDenied):
        tzasc.check_cpu(AddrRange(5 * PG, 8), N)
    tzasc.resize(S, 0, PG)
    tzasc.check_cpu(AddrRange(5 * PG, 8), N)  # now open again
    with pytest.raises(AccessDenied):
        tzasc.check_cpu(AddrRange(0, 8), N)


def test_resize_to_zero_opens_everything(tzasc):
    tzasc.configure(S, 0, 0, 4 * PG)
    tzasc.resize(S, 0, 0)
    tzasc.check_cpu(AddrRange(0, 4 * PG), N)


def test_resize_cannot_overlap_other_region(tzasc):
    tzasc.configure(S, 0, 0, 2 * PG)
    tzasc.configure(S, 1, 4 * PG, 2 * PG)
    with pytest.raises(ConfigurationError):
        tzasc.resize(S, 0, 6 * PG)


def test_disable_frees_slot(tzasc):
    tzasc.configure(S, 0, 0, 2 * PG)
    tzasc.disable(S, 0)
    tzasc.check_cpu(AddrRange(0, PG), N)
    with pytest.raises(ConfigurationError):
        tzasc.resize(S, 0, PG)


def test_dma_denied_by_default(tzasc):
    tzasc.configure(S, 0, 0, 4 * PG)
    with pytest.raises(DMAViolation):
        tzasc.check_dma(AddrRange(PG, 8), "npu")
    # Outside the region: any device passes.
    tzasc.check_dma(AddrRange(8 * PG, 8), "npu")


def test_dma_allowed_after_grant_and_revoked(tzasc):
    tzasc.configure(S, 0, 0, 4 * PG)
    tzasc.allow_device(S, 0, "npu")
    tzasc.check_dma(AddrRange(PG, 8), "npu")
    # A different device is still denied.
    with pytest.raises(DMAViolation):
        tzasc.check_dma(AddrRange(PG, 8), "gpu")
    tzasc.revoke_device(S, 0, "npu")
    with pytest.raises(DMAViolation):
        tzasc.check_dma(AddrRange(PG, 8), "npu")


def test_device_grant_requires_secure_world(tzasc):
    tzasc.configure(S, 0, 0, 4 * PG)
    with pytest.raises(SecurityViolation):
        tzasc.allow_device(N, 0, "npu")


def test_is_secure_and_ranges(tzasc):
    tzasc.configure(S, 2, 4 * PG, 2 * PG)
    assert tzasc.is_secure(4 * PG)
    assert tzasc.is_secure(5 * PG)
    assert not tzasc.is_secure(6 * PG)
    assert [r.range for r in tzasc.regions() if not r.range.empty] == [AddrRange(4 * PG, 2 * PG)]


def test_config_ops_counted(tzasc):
    assert tzasc.config_ops == 0
    tzasc.configure(S, 0, 0, PG)
    tzasc.resize(S, 0, 2 * PG)
    tzasc.allow_device(S, 0, "npu")
    tzasc.revoke_device(S, 0, "npu")
    tzasc.disable(S, 0)
    assert tzasc.config_ops == 5
