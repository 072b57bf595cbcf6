"""Unit tests for shared hardware vocabulary (AddrRange, World, Master)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.hw import AddrRange, Master, World


def test_world_security():
    assert World.SECURE.is_secure
    assert not World.NONSECURE.is_secure


def test_master_constructors():
    cpu = Master.cpu(World.SECURE)
    dev = Master.device("npu", World.NONSECURE)
    assert not cpu.is_device and dev.is_device
    assert cpu.world.is_secure and not dev.world.is_secure


def test_addr_range_basics():
    rng = AddrRange(0x1000, 0x100)
    assert rng.end == 0x1100
    assert rng.contains(0x1000) and rng.contains(0x10FF)
    assert not rng.contains(0x1100)
    assert not rng.empty
    assert AddrRange(5, 0).empty


def test_addr_range_negative_rejected():
    with pytest.raises(ConfigurationError):
        AddrRange(-1, 10)
    with pytest.raises(ConfigurationError):
        AddrRange(0, -1)


def test_covers_and_overlaps():
    outer = AddrRange(0, 100)
    inner = AddrRange(10, 20)
    apart = AddrRange(200, 10)
    adjacent = AddrRange(100, 10)
    assert outer.covers(inner) and not inner.covers(outer)
    assert outer.overlaps(inner)
    assert not outer.overlaps(apart)
    assert not outer.overlaps(adjacent)  # half-open ranges


@given(
    base_a=st.integers(0, 1000), size_a=st.integers(0, 1000),
    base_b=st.integers(0, 1000), size_b=st.integers(0, 1000),
)
@settings(max_examples=80, deadline=None)
def test_property_overlap_iff_nonempty_intersection(base_a, size_a, base_b, size_b):
    a = AddrRange(base_a, size_a)
    b = AddrRange(base_b, size_b)
    assert a.overlaps(b) == (min(a.end, b.end) > max(a.base, b.base))
    assert a.overlaps(b) == b.overlaps(a)  # symmetric


@given(
    base=st.integers(0, 1000), size=st.integers(1, 1000),
    inner_off=st.integers(0, 999), inner_size=st.integers(0, 1000),
)
@settings(max_examples=60, deadline=None)
def test_property_covers_implies_contains_endpoints(base, size, inner_off, inner_size):
    outer = AddrRange(base, size)
    inner = AddrRange(base + inner_off, inner_size)
    if outer.covers(inner) and not inner.empty:
        assert outer.contains(inner.base)
        assert outer.contains(inner.end - 1)
