"""Unit tests for the TZPC (MMIO security) and GIC (interrupt routing)."""

import pytest

from repro.errors import ConfigurationError, MMIODenied, SecurityViolation
from repro.hw import GIC, TZPC, World

S = World.SECURE
N = World.NONSECURE


# ---------------------------------------------------------------------------
# TZPC
# ---------------------------------------------------------------------------
def test_tzpc_default_nonsecure_device_open_to_all():
    tzpc = TZPC()
    tzpc.register_device("npu")
    tzpc.check_mmio("npu", N)
    tzpc.check_mmio("npu", S)


def test_tzpc_secure_device_blocks_nonsecure_mmio():
    tzpc = TZPC()
    tzpc.register_device("npu")
    tzpc.set_secure(S, "npu", True)
    with pytest.raises(MMIODenied):
        tzpc.check_mmio("npu", N)
    tzpc.check_mmio("npu", S)
    tzpc.set_secure(S, "npu", False)
    tzpc.check_mmio("npu", N)


def test_tzpc_programming_requires_secure_world():
    tzpc = TZPC()
    tzpc.register_device("npu")
    with pytest.raises(SecurityViolation):
        tzpc.set_secure(N, "npu", True)


def test_tzpc_unknown_device_rejected():
    tzpc = TZPC()
    with pytest.raises(ConfigurationError):
        tzpc.check_mmio("ghost", N)
    with pytest.raises(ConfigurationError):
        tzpc.set_secure(S, "ghost", True)


def test_tzpc_double_registration_rejected():
    tzpc = TZPC()
    tzpc.register_device("npu")
    with pytest.raises(ConfigurationError):
        tzpc.register_device("npu")


# ---------------------------------------------------------------------------
# GIC
# ---------------------------------------------------------------------------
def test_gic_delivers_to_current_group_owner():
    gic = GIC()
    gic.register_line(64, N)
    seen = []
    gic.attach_handler(N, 64, lambda irq, payload: seen.append(("ree", payload)))
    gic.attach_handler(S, 64, lambda irq, payload: seen.append(("tee", payload)))

    assert gic.raise_irq(64, "a") == N
    gic.set_group(S, 64, S)
    assert gic.raise_irq(64, "b") == S
    gic.set_group(S, 64, N)
    assert gic.raise_irq(64, "c") == N
    assert seen == [("ree", "a"), ("tee", "b"), ("ree", "c")]


def test_gic_grouping_requires_secure_world():
    gic = GIC()
    gic.register_line(64, N)
    with pytest.raises(SecurityViolation):
        gic.set_group(N, 64, S)


def test_gic_unhandled_interrupt_dropped():
    gic = GIC()
    gic.register_line(64, N)
    assert gic.raise_irq(64) is None
    assert gic.dropped == 1


def test_gic_unknown_line_rejected():
    gic = GIC()
    with pytest.raises(ConfigurationError):
        gic.raise_irq(99)
    with pytest.raises(ConfigurationError):
        gic.attach_handler(N, 99, lambda irq, payload: None)


def test_gic_delivery_counters():
    gic = GIC()
    gic.register_line(1, N)
    gic.attach_handler(N, 1, lambda irq, payload: None)
    for _ in range(3):
        gic.raise_irq(1)
    assert gic.delivered[N] == 3
    assert gic.delivered[S] == 0
