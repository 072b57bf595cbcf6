"""Tests for TEE OS isolation, the key service, and TEE-managed sync."""

import pytest

from repro.config import MiB, RK3588
from repro.crypto import derive_key, wrap_model_key
from repro.errors import AccessDenied, ConfigurationError, ProtocolError, SecurityViolation
from repro.hw import AddrRange, World
from repro.stack import build_stack
from repro.tee import ShadowThreadPool, TEEMutex, TrustedApplication


@pytest.fixture
def stack():
    return build_stack(spec=RK3588.with_memory(64 * MiB), granule=MiB, os_footprint=0)


def test_ta_install_and_duplicate_rejected(stack):
    ta = TrustedApplication("llm")
    stack.tee_os.install_ta(ta)
    assert stack.tee_os.ta("llm") is ta
    with pytest.raises(ConfigurationError):
        stack.tee_os.install_ta(TrustedApplication("llm"))
    with pytest.raises(ConfigurationError):
        stack.tee_os.ta("ghost")


def test_ta_address_space_isolation(stack):
    llm = TrustedApplication("llm")
    other = TrustedApplication("other")
    stack.tee_os.install_ta(llm)
    stack.tee_os.install_ta(other)
    rng = AddrRange(4 * MiB, MiB)
    stack.tee_os.map_into_ta(llm, rng)
    stack.tee_os.ta_write(llm, rng.base, b"weights")
    assert stack.tee_os.ta_read(llm, rng.base, 7) == b"weights"
    # A different TA cannot touch the same physical range.
    with pytest.raises(AccessDenied):
        stack.tee_os.ta_read(other, rng.base, 7)
    with pytest.raises(AccessDenied):
        stack.tee_os.ta_write(other, rng.base, b"tamper")


def test_ta_access_spanning_adjacent_mappings(stack):
    ta = TrustedApplication("llm")
    stack.tee_os.install_ta(ta)
    stack.tee_os.map_into_ta(ta, AddrRange(0, MiB))
    stack.tee_os.map_into_ta(ta, AddrRange(MiB, MiB))
    # One read spanning both mapped pieces is legal.
    stack.tee_os.ta_read(ta, MiB - 16, 32)
    # But reading past the second mapping is not.
    with pytest.raises(AccessDenied):
        stack.tee_os.ta_read(ta, 2 * MiB - 16, 32)


def test_unmap_splits_mappings(stack):
    ta = TrustedApplication("llm")
    stack.tee_os.install_ta(ta)
    stack.tee_os.map_into_ta(ta, AddrRange(0, 4 * MiB))
    stack.tee_os.unmap_from_ta(ta, AddrRange(MiB, MiB))
    stack.tee_os.ta_read(ta, 0, MiB)
    stack.tee_os.ta_read(ta, 2 * MiB, MiB)
    with pytest.raises(AccessDenied):
        stack.tee_os.ta_read(ta, MiB, 16)
    with pytest.raises(ConfigurationError):
        stack.tee_os.unmap_from_ta(ta, AddrRange(32 * MiB, MiB))


def test_adjacent_mappings_merge_and_unmap_still_splits(stack):
    ta = TrustedApplication("llm")
    stack.tee_os.install_ta(ta)
    for i in range(4):  # four successive extends of one region
        stack.tee_os.map_into_ta(ta, AddrRange(i * MiB, MiB))
    assert ta.mapped == [AddrRange(0, 4 * MiB)]
    stack.tee_os.unmap_from_ta(ta, AddrRange(3 * MiB, MiB))  # shrink from the end
    stack.tee_os.unmap_from_ta(ta, AddrRange(MiB, MiB))  # and open a hole
    assert ta.mapped == [AddrRange(0, MiB), AddrRange(2 * MiB, MiB)]
    stack.tee_os.map_into_ta(ta, AddrRange(MiB, MiB))  # refill the hole
    assert ta.can_access(AddrRange(0, 3 * MiB))
    assert not ta.can_access(AddrRange(0, 3 * MiB + 1))


def test_model_key_acl(stack):
    llm = TrustedApplication("llm")
    rogue = TrustedApplication("rogue")
    stack.tee_os.install_ta(llm)
    stack.tee_os.install_ta(rogue)
    hw = stack.keystore.hardware_key(World.SECURE)
    model_key = derive_key(b"provider", "m1")
    wrapped = wrap_model_key(hw, model_key, "m1")
    stack.tee_os.grant_model_access("m1", "llm")
    assert stack.tee_os.unwrap_key_for(llm, wrapped, "m1") == model_key
    with pytest.raises(SecurityViolation):
        stack.tee_os.unwrap_key_for(rogue, wrapped, "m1")


# ---------------------------------------------------------------------------
# TEE-managed synchronization
# ---------------------------------------------------------------------------
def test_mutex_enforces_exclusion_and_holder(stack):
    sim = stack.sim
    mutex = TEEMutex(sim, "order")
    log = []

    def thread(tag, hold):
        yield from mutex.acquire(tag)
        log.append(("enter", tag, sim.now))
        yield sim.timeout(hold)
        log.append(("exit", tag, sim.now))
        mutex.release(tag)

    sim.process(thread("a", 1.0))
    sim.process(thread("b", 1.0))
    sim.run()
    assert [entry[1] for entry in log] == ["a", "a", "b", "b"]


def test_mutex_release_by_non_holder_rejected(stack):
    sim = stack.sim
    mutex = TEEMutex(sim)

    def holder():
        yield from mutex.acquire("a")

    proc = sim.process(holder())
    sim.run_until(proc)
    with pytest.raises(ProtocolError):
        mutex.release("b")
    mutex.release("a")


def test_malicious_ree_schedule_cannot_violate_ta_order(stack):
    """The REE may activate shadow threads in any order; TEE-managed
    primitives still force the TA-requested execution order (§6)."""
    sim = stack.sim
    from repro.tee import TEECondition

    pool = ShadowThreadPool(sim, activation_latency=1e-5)
    produced = TEECondition(sim, "produced")
    order = []

    def producer():
        yield sim.timeout(0.5)  # the work the consumer depends on
        order.append("producer")
        produced.notify_all()

    def consumer():
        # Depends on the producer; guarded by the TEE condition, whose
        # wait queue lives in the TEE — the REE cannot bypass it.
        yield produced.wait()
        order.append("consumer")

    # Malicious REE scheduler: activates the consumer FIRST and delays
    # the producer's shadow thread.
    pool.spawn(consumer(), name="consumer")

    def delayed_producer_activation():
        yield sim.timeout(0.2)
        pool.spawn(producer(), name="producer")

    sim.process(delayed_producer_activation())
    sim.run()
    assert order == ["producer", "consumer"]
    assert pool.activations == 2


def test_condition_notify_all(stack):
    sim = stack.sim
    from repro.tee import TEECondition

    cond = TEECondition(sim)
    woken = []

    def waiter(tag):
        yield cond.wait()
        woken.append((tag, sim.now))

    def notifier():
        yield sim.timeout(2.0)
        assert cond.notify_all() == 2

    sim.process(waiter("a"))
    sim.process(waiter("b"))
    sim.process(notifier())
    sim.run()
    assert sorted(w[0] for w in woken) == ["a", "b"]
    assert all(w[1] == 2.0 for w in woken)
