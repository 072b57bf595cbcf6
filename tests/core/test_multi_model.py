"""Tests for hosting multiple protected models on one device."""

from dataclasses import replace

import pytest

from repro.core import TZLLM
from repro.errors import AccessDenied, ConfigurationError, SecurityViolation
from repro.llm import TINYLLAMA
from repro.obs import MemoryTimeline, instrument

SECOND = replace(TINYLLAMA, model_id="tinyllama-clone-b", display_name="Clone-B")
TINY = [
    replace(TINYLLAMA, model_id="m%d" % i, display_name="M%d" % i) for i in range(5)
]


@pytest.fixture(scope="module")
def multi():
    system = TZLLM([TINYLLAMA, SECOND], cache_fraction=1.0)
    for model_id in (TINYLLAMA.model_id, SECOND.model_id):
        system.run_infer(8, 0, model_id=model_id)  # cold starts
    return system


def test_both_models_serve_requests(multi):
    a = multi.run_infer(64, 4, model_id=TINYLLAMA.model_id)
    b = multi.run_infer(64, 4, model_id=SECOND.model_id)
    assert a.decode.token_ids and b.decode.token_ids
    assert a.ttft > 0 and b.ttft > 0


def test_models_have_disjoint_secure_regions(multi):
    a = multi.tas[TINYLLAMA.model_id].params_region
    b = multi.tas[SECOND.model_id].params_region
    assert a.tzasc_slot != b.tzasc_slot
    ranges_disjoint = (
        a.base_addr + a.capacity <= b.base_addr
        or b.base_addr + b.capacity <= a.base_addr
    )
    assert ranges_disjoint


def test_cross_ta_isolation(multi):
    """TA for model A cannot read model B's cached parameters or key."""
    multi.run_infer(16, 0, model_id=SECOND.model_id)  # B's cache is resident
    ta_a = multi.tas[TINYLLAMA.model_id]
    region_b = multi.tas[SECOND.model_id].params_region
    assert region_b.protected > 0
    with pytest.raises(AccessDenied):
        multi.stack.tee_os.ta_read(ta_a, region_b.base_addr, 64)
    with pytest.raises(SecurityViolation):
        multi.stack.tee_os.unwrap_key_for(
            ta_a, multi.tas[SECOND.model_id].container.wrapped_key, SECOND.model_id
        )


def test_npu_grants_cover_both_models(multi):
    slots = set(multi.stack.tee_npu.allowed_slots)
    for model_id in (TINYLLAMA.model_id, SECOND.model_id):
        ta = multi.tas[model_id]
        assert ta.params_region.tzasc_slot in slots
        assert ta.data_region.tzasc_slot in slots


def test_tzasc_slot_limit_enforced():
    """Five models need ten regions; the TZC-400 has eight."""
    with pytest.raises(ConfigurationError, match="TZASC"):
        TZLLM(TINY)


def test_memory_budget_enforced():
    from repro.llm import LLAMA3_8B

    big = [
        replace(LLAMA3_8B, model_id="big-%d" % i, display_name="Big%d" % i)
        for i in range(3)
    ]
    with pytest.raises(ConfigurationError, match="CMA"):
        TZLLM(big)  # 3 x 8 GB cannot fit in 16 GB


def test_duplicate_or_empty_model_lists_rejected():
    with pytest.raises(ConfigurationError):
        TZLLM([])
    with pytest.raises(ConfigurationError):
        TZLLM([TINYLLAMA, TINYLLAMA])


def test_every_request_crosses_the_smc_whatever_the_model_count():
    """A request pays the same CA -> TZ driver -> SMC hop on a one-model
    and a two-model system."""
    smcs = []
    for system in (TZLLM(TINYLLAMA), TZLLM([TINYLLAMA, SECOND])):
        registry = instrument(system).registry
        system.run_infer(8, 0, model_id=TINYLLAMA.model_id)  # cold start
        calls = registry.counter("smc_calls_total")
        monitor = system.stack.board.monitor
        smc0, infer0 = monitor.smc_count, calls.value(func="tee.llm.infer")
        system.run_infer(32, 0, model_id=TINYLLAMA.model_id)
        assert calls.value(func="tee.llm.infer") - infer0 == 1
        smcs.append(monitor.smc_count - smc0)
    assert smcs[0] == smcs[1] > 0


def test_one_model_accessors_refuse_a_multi_model_system(multi):
    with pytest.raises(ConfigurationError):
        multi.ta
    with pytest.raises(ConfigurationError):
        multi.model
    with pytest.raises(ConfigurationError):
        multi.run_infer(8, 0)  # no model_id
    with pytest.raises(ConfigurationError, match="no TA"):
        multi.run_infer(8, 0, model_id="no-such-model")


def test_observers_reach_every_ta():
    system = TZLLM([TINYLLAMA, SECOND])
    obs = instrument(system)
    timeline = MemoryTimeline(system.sim).attach(system)
    for ta in system.tas.values():
        assert ta.metrics is obs.registry and ta.recorder is obs.recorder
        assert ta.params_region.timeline is timeline
        assert ta.data_region.timeline is timeline
    obs.detach(system)
    assert all(ta.metrics is None for ta in system.tas.values())
