"""The analytical device model must move the way the platform spec says."""

import pytest

from repro.config import RK3588
from repro.core.llm_ta import PreemptionGate
from repro.errors import ConfigurationError
from repro.fleet import SurrogateConfig, SurrogateLLM, scale_platform
from repro.llm import QWEN25_3B, TINYLLAMA
from repro.sim import Simulator


def _run(system, model_id, prompt, out=0, preempt=None):
    proc = system.sim.process(
        system.infer(prompt, out, preempt=preempt, model_id=model_id)
    )
    return system.sim.run_until(proc)


def test_cold_then_warm_ttft():
    system = SurrogateLLM([TINYLLAMA])
    cold = _run(system, TINYLLAMA.model_id, 64)
    warm = _run(system, TINYLLAMA.model_id, 64)
    assert cold.init_time > 0 and warm.init_time == 0
    assert cold.ttft == pytest.approx(
        warm.ttft + system.restore_time(TINYLLAMA), rel=1e-9
    )
    assert warm.cached_bytes == TINYLLAMA.param_bytes


def test_prefill_scales_with_prompt_and_platform():
    slow = SurrogateLLM([TINYLLAMA], platform=RK3588)
    fast = SurrogateLLM(
        [TINYLLAMA], platform=scale_platform(RK3588, "fast", cpu=2.0, npu=2.0)
    )
    assert slow.prefill_time(TINYLLAMA, 512) > slow.prefill_time(TINYLLAMA, 64)
    assert fast.prefill_time(TINYLLAMA, 512) < slow.prefill_time(TINYLLAMA, 512)
    # Decode is bandwidth-bound: scaling mem bandwidth scales it.
    wide = SurrogateLLM([TINYLLAMA], platform=scale_platform(RK3588, "wide", mem=2.0))
    assert wide.decode_time_per_token(TINYLLAMA) == pytest.approx(
        slow.decode_time_per_token(TINYLLAMA) / 2.0
    )


def test_decode_emits_tokens_on_the_clock():
    system = SurrogateLLM([TINYLLAMA])
    record = _run(system, TINYLLAMA.model_id, 32, out=16)
    assert len(record.decode.token_ids) == 16
    assert not record.preempted
    expected = 16 * system.decode_time_per_token(TINYLLAMA)
    assert sum(record.decode.step_times) == pytest.approx(expected)


def test_residency_budget_evicts_lru():
    config = SurrogateConfig(model_budget_bytes=QWEN25_3B.param_bytes + 1)
    system = SurrogateLLM([TINYLLAMA, QWEN25_3B], config=config)
    _run(system, TINYLLAMA.model_id, 8)
    assert system.tas[TINYLLAMA.model_id].resident
    assert not system.tas[QWEN25_3B.model_id].resident
    # The larger model displaces the smaller one (budget fits only it).
    _run(system, QWEN25_3B.model_id, 8)
    assert system.tas[QWEN25_3B.model_id].resident
    assert not system.tas[TINYLLAMA.model_id].resident
    record = _run(system, TINYLLAMA.model_id, 8)
    assert record.init_time > 0  # had to cold-restore again


def test_preemption_gate_stops_decode_at_chunk_boundary():
    sim = Simulator()
    config = SurrogateConfig(preempt_check_tokens=4)
    system = SurrogateLLM([TINYLLAMA], config=config, sim=sim)
    gate = PreemptionGate()
    proc = sim.process(system.infer(16, 64, preempt=gate, model_id=TINYLLAMA.model_id))

    def preemptor():
        yield sim.timeout(system.restore_time(TINYLLAMA) + 1.0)
        gate.request(cause="test", at=sim.now)

    sim.process(preemptor())
    record = sim.run_until(proc)
    assert record.preempted
    assert 0 < len(record.decode.token_ids) < 64
    assert len(record.decode.token_ids) % 4 == 0


def test_fault_injection_consumed_in_order():
    system = SurrogateLLM([TINYLLAMA])
    system.inject_fault(TINYLLAMA.model_id, RuntimeError("boom"))
    with pytest.raises(RuntimeError):
        _run(system, TINYLLAMA.model_id, 8)
    _run(system, TINYLLAMA.model_id, 8)  # next request is clean


def test_validation():
    with pytest.raises(ConfigurationError):
        SurrogateLLM([])
    with pytest.raises(ConfigurationError):
        SurrogateLLM([TINYLLAMA, TINYLLAMA])
    system = SurrogateLLM([TINYLLAMA])
    with pytest.raises(ConfigurationError):
        system.warm("nope")
