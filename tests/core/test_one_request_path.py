"""One request path: every TA request decodes through the batch engine.

A TA built without a ``BatchConfig`` runs the engine at
``max_batch_size=1``, the paper's one-request-at-a-time TA.  These tests
pin what that path keeps from the paper (§4.2, Fig. 7b): a preempted
request releases its blocks and restarts instead of parking, every
record counts its world switches and SMCs, and streaming decode stays a
one-request mode.  They also pin the recovery rule the path shares: a
failed restoration drops every parameter byte once nothing else needs
them, whatever KV blocks the pool or prefix tree still hold.
"""

import pytest

from repro import TINYLLAMA, TZLLM
from repro.core import BatchConfig
from repro.errors import ConfigurationError, IagoViolation
from repro.llm import PromptSpec, container_path
from repro.serve import GatewayConfig, ServeGateway


def recording(system, monkeypatch):
    """Wrap ``system.infer``: every attempt's record, and the data-region
    size the moment the attempt returned, land in the returned list."""
    attempts = []
    infer = system.infer

    def wrapped(*args, **kwargs):
        record = yield from infer(*args, **kwargs)
        attempts.append((record, system.ta.data_region.allocated))
        return record

    monkeypatch.setattr(system, "infer", wrapped)
    return attempts


def test_b1_preemption_releases_and_restarts_instead_of_parking(monkeypatch):
    system = TZLLM(TINYLLAMA, cache_fraction=1.0)
    system.run_infer(8, 0)
    attempts = recording(system, monkeypatch)
    gateway = ServeGateway(system, GatewayConfig(scheduling="priority"))
    sim = system.sim
    victim = gateway.submit(prompt_tokens=32, output_tokens=64, priority="background")
    sim.run(until=sim.now + 1.0)  # let the victim get into its decode
    urgent = gateway.submit(prompt_tokens=32, output_tokens=4, priority="interactive")
    sim.run_until(sim.all_of([victim.completion, urgent.completion]))

    engine = system.ta.batch_engine
    first, region_after = attempts[0]
    assert first.request_id == victim.request_id
    assert first.preempted and not first.parked
    assert 0 < len(first.decode.token_ids) < 64
    assert engine.evictions == 1 and engine.resumes == 0
    assert not engine.parked
    # The partial decode is waste: the retry decodes from scratch.
    assert gateway.wasted_tokens == len(first.decode.token_ids)
    assert victim.attempts == 2 and victim.tokens_generated == 64
    # The data region is released after every attempt (Fig. 7b).
    assert [region for _record, region in attempts] == [0, 0, 0]
    assert region_after == 0
    assert system.ta.kv_bytes_in_use == 0


def test_batched_decode_record_counts_world_switches_and_smcs():
    system = TZLLM(TINYLLAMA, batch_config=BatchConfig(max_batch_size=4))
    system.run_infer(8, 0)
    record = system.run_infer(32, 8)
    assert len(record.decode.token_ids) == 8
    assert record.world_switch_time > 0
    assert record.smc_count > 0


def test_streaming_decode_refuses_a_batching_ta():
    with pytest.raises(ConfigurationError):
        TZLLM(
            TINYLLAMA,
            decode_param_residency=0.5,
            batch_config=BatchConfig(max_batch_size=2),
        )
    # The one-request engine streams.
    system = TZLLM(
        TINYLLAMA,
        decode_param_residency=0.5,
        batch_config=BatchConfig(max_batch_size=1),
    )
    system.run_infer(8, 0)
    assert system.run_infer(32, 4).stream_sweeps == 4


def test_failed_restore_on_a_sharing_ta_keeps_no_untrusted_cache():
    """A prefix-sharing TA whose tree holds KV blocks must still drop the
    parameters of a restoration that failed its checksums: the group the
    failed attempt protected was never decrypted."""
    system = TZLLM(
        TINYLLAMA,
        cache_fraction=0.5,
        batch_config=BatchConfig(max_batch_size=2, prefix_sharing=True),
    )
    system.run_infer(8, 0)
    spec = PromptSpec(prefix_id="sys", prefix_tokens=32, session_id="s", new_tokens=16)
    system.run_infer(48, 4, prompt=spec)
    ta = system.ta
    assert ta.batch_engine.pool.cached_blocks > 0
    path = container_path(TINYLLAMA.model_id)
    system.stack.kernel.fs.tamper_hook = lambda p, o, d: bytes(len(d)) if p == path else d
    with pytest.raises(IagoViolation):
        system.run_infer(64, 0)
    assert ta.params_region.protected == 0
    assert ta.cached_groups == 0
    system.stack.kernel.fs.tamper_hook = None
    record = system.run_infer(64, 2)
    assert record.cached_groups == 0
    assert len(record.decode.token_ids) == 2
