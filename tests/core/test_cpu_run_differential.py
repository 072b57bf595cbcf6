"""Seeded real-stack differential: CPU runs and in-place co-driver
steps vs per-operator and per-step stepping.

Each case runs three times on a fresh system: once as shipped, once
with the per-operator reference loop (``per_op_reference``, see
``tests/conftest.py``) patched onto ``GraphExecutor.execute``, and once
with ``Simulator.advance`` refusing every step (``per_step_stepping``).
Every request-visible number must be identical: TTFT, first-token
instants, per-token step times and attribution, token ids, and the full
metrics export.
"""

import pytest

from repro import TINYLLAMA, TZLLM
from repro.config import RK3588
from repro.core import BatchConfig
from repro.fleet import scale_platform
from repro.llm import GraphExecutor, PromptSpec
from repro.obs import instrument
from repro.serve import GatewayConfig, ServeGateway
from repro.serve.errors import AdmissionRejected
from repro.workloads import FleetTenantSpec, generate_fleet_trace

_TINY = TINYLLAMA.model_id
MAX_TOKENS = 1024
#: interactive chat sessions sharing two system prompts, against a
#: background indexer the chat turns preempt out of the full batch.
TENANTS = [
    FleetTenantSpec(
        "chat", _TINY, "interactive", sessions_per_hour=900.0, mean_turns=3.0,
        mean_think_time=10.0, stickiness=1.0, prefix_tokens=100, prefix_pool=2,
        output_tokens=(4, 12),
    ),
    FleetTenantSpec(
        "indexer", _TINY, "background", sessions_per_hour=600.0, workload="droidtask",
        mean_turns=1.0, mean_think_time=45.0, stickiness=0.0, output_tokens=(16, 32),
    ),
]


def batched_gateway_run():
    trace = [
        r
        for r in generate_fleet_trace(60.0, TENANTS, seed=3)
        if r.prompt_tokens + r.output_tokens <= MAX_TOKENS - 64
    ]
    system = TZLLM(
        TINYLLAMA,
        max_tokens=MAX_TOKENS,
        cache_fraction=1.0,
        batch_config=BatchConfig(max_batch_size=2, block_tokens=16, prefix_sharing=True),
    )
    obs = instrument(system)
    system.run_infer(16, 2)
    gateway = ServeGateway(system, GatewayConfig(batching=True))
    sim = system.sim
    handles = []

    def arrivals():
        base = sim.now
        for request in trace:
            if sim.now < base + request.at:
                yield sim.timeout(base + request.at - sim.now)
            try:
                handles.append(
                    gateway.submit(
                        request.prompt_tokens,
                        request.output_tokens,
                        priority=request.priority,
                        tenant=request.tenant,
                        prompt_spec=PromptSpec.from_fleet_request(request),
                    )
                )
            except AdmissionRejected:
                pass
        pending = [h.completion for h in handles if not h.completion.triggered]
        if pending:
            yield sim.all_of(pending)

    sim.run_until(sim.process(arrivals()))
    engine = system.ta.batch_engine
    rows = []
    for handle in handles:
        record = handle.record
        rows.append(
            (
                handle.state,
                handle.ttft,
                handle.first_token_at,
                record.kv_hit_tokens,
                record.decode.token_ids,
                record.decode.step_times,
                record.decode.attribution,
            )
        )
    coverage = {
        "resumes": engine.resumes,
        "hit_tokens": sum(h.record.kv_hit_tokens for h in handles),
    }
    return rows, obs.registry.render(), sim.now, coverage


def streaming_decode_run():
    platform = scale_platform(RK3588, "fast-flash", flash=8.0)
    system = TZLLM(TINYLLAMA, platform=platform, decode_param_residency=0.5)
    obs = instrument(system)
    system.run_infer(8, 0)
    record = system.run_infer(96, 24)
    stats = system.ta.cpu.stats
    row = (
        record.ttft,
        record.first_token_at,
        record.decode.token_ids,
        record.decode.step_times,
        record.decode.attribution,
    )
    # Decrypt sweeps of the decode-stream prefetch that had to queue
    # behind the decode's CPU work (non-zero wait on ``ta-cpu``).
    coverage = {"queued": sum(1 for wait in stats.wait_times if wait > 0)}
    return [row], obs.registry.render(), system.sim.now, coverage


@pytest.mark.parametrize("case", [batched_gateway_run, streaming_decode_run])
def test_real_stack_matches_per_op_stepping(
    case, per_op_reference, per_step_stepping, advance_tally, monkeypatch
):
    with advance_tally() as tally:
        shipped = case()
    with monkeypatch.context() as patch:
        patch.setattr(GraphExecutor, "execute", per_op_reference)
        per_op = case()
    with per_step_stepping():
        per_step = case()
    rows, render, end, coverage = shipped
    for ref_rows, ref_render, ref_end, ref_coverage in (per_op, per_step):
        assert rows == ref_rows
        assert render == ref_render
        assert end == ref_end
        assert coverage == ref_coverage
    # The cases must exercise what they claim to.
    assert rows
    assert tally[True] > 0
    if case is batched_gateway_run:
        assert coverage["resumes"] > 0 and coverage["hit_tokens"] > 0
        assert all(row[0] == "done" for row in rows)
    else:
        assert coverage["queued"] > 0
