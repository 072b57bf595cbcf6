"""Tests for the computation DAG, cost model, and graph executor."""

import pytest

from repro.config import RK3588
from repro.errors import ConfigurationError
from repro.hw import AddrRange, Board
from repro.llm import (
    Engine,
    GraphExecutor,
    DirectNPUBackend,
    MODELS,
    REEDriverNPUBackend,
    build_batched_decode_graph,
    build_prefill_graph,
    build_tensor_table,
    decode_tokens,
    get_model,
    op_duration,
)
from repro.llm.graph import attention_ops, size_decode_attention
from repro.ree.npu_driver import REENPUDriver
from repro.sim import Resource, Simulator

PLATFORM = RK3588
SPEC = get_model("llama-3-8b-q8")
TABLE = build_tensor_table(SPEC)


def total_time(graph, include_launch=True):
    total = 0.0
    for op in graph.ops:
        total += op_duration(op.flops, op.bytes_touched, PLATFORM, op.engine)
        if include_launch and op.engine == Engine.NPU:
            total += PLATFORM.npu.job_launch_latency
    return total


def test_prefill_graph_structure():
    graph = build_prefill_graph(SPEC, TABLE, 128, use_npu=True)
    assert len(graph) == 1 + 5 * SPEC.n_layers + 2
    graph.validate()
    # The graph is a chain.
    for index, op in enumerate(graph.ops):
        assert op.deps == ([] if index == 0 else [index - 1])
    # All parameter tensors appear exactly once, in file order.
    assert [t.name for op in graph.ops for t in op.tensors] == [t.name for t in TABLE]


def test_cpu_only_prefill_hits_paper_anchor():
    graph = build_prefill_graph(SPEC, TABLE, 512, use_npu=False)
    assert all(op.engine == Engine.CPU for op in graph.ops)
    assert total_time(graph) == pytest.approx(164.0, rel=0.02)


def test_npu_prefill_speedup_hits_paper_anchor():
    cpu = total_time(build_prefill_graph(SPEC, TABLE, 512, use_npu=False))
    npu = total_time(build_prefill_graph(SPEC, TABLE, 512, use_npu=True))
    assert cpu / npu == pytest.approx(12.5, rel=0.05)


def test_npu_placement_only_matmuls():
    graph = build_prefill_graph(SPEC, TABLE, 64, use_npu=True)
    for op in graph.ops:
        if op.engine == Engine.NPU:
            assert "proj" in op.name or op.name == "lm_head"
        if "attention" in op.name or "norm" in op.name:
            assert op.engine == Engine.CPU


def test_decode_auto_engine_gain_increases_with_model_size():
    gains = {}
    for model_id in ("tinyllama-1.1b-q8", "llama-3-8b-q8"):
        spec = get_model(model_id)
        table = build_tensor_table(spec)
        cpu = total_time(build_batched_decode_graph(spec, table, [128], use_npu=False, platform=PLATFORM))
        auto = total_time(build_batched_decode_graph(spec, table, [128], use_npu="auto", platform=PLATFORM))
        gains[model_id] = cpu / auto - 1.0
    # Paper §7.1.2: decode gains are modest, and bandwidth-bound decode
    # benefits large models more than small ones.
    assert 0.0 <= gains["tinyllama-1.1b-q8"] < 0.05
    assert 0.10 < gains["llama-3-8b-q8"] < 0.30


@pytest.mark.parametrize("kv_tokens", [1, 7, 128, 1000])
@pytest.mark.parametrize("use_npu", [True, False, "auto"])
@pytest.mark.parametrize("model_id", sorted(MODELS))
def test_batch_of_one_decode_graph_is_the_single_stream_graph(model_id, use_npu, kv_tokens):
    """Single-stream decode builds the fused graph over one sequence; it
    must equal, op for op, the one-token prefill chain with attention
    priced over the KV cache (the former single-stream builder)."""
    spec = MODELS[model_id]
    table = build_tensor_table(spec)
    reference = build_prefill_graph(spec, table, 1, use_npu=use_npu, platform=PLATFORM)
    size_decode_attention(spec, attention_ops(reference), [kv_tokens])
    graph = build_batched_decode_graph(spec, table, [kv_tokens], use_npu=use_npu, platform=PLATFORM)

    def fields(op):
        return (op.op_id, op.name, op.engine, op.layer, op.flops,
                op.bytes_touched, op.tensors, op.deps)

    assert [fields(op) for op in graph.ops] == [fields(op) for op in reference.ops]


def test_decode_npu_speedup_anchor_1_3x():
    # Raw NPU-vs-CPU bandwidth ratio shows through for big matmuls.
    assert PLATFORM.npu.mem_bandwidth / PLATFORM.cpu.mem_bandwidth == pytest.approx(1.3, rel=0.01)


def test_auto_requires_platform():
    with pytest.raises(ConfigurationError):
        build_prefill_graph(SPEC, TABLE, 8, use_npu="auto")


def test_zero_token_prompt_rejected():
    with pytest.raises(ConfigurationError):
        build_prefill_graph(SPEC, TABLE, 0)


def test_executor_runs_graph_on_sim_clock():
    sim = Simulator()
    cpu = Resource(sim, capacity=1, priority=True)
    backend = DirectNPUBackend(sim, PLATFORM)
    executor = GraphExecutor(sim, PLATFORM, cpu, backend)
    graph = build_prefill_graph(SPEC, TABLE, 32, use_npu=True)

    proc = sim.process(executor.execute(graph))
    sim.run_until(proc)
    assert sim.now == pytest.approx(total_time(graph), rel=1e-6)
    assert executor.cpu_busy_time > 0
    assert executor.npu_wait_time > 0


def test_executor_through_ree_driver_contends_for_npu():
    sim = Simulator()
    board = Board(sim, PLATFORM)
    driver = REENPUDriver(sim, board)
    cpu = Resource(sim, capacity=1, priority=True)
    ctx = AddrRange(0, 4096)
    executor = GraphExecutor(sim, PLATFORM, cpu, REEDriverNPUBackend(driver, ctx))
    graph = build_prefill_graph(get_model("tinyllama-1.1b-q8"),
                                build_tensor_table(get_model("tinyllama-1.1b-q8")),
                                32, use_npu=True)
    proc = sim.process(executor.execute(graph))
    sim.run_until(proc)
    assert driver.jobs_launched == sum(1 for op in graph.ops if op.engine == Engine.NPU)


def test_decode_loop_grows_kv_and_counts_tokens():
    sim = Simulator()
    cpu = Resource(sim, capacity=1, priority=True)
    executor = GraphExecutor(sim, PLATFORM, cpu, DirectNPUBackend(sim, PLATFORM))
    spec = get_model("tinyllama-1.1b-q8")
    table = build_tensor_table(spec)

    proc = sim.process(decode_tokens(executor, spec, table, 128, 8, use_npu="auto"))
    result = sim.run_until(proc)
    assert len(result.token_ids) == 8
    assert len(result.step_times) == 8
    assert result.tokens_per_second > 0
    # Later steps are (weakly) slower: attention reads a longer KV cache.
    assert result.step_times[-1] >= result.step_times[0]


def test_decode_deterministic_tokens():
    from repro.llm import sample_token

    a = [sample_token("m", i, 32000) for i in range(5)]
    b = [sample_token("m", i, 32000) for i in range(5)]
    assert a == b
    assert len(set(a)) > 1
