"""Tests for the §6 side-channel mitigations (size/timing obfuscation)."""

import pytest

from repro.config import MiB
from repro.core import TZLLM
from repro.core.obfuscation import apply_size_obfuscation
from repro.core.restore_graph import build_restoration_plan
from repro.errors import ConfigurationError
from repro.llm import TINYLLAMA, build_prefill_graph, build_tensor_table, container_path
from repro.llm.runtime import quantize_duration


def make_plan():
    table = build_tensor_table(TINYLLAMA)
    graph = build_prefill_graph(TINYLLAMA, table, 1, use_npu=False)
    return build_restoration_plan(graph, MiB)


def test_uniform_padding_makes_all_groups_equal():
    plan = make_plan()
    sizes_before = {g.alloc_bytes for g in plan.groups}
    assert len(sizes_before) > 1  # there was something to leak
    apply_size_obfuscation(plan, None)
    sizes_after = {g.alloc_bytes for g in plan.groups}
    assert len(sizes_after) == 1
    # Layout is still contiguous.
    offset = 0
    for group in plan.groups:
        assert group.region_offset == offset
        offset += group.alloc_bytes


def test_quantum_padding_coarsens_sizes():
    plan = make_plan()
    quantum = 16 * MiB
    apply_size_obfuscation(plan, quantum)
    for group in plan.groups:
        assert group.alloc_bytes % quantum == 0
        assert group.alloc_bytes >= group.nominal_bytes


def test_bad_quantum_rejected():
    plan = make_plan()
    with pytest.raises(ConfigurationError):
        apply_size_obfuscation(plan, MiB + 1)
    with pytest.raises(ConfigurationError):
        apply_size_obfuscation(plan, 0)


def test_quantize_duration():
    assert quantize_duration(0.003, 0.005) == pytest.approx(0.005)
    assert quantize_duration(0.005, 0.005) == pytest.approx(0.005)
    assert quantize_duration(0.0051, 0.005) == pytest.approx(0.010)
    assert quantize_duration(0.003, 0.0) == 0.003  # disabled


# ---------------------------------------------------------------------------
# end to end: what does the REE actually observe?
# ---------------------------------------------------------------------------
def _observed_sizes(system):
    """(alloc sizes, load nominal sizes) visible to the REE."""
    path = container_path(TINYLLAMA.model_id)
    allocs = [
        size
        for region, size in system.stack.tz_driver.alloc_observations
        if "params" in region
    ]
    loads = [
        nominal
        for p, _off, _size, nominal in system.stack.kernel.fs.request_log
        if p == path and nominal
    ]
    return allocs, loads


def test_without_obfuscation_the_ree_sees_tensor_structure():
    system = TZLLM(TINYLLAMA)
    system.run_infer(8, 0)
    _allocs, loads = _observed_sizes(system)
    # Distinct per-tensor load sizes leak the model's layer structure.
    assert len(set(loads)) > 3


def test_uniform_obfuscation_closes_the_size_channel():
    system = TZLLM(TINYLLAMA, size_obfuscation="uniform")
    system.run_infer(8, 0)
    _allocs, loads = _observed_sizes(system)
    # Every delegated load the REE sees is the same size.
    assert len(set(loads)) == 1
    # And the result is still a correct inference (decryption verified).
    record = system.run_infer(32, 2)
    assert record.decode.token_ids


def test_obfuscation_costs_memory_and_io():
    plain = TZLLM(TINYLLAMA)
    padded = TZLLM(TINYLLAMA, size_obfuscation="uniform")
    assert padded.ta.plan.total_alloc_bytes > 1.5 * plain.ta.plan.total_alloc_bytes
    plain.run_infer(8, 0)
    padded.run_infer(8, 0)
    r_plain = plain.run_infer(32, 0)
    r_padded = padded.run_infer(32, 0)
    # Dummy loading costs real TTFT: the mitigation is not free.
    assert r_padded.pipeline.io_time > 1.3 * r_plain.pipeline.io_time


def test_npu_duration_quantum_uniformizes_job_times():
    system = TZLLM(
        TINYLLAMA, cache_fraction=1.0, decode_use_npu=True, npu_duration_quantum=0.004
    )
    system.run_infer(8, 0)
    system.run_infer(32, 0)
    jobs_before = system.stack.board.npu.jobs_completed
    busy_before = system.stack.board.npu.busy_time
    system.run_infer(32, 4)
    jobs = system.stack.board.npu.jobs_completed - jobs_before
    busy = system.stack.board.npu.busy_time - busy_before
    # Every secure job's duration is a multiple of the quantum.
    assert jobs > 0
    assert busy / 0.004 == pytest.approx(round(busy / 0.004), abs=1e-6)
