"""Tests for restoration planning (§4.1 DAG extension)."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MiB
from repro.core import build_restoration_plan
from repro.errors import ConfigurationError
from repro.llm import build_prefill_graph, build_tensor_table, get_model

SPEC = get_model("tinyllama-1.1b-q8")
TABLE = build_tensor_table(SPEC)
GRAPH = build_prefill_graph(SPEC, TABLE, 1, use_npu=False)


def test_plan_layout_is_contiguous_and_ordered():
    plan = build_restoration_plan(GRAPH, MiB)
    offset = 0
    for group in plan.groups:
        assert group.region_offset == offset
        assert group.alloc_bytes % MiB == 0
        assert group.alloc_bytes >= group.nominal_bytes
        offset += group.alloc_bytes
    assert plan.total_alloc_bytes == offset


def test_plan_covers_every_tensor_once():
    plan = build_restoration_plan(GRAPH, MiB)
    names = [t.name for g in plan.groups for t in g.tensors]
    assert sorted(names) == sorted(t.name for t in TABLE)
    assert len(names) == len(set(names))


def test_plan_groups_in_topological_order():
    plan = build_restoration_plan(GRAPH, MiB)
    earliest = [min(g.compute_op_ids) for g in plan.groups]
    assert earliest == sorted(earliest)
    # Every parameter-consuming op maps to a group.
    for op in GRAPH.ops:
        if op.tensors:
            assert op.op_id in plan.group_for_op


def test_small_norm_groups_fused_into_neighbors():
    plan = build_restoration_plan(GRAPH, MiB)
    # No group should be a lone tiny norm tensor (they fuse forward).
    for group in plan.groups:
        assert group.nominal_bytes >= MiB or group is plan.groups[-1]
    # Fused groups serve several compute ops.
    multi = [g for g in plan.groups if len(g.compute_op_ids) > 1]
    assert multi


def test_alloc_overhead_from_alignment_is_small():
    plan = build_restoration_plan(GRAPH, MiB)
    overhead = plan.total_alloc_bytes / plan.total_nominal_bytes - 1.0
    assert overhead < 0.05


def test_group_lookup_by_bytes_roundtrip():
    plan = build_restoration_plan(GRAPH, MiB)
    for k in (0, 1, len(plan.groups) // 2, len(plan.groups)):
        prefix = plan.cached_prefix_bytes(k)
        assert plan.groups_for_bytes(prefix) == k
    with pytest.raises(ConfigurationError):
        plan.cached_prefix_bytes(len(plan.groups) + 1)


def test_dense_model_has_no_speculative_bytes():
    plan = build_restoration_plan(GRAPH, MiB)
    assert plan.speculative_bytes == 0


def test_moe_prefetches_all_experts():
    """The §4.1 limitation: non-determinism makes the planner prefetch
    experts that this inference may never route to."""
    moe = replace(SPEC, model_id="moe-test", n_experts=4, experts_per_token=1)
    table = build_tensor_table(moe)
    graph = build_prefill_graph(moe, table, 1, use_npu=False)
    plan = build_restoration_plan(graph, MiB)
    assert plan.speculative_bytes > 0
    # All experts of each layer are in the plan even though only one is
    # activated per token.
    expert_tensors = [t for g in plan.groups for t in g.tensors if t.expert >= 0]
    assert len(expert_tensors) == moe.n_layers * 4
    # Speculative fraction = 3 of 4 experts' FFN bytes.
    ffn_total = sum(t.nominal_bytes for t in expert_tensors)
    assert plan.speculative_bytes == pytest.approx(ffn_total * 3 / 4, rel=1e-6)


def test_invalid_granule_rejected():
    with pytest.raises(ConfigurationError):
        build_restoration_plan(GRAPH, 0)


@given(granule_mib=st.sampled_from([1, 2, 4, 8]), fuse_mib=st.sampled_from([0, 1, 4]))
@settings(max_examples=12, deadline=None)
def test_plan_invariants_hold_for_any_granule(granule_mib, fuse_mib):
    granule = granule_mib * MiB
    plan = build_restoration_plan(GRAPH, granule, fuse_below=fuse_mib * MiB or None)
    # FILO layout invariants survive any configuration.
    offset = 0
    for group in plan.groups:
        assert group.region_offset == offset
        offset += group.alloc_bytes
    assert plan.total_nominal_bytes == sum(t.nominal_bytes for t in TABLE)
    assert plan.groups_for_bytes(plan.total_alloc_bytes) == len(plan.groups)
    assert plan.groups_for_bytes(0) == 0
