"""The prefix-sharing analyzer is a replay through the TA's prefix tree."""

from dataclasses import replace

import pytest

from repro.analysis import analyze_prefix_sharing
from repro.config import RK3588
from repro.errors import ConfigurationError
from repro.llm import TINYLLAMA, KVBlockPool, PagedKVCache, PromptSpec
from repro.llm.kv_cache import PrefixTree
from repro.llm.ops import prefill_seconds
from repro.workloads import FleetTenantSpec, generate_fleet_trace

B = 16
CHAT = replace(TINYLLAMA, model_id="chat-1.1b")
MAIL = replace(TINYLLAMA, model_id="mail-1.1b")
MODELS = [CHAT, MAIL]
TENANTS = [
    FleetTenantSpec(
        "chat", CHAT.model_id, "interactive", sessions_per_hour=120.0,
        mean_turns=4.0, mean_think_time=20.0, stickiness=1.0,
        prefix_tokens=6 * B, prefix_pool=2, output_tokens=(4, 12),
    ),
    FleetTenantSpec(
        "mail", MAIL.model_id, "batch", sessions_per_hour=60.0,
        workload="personachat", mean_turns=2.0, mean_think_time=40.0,
        stickiness=0.5, prefix_tokens=4 * B, prefix_pool=1,
        output_tokens=(8, 16),
    ),
]
TRACE = generate_fleet_trace(900.0, TENANTS, seed=5)
CACHE_BLOCKS = 80


def hand_replay(trace, cache_blocks):
    """The analyzer's contract written out: one pool and tree per model,
    and each request shares, publishes and releases in trace order."""
    by_model = {m.model_id: m for m in MODELS}
    trees = {
        model_id: PrefixTree(KVBlockPool(model, B, cache_blocks))
        for model_id, model in by_model.items()
    }
    totals = {"hit": 0, "prefix": 0, "session": 0, "saved": 0.0}
    tenants = {}
    deltas = []
    for request in trace:
        tree = trees[request.model_id]
        kv = PagedKVCache(tree.pool)
        share = kv.init_prompt_shared(PromptSpec.from_fleet_request(request), tree)
        kv.publish(tree)
        kv.release()
        model = by_model[request.model_id]
        full = prefill_seconds(RK3588, model, request.prompt_tokens, True)
        saved = full - prefill_seconds(
            RK3588, model, request.prompt_tokens - share.hit_tokens, True
        )
        deltas.append(saved)
        totals["hit"] += share.hit_tokens
        totals["prefix"] += share.prefix_hit_tokens
        totals["session"] += share.session_hit_tokens
        totals["saved"] += saved
        tenants[request.tenant] = tenants.get(request.tenant, 0) + share.hit_tokens
    evictions = sum(tree.evictions for tree in trees.values())
    for tree in trees.values():
        tree.pool.check_conservation()
        assert tree.pool.active_blocks == 0 and tree.pool.reserved == 0
    return totals, tenants, deltas, evictions


def test_report_equals_a_hand_written_tree_replay_on_a_bounded_trace():
    assert len({r.model_id for r in TRACE}) == 2
    totals, tenants, deltas, evictions = hand_replay(TRACE, CACHE_BLOCKS)
    assert evictions > 0  # the bound really bites

    report = analyze_prefix_sharing(
        TRACE, MODELS, RK3588, block_tokens=B, cache_blocks=CACHE_BLOCKS
    )
    assert report.requests == len(TRACE)
    assert report.hit_tokens == totals["hit"] > 0
    assert report.prefix_hit_tokens == totals["prefix"] > 0
    assert report.session_hit_tokens == totals["session"] > 0
    assert report.hit_tokens == report.prefix_hit_tokens + report.session_hit_tokens
    assert report.evictions == evictions
    assert report.ttft_deltas == deltas
    assert report.saved_prefill_seconds == pytest.approx(totals["saved"])
    assert {t: row.hit_tokens for t, row in report.tenants.items()} == tenants
    for key in ("requests", "prompt_tokens", "hit_tokens",
                "prefix_hit_tokens", "session_hit_tokens"):
        assert sum(getattr(row, key) for row in report.tenants.values()) == \
            getattr(report, key)


def test_unbounded_replay_never_evicts_and_keeps_every_hit():
    bounded = analyze_prefix_sharing(
        TRACE, MODELS, RK3588, block_tokens=B, cache_blocks=CACHE_BLOCKS
    )
    unbounded = analyze_prefix_sharing(
        TRACE, MODELS, RK3588, block_tokens=B, cache_blocks=None
    )
    assert unbounded.evictions == 0
    assert unbounded.cache_blocks is None
    assert unbounded.hit_tokens > bounded.hit_tokens


def test_bound_below_the_largest_prompt_raises():
    largest = max(
        PromptSpec.from_fleet_request(r).worst_case_blocks(B) for r in TRACE
    )
    with pytest.raises(ConfigurationError):
        analyze_prefix_sharing(
            TRACE, MODELS, RK3588, block_tokens=B, cache_blocks=largest - 1
        )
    report = analyze_prefix_sharing(
        TRACE, MODELS, RK3588, block_tokens=B, cache_blocks=largest
    )
    assert report.requests == len(TRACE)
