"""Offline prefix-sharing opportunity analyzer (ROADMAP: KV reuse).

The analyzer measures what shared-prefix KV reuse inside the TEE saves
on a multi-tenant fleet trace (:func:`~repro.workloads.fleet
.generate_fleet_trace`).  It replays the trace one request at a time
through the serving path's own bookkeeping: each model gets a
:class:`~repro.llm.kv_cache.KVBlockPool` and :class:`~repro.llm
.kv_cache.PrefixTree`, as each TA owns its pool, and each request runs
``init_prompt_shared``, ``publish`` and ``release`` on a fresh
:class:`~repro.llm.kv_cache.PagedKVCache`.  Block keys, the whole-block
hit rules and LRU eviction are therefore the TA's, defined once in
:mod:`repro.llm.kv_cache`:

* the shared prefix hits by *content*, so any request carrying the same
  system prompt reuses blocks a previous request already prefilled;
* conversation context hits by *stream position*, so only a later turn
  of the same session reuses it, and only inside the replayed context.

``cache_blocks`` bounds each model's pool; ``cache_blocks=None`` sizes
each pool so that nothing is evicted (the no-capacity-limit upper
bound).  Savings are priced with :func:`~repro.llm.ops.prefill_seconds`,
the analytic prefill model the fleet surrogate uses, so "saved prefill
seconds" and the projected TTFT deltas are directly comparable to
simulated fleet timings.

Deliberately *not* modeled: cross-tenant sharing.  Prefix ids are
minted per tenant upstream, so a hit never crosses a tenant boundary —
matching the paper's isolation stance (§3.1: per-model, per-tenant
protection domains).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import ConfigurationError
from ..llm.kv_cache import KVBlockPool, PagedKVCache, PrefixTree, PromptSpec
from ..llm.ops import prefill_seconds
from .metrics import mean, percentile
from .tables import render_table

__all__ = ["PrefixShareReport", "TenantShareRow", "analyze_prefix_sharing"]


@dataclass
class TenantShareRow:
    """Per-tenant accumulator of the replay."""

    tenant: str
    requests: int = 0
    prompt_tokens: int = 0
    hit_tokens: int = 0
    prefix_hit_tokens: int = 0
    session_hit_tokens: int = 0
    saved_seconds: float = 0.0

    @property
    def hit_rate(self) -> float:
        return self.hit_tokens / self.prompt_tokens if self.prompt_tokens else 0.0

    def to_dict(self) -> Dict:
        return {
            "requests": self.requests,
            "prompt_tokens": self.prompt_tokens,
            "hit_tokens": self.hit_tokens,
            "prefix_hit_tokens": self.prefix_hit_tokens,
            "session_hit_tokens": self.session_hit_tokens,
            "hit_rate": round(self.hit_rate, 6),
            "saved_prefill_seconds": round(self.saved_seconds, 9),
        }


@dataclass
class PrefixShareReport:
    """What block-granular KV sharing would have saved on a trace."""

    block_tokens: int
    cache_blocks: Optional[int]
    requests: int
    prompt_tokens: int
    hit_tokens: int
    prefix_hit_tokens: int
    session_hit_tokens: int
    saved_prefill_seconds: float
    baseline_prefill_seconds: float
    evictions: int
    #: per-request projected TTFT improvement (the saved prefill time),
    #: in trace order — feed to percentile() for the tail view.
    ttft_deltas: List[float] = field(default_factory=list)
    tenants: Dict[str, TenantShareRow] = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        """Fraction of offered prompt tokens already cached."""
        return self.hit_tokens / self.prompt_tokens if self.prompt_tokens else 0.0

    @property
    def saved_fraction(self) -> float:
        """Fraction of baseline prefill time sharing would remove."""
        if self.baseline_prefill_seconds <= 0:
            return 0.0
        return self.saved_prefill_seconds / self.baseline_prefill_seconds

    def ttft_delta(self, p: float) -> float:
        """Projected TTFT improvement at percentile ``p`` (seconds)."""
        return percentile(self.ttft_deltas, p) if self.ttft_deltas else 0.0

    def to_dict(self) -> Dict:
        return {
            "schema": "repro.analysis.prefix_share/1",
            "block_tokens": self.block_tokens,
            "cache_blocks": self.cache_blocks,
            "requests": self.requests,
            "prompt_tokens": self.prompt_tokens,
            "hit_tokens": self.hit_tokens,
            "prefix_hit_tokens": self.prefix_hit_tokens,
            "session_hit_tokens": self.session_hit_tokens,
            "hit_rate": round(self.hit_rate, 6),
            "saved_prefill_seconds": round(self.saved_prefill_seconds, 9),
            "baseline_prefill_seconds": round(self.baseline_prefill_seconds, 9),
            "saved_fraction": round(self.saved_fraction, 6),
            "evictions": self.evictions,
            "ttft_delta_mean": round(mean(self.ttft_deltas), 9) if self.ttft_deltas else 0.0,
            "ttft_delta_p50": round(self.ttft_delta(50), 9),
            "ttft_delta_p95": round(self.ttft_delta(95), 9),
            "tenants": {t: row.to_dict() for t, row in sorted(self.tenants.items())},
        }

    def render(self) -> str:
        rows = []
        for tenant in sorted(self.tenants):
            row = self.tenants[tenant]
            rows.append([
                tenant,
                row.requests,
                row.prompt_tokens,
                "%.1f%%" % (100 * row.hit_rate),
                row.prefix_hit_tokens,
                row.session_hit_tokens,
                "%.2f" % row.saved_seconds,
            ])
        rows.append([
            "TOTAL",
            self.requests,
            self.prompt_tokens,
            "%.1f%%" % (100 * self.hit_rate),
            self.prefix_hit_tokens,
            self.session_hit_tokens,
            "%.2f" % self.saved_prefill_seconds,
        ])
        title = (
            "prefix-sharing opportunity (block=%d tok, cache=%s blocks): "
            "%.1f%% of prefill time avoidable, TTFT -%.3fs p50 / -%.3fs p95"
            % (
                self.block_tokens,
                "inf" if self.cache_blocks is None else str(self.cache_blocks),
                100 * self.saved_fraction,
                self.ttft_delta(50),
                self.ttft_delta(95),
            )
        )
        return render_table(
            ["tenant", "reqs", "prompt tok", "hit%", "prefix hits",
             "session hits", "saved s"],
            rows, title=title,
        )


def analyze_prefix_sharing(
    trace,
    models,
    platform,
    block_tokens: int = 16,
    cache_blocks: Optional[int] = 8192,
    use_npu: bool = True,
) -> PrefixShareReport:
    """Replay ``trace`` through one block pool and prefix tree per model.

    ``trace`` is a sequence of :class:`~repro.workloads.fleet
    .FleetRequest` (or anything with the same fields); ``models`` a
    :class:`~repro.llm.models.ModelSpec` list covering the trace's
    ``model_id``\\ s; ``platform`` the :class:`~repro.config
    .PlatformSpec` used to price saved prefill work.  ``cache_blocks``
    bounds each model's pool (LRU eviction of unreferenced blocks);
    ``None`` sizes each pool so that nothing is ever evicted.
    """
    by_model = {m.model_id: m for m in models}
    replay = [(request, PromptSpec.from_fleet_request(request)) for request in trace]
    demand: Dict[str, int] = {}
    for request, spec in replay:
        blocks = spec.worst_case_blocks(block_tokens)
        if cache_blocks is not None and blocks > cache_blocks:
            raise ConfigurationError(
                "a prompt of session %r needs %d KV blocks but cache_blocks is %d"
                % (request.session_id, blocks, cache_blocks)
            )
        demand[request.model_id] = demand.get(request.model_id, 0) + blocks
    trees = {
        model_id: PrefixTree(KVBlockPool(
            by_model[model_id], block_tokens,
            max(1, blocks) if cache_blocks is None else cache_blocks,
        ))
        for model_id, blocks in demand.items()
    }
    report = PrefixShareReport(
        block_tokens=block_tokens,
        cache_blocks=cache_blocks,
        requests=0,
        prompt_tokens=0,
        hit_tokens=0,
        prefix_hit_tokens=0,
        session_hit_tokens=0,
        saved_prefill_seconds=0.0,
        baseline_prefill_seconds=0.0,
        evictions=0,
    )

    for request, spec in replay:
        tree = trees[request.model_id]
        kv = PagedKVCache(tree.pool)
        share = kv.init_prompt_shared(spec, tree)
        kv.publish(tree)
        kv.release()

        model = tree.pool.model
        prompt = request.prompt_tokens
        full = prefill_seconds(platform, model, prompt, use_npu)
        residual = prefill_seconds(platform, model, prompt - share.hit_tokens, use_npu)
        saved = max(0.0, full - residual)
        report.ttft_deltas.append(saved)
        row = report.tenants.get(request.tenant)
        if row is None:
            row = report.tenants[request.tenant] = TenantShareRow(request.tenant)
        for acc in (report, row):
            acc.requests += 1
            acc.prompt_tokens += prompt
            acc.hit_tokens += share.hit_tokens
            acc.prefix_hit_tokens += share.prefix_hit_tokens
            acc.session_hit_tokens += share.session_hit_tokens
        report.baseline_prefill_seconds += full
        report.saved_prefill_seconds += saved
        row.saved_seconds += saved

    report.evictions = sum(tree.evictions for tree in trees.values())
    return report
