"""Continuous batching: the one decode path of the TEE (vLLM/Orca-style).

Every LLM TA decodes through one :class:`DecodeBatchEngine`, which runs
every in-flight sequence through a shared fused
:class:`~repro.llm.runtime.GraphExecutor` step, admitting new sequences
from a waiting queue at token boundaries.  The paper's TA serves one
inference at a time (§4.2): that is the engine at ``max_batch_size=1``,
the default.  There a preempted sequence releases its blocks and the
gateway restarts the request, so the data region is fully released
after each request (Fig. 7b).  A larger engine instead evicts a
preempted sequence by *parking* its KV blocks (the block list survives;
resume re-joins the batch without re-running prefill).

Memory stays inside the paper's model: all KV blocks live in the second
TZASC region, which still only ever grows at its end (to the pool's
high-water mark) and shrinks all the way back when the TA is fully
drained — the free-list reuse absorbs per-sequence churn *inside* the
protected span, so the §4.2 no-fragmentation property is preserved
(see ``docs/batching.md``).

Prefill is not batched: requests serialize through the TA's prefill
lock (one restoration pipeline at a time, exactly the paper's §4.1
machinery), then join the decode batch.  The prefill pipelines and the
decode stepper each submit NPU jobs from their own half of the data
region's job-context area (:data:`JOB_CONTEXT_BYTES`), so each is its
own sequence stream at the TEE co-driver and keeps at most one job in
flight there; how the REE interleaves the two streams on the one NPU is
its scheduling choice (§4.3).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..errors import ConfigurationError, OutOfMemory
from ..llm.graph import (
    ComputationGraph,
    ComputeOp,
    attention_ops,
    build_batched_decode_graph,
    build_chunked_prefill_graph,
    size_decode_attention,
)
from ..llm.kv_cache import (
    BlockCheckpoint,
    KVBlockPool,
    PagedKVCache,
    PrefixTree,
    PromptSpec,
)
from ..llm.models import ModelSpec
from ..llm.runtime import DecodeResult, GraphExecutor, sample_token
from ..sim import Resource

__all__ = [
    "BatchConfig",
    "BatchedSequence",
    "DecodeBatchEngine",
]

#: NPU job execution contexts at the start of every TA's data region: the
#: first half for the TA's prefill pipelines, the second for its decode
#: stepper (one co-driver sequence stream each).
JOB_CONTEXT_BYTES = 4096


def data_region_bytes(
    model: ModelSpec, max_tokens: int, block_tokens: int, blocks: int
) -> int:
    """The data region's layout (§4.2) up to ``blocks`` KV blocks: the job
    contexts, then activation scratch for ``max_tokens``, then the block
    span."""
    scratch = model.activation_bytes(max_tokens)
    return JOB_CONTEXT_BYTES + scratch + blocks * model.kv_bytes(block_tokens)


@dataclass
class BatchConfig:
    """Continuous-batching knobs for one TA."""

    #: sequences decoding concurrently in one fused step.
    max_batch_size: int = 4
    #: tokens per KV block (the paged-KV granularity).
    block_tokens: int = 16
    #: total KV block budget; ``None`` sizes it so ``max_batch_size``
    #: worst-case (``max_tokens``-long) sequences fit simultaneously.
    budget_blocks: Optional[int] = None
    #: share whole KV blocks across prompts with common prefixes
    #: (refcounted copy-on-write pages + a prefix tree on the pool).
    prefix_sharing: bool = False
    #: max tokens one chunked-prefill step computes inside the running
    #: decode batch (only used on the sharing path's miss suffix).
    prefill_chunk_tokens: int = 64

    def __post_init__(self):
        if self.max_batch_size < 1:
            raise ConfigurationError("max_batch_size must be positive")
        if self.block_tokens < 1:
            raise ConfigurationError("block_tokens must be positive")
        if self.budget_blocks is not None and self.budget_blocks < 1:
            raise ConfigurationError("budget_blocks must be positive")
        if self.prefill_chunk_tokens < 1:
            raise ConfigurationError("prefill_chunk_tokens must be positive")

    def resolved_budget(self, max_tokens: int) -> int:
        if self.budget_blocks is not None:
            return self.budget_blocks
        per_seq = -(-max_tokens // self.block_tokens)
        return self.max_batch_size * per_seq


@dataclass
class BatchedSequence:
    """One sequence's decode state, from its first join to its last
    retirement: an evicted sequence is parked as itself and rejoins as
    itself."""

    model_id: str
    kv: PagedKVCache
    prompt_tokens: int
    #: total new tokens this sequence must generate (across park/resume).
    target_tokens: int
    #: sim Event, succeeds when the sequence leaves the batch (fresh per join).
    done: object = None
    gate: Optional[object] = None  # PreemptionGate (callable) or None
    request_id: Optional[int] = None
    #: §8 parameter streaming: a generator-producing callable run inside
    #: each fused step's wall time, before its compute (None = resident).
    stream: Optional[Callable] = None
    #: decode-step index, global across park/resume — it keys
    #: ``sample_token``, which is what makes a resumed stream identical
    #: to an unpreempted one.
    step_index: int = 0
    token_ids: List[int] = field(default_factory=list)
    step_times: List[float] = field(default_factory=list)
    attribution: List[dict] = field(default_factory=list)
    state: str = "waiting"  # waiting | active | finished | evicted | failed
    error: Optional[BaseException] = None
    joined_at: float = 0.0
    #: miss-suffix tokens still to prefill in-batch (sharing path); the
    #: sequence decodes only once this reaches zero.
    prefill_remaining: int = 0
    #: sim time the prompt became fully resident (TTFT anchor).
    prefill_done_at: Optional[float] = None
    #: the block list a park checkpointed; resume validates against it.
    checkpoint: Optional[BlockCheckpoint] = None
    #: original-attempt timing, re-reported on the resumed record so the
    #: gateway's TTFT reflects the *first* token, not the resume.
    ttft: float = 0.0
    first_token_at: float = 0.0
    parked_at: float = 0.0

    @property
    def remaining(self) -> int:
        return self.target_tokens - len(self.token_ids)

    def result(self, stopped_early: bool = False) -> DecodeResult:
        """A copy of the decode so far: a parked sequence keeps growing
        these lists once it resumes."""
        return DecodeResult(
            token_ids=list(self.token_ids),
            step_times=list(self.step_times),
            attribution=[dict(a) for a in self.attribution],
            stopped_early=stopped_early,
        )


class DecodeBatchEngine:
    """The continuous-batching decode scheduler for one LLM TA.

    A single stepper process runs while any sequence is active: each
    iteration it (1) evicts sequences whose preemption gate fired —
    parking their block lists, (2) admits waiting sequences up to
    ``max_batch_size``, (3) pre-allocates this step's KV growth and
    extends the data region to the pool's high-water mark, (4) executes
    one fused batched decode step, and (5) retires finished sequences.
    Everything is driven by deques and the sim clock — no RNG — so
    batched serving stays deterministic end to end.
    """

    def __init__(self, ta, config: BatchConfig):
        self.ta = ta
        self.sim = ta.sim
        self.config = config
        self.pool = KVBlockPool(
            ta.model, config.block_tokens, config.resolved_budget(ta.max_tokens)
        )
        #: content-addressed residency index over the pool's blocks
        #: (``None`` when sharing is off, at zero overhead).
        self.tree: Optional[PrefixTree] = (
            PrefixTree(self.pool) if config.prefix_sharing else None
        )
        #: job execution contexts + worst-case activation scratch, laid
        #: out ahead of the block span in the data region.
        self.fixed_bytes = data_region_bytes(ta.model, ta.max_tokens, config.block_tokens, 0)
        #: serializes data-region growth: two interleaved extensions
        #: would both observe the old end and balloon the same frames.
        self._backing_lock = Resource(
            self.sim, capacity=1, name="backing-lock:" + ta.model.model_id
        )
        self.waiting: Deque[BatchedSequence] = deque()
        self.active: List[BatchedSequence] = []
        #: evicted sequences keyed by request id, awaiting :meth:`rejoin`.
        self.parked: Dict[int, BatchedSequence] = {}
        self._stepper = None
        #: infer() attempts currently inside the TA (prefill or decode);
        #: the data region may only shrink when this reaches zero.
        self.inflight = 0
        self._executor: Optional[GraphExecutor] = None
        #: fused decode graph and its attention ops, per batch size.
        self._decode_graphs: Dict[int, Tuple[ComputationGraph, List[ComputeOp]]] = {}
        # engine-level stats (also exported through ta.metrics when set)
        self.steps = 0
        self.tokens_generated = 0
        #: summed fused-step wall time: tokens_generated / busy_time is
        #: the engine's aggregate decode throughput.
        self.busy_time = 0.0
        self.occupancy_steps: Dict[int, int] = {}
        self.kv_extends = 0
        self.evictions = 0
        self.resumes = 0
        self.prefill_chunks = 0
        self.prefill_tokens = 0
        #: summed chunked-prefill wall time (decode busy_time excluded).
        self.prefill_busy_time = 0.0

    # ------------------------------------------------------------------
    # admission-side budget (called synchronously from gateway dispatch)
    # ------------------------------------------------------------------
    def blocks_needed(
        self,
        prompt_tokens: int,
        output_tokens: int,
        spec: Optional[PromptSpec] = None,
    ) -> int:
        """Worst-case fresh blocks a request may allocate.  With sharing
        on and a :class:`PromptSpec`, predicted whole-block prefix/session
        hits are subtracted — admission budgets only the *non-shared*
        part of the prompt (a shared block costs a ref, not a block)."""
        if spec is not None and self.tree is not None:
            worst = spec.worst_case_blocks(self.config.block_tokens, output_tokens)
            return max(0, worst - self.tree.probe(spec))
        return self.pool.blocks_for_tokens(prompt_tokens + output_tokens)

    def can_admit(
        self, prompt_tokens: int, output_tokens: int, request_id=None, spec=None
    ) -> bool:
        """Budget check for dispatch: a parked sequence already holds its
        blocks (plus leftover hold), so resuming always fits."""
        if request_id is not None and request_id in self.parked:
            return True
        return self.pool.can_admit(self.blocks_needed(prompt_tokens, output_tokens, spec))

    def reserve(
        self, prompt_tokens: int, output_tokens: int, request_id=None, spec=None
    ) -> int:
        """Hold a request's worst-case block count until its cache
        consumes it.  Returns the held count (0 for a parked resume)."""
        if request_id is not None and request_id in self.parked:
            return 0
        blocks = self.blocks_needed(prompt_tokens, output_tokens, spec)
        self.pool.reserve(
            blocks, owner="" if request_id is None else "r%s" % request_id
        )
        return blocks

    # ------------------------------------------------------------------
    # joining the batch
    # ------------------------------------------------------------------
    def join(
        self,
        kv: PagedKVCache,
        prompt_tokens: int,
        target_tokens: int,
        gate=None,
        request_id=None,
        prefill_tokens: int = 0,
        stream=None,
    ) -> BatchedSequence:
        """Queue a sequence for decode; returns the sequence whose
        ``done`` event fires when it finishes, evicts, or fails.  A
        nonzero ``prefill_tokens`` enters the sequence still owing that
        many miss-suffix tokens of in-batch chunked prefill; ``stream``
        is its per-token parameter-streaming hook."""
        seq = BatchedSequence(
            model_id=self.ta.model.model_id,
            kv=kv,
            prompt_tokens=prompt_tokens,
            target_tokens=target_tokens,
            request_id=request_id,
            prefill_remaining=prefill_tokens,
            stream=stream,
        )
        return self._enqueue(seq, gate)

    def _enqueue(self, seq: BatchedSequence, gate) -> BatchedSequence:
        """Queue ``seq`` for a decode attempt (a first join or a resume)."""
        seq.done = self.sim.event()
        seq.gate = gate
        seq.state = "waiting"
        seq.joined_at = self.sim.now
        seq.prefill_done_at = self.sim.now if seq.prefill_remaining <= 0 else None
        self.waiting.append(seq)
        if self._stepper is None:
            self._stepper = self.sim.process(
                self._run(), name="batch-decode:" + self.ta.model.model_id
            )
        return seq

    def rejoin(self, parked: BatchedSequence, gate=None) -> BatchedSequence:
        """Resume a parked sequence: restore its checkpointed block list
        and re-queue it, decode state intact, under a fresh ``done``
        event and ``gate``.

        Restore -> unpark -> re-queue is atomic with respect to the
        parked map: the entry is removed exactly once, *after* the
        checkpoint validated.  A terminal restore failure (checkpoint
        divergence) drops the entry and releases the blocks — a parked
        sequence whose resume can never succeed must not strand its
        memory."""
        if self.parked.get(parked.request_id) is not parked:
            raise ConfigurationError(
                "rejoin of request %r which is not parked" % (parked.request_id,)
            )
        try:
            parked.kv.restore(parked.checkpoint)
        except BaseException:
            self.parked.pop(parked.request_id, None)
            parked.kv.release()
            raise
        self.parked.pop(parked.request_id, None)
        self.resumes += 1
        return self._enqueue(parked, gate)

    def park(self, seq: BatchedSequence, at: float) -> BatchedSequence:
        """Checkpoint an evicted sequence's blocks and keep the sequence
        under its request id until :meth:`rejoin`."""
        seq.checkpoint = seq.kv.park()
        seq.parked_at = at
        self.parked[seq.request_id] = seq
        return seq

    # ------------------------------------------------------------------
    # data-region backing (end-grown to the pool's high-water mark)
    # ------------------------------------------------------------------
    def backing_bytes_needed(self) -> int:
        ta = self.ta
        granule = ta.data_region.granule
        needed = data_region_bytes(
            ta.model, ta.max_tokens, self.config.block_tokens, self.pool.backing_blocks
        )
        return -(-needed // granule) * granule

    def ensure_backing(self):
        """Extend the data region to cover every allocated block
        (generator; the §4.2 mid-decode growth path, batched)."""
        region = self.ta.data_region
        if self.backing_bytes_needed() <= region.allocated:
            return
        request = self._backing_lock.request()
        yield request
        try:
            # Re-check under the lock: a concurrent grower may have
            # covered this need while we queued.
            needed = self.backing_bytes_needed()
            if needed > region.allocated:
                delta = needed - region.allocated
                yield from region.extend_allocated(delta, threads=1)
                yield from region.extend_protected(delta)
                self.kv_extends += 1
        finally:
            self._backing_lock.release(request)

    def maybe_release_region(self):
        """Shrink the data region once the TA is fully drained
        (generator).  End-only TZASC shrink means nothing can release
        while any sequence — active or parked — still owns blocks."""
        if (
            self.inflight == 0
            and self.pool.used_blocks == 0
            and not self.active
            and not self.waiting
            and self.ta.data_region.allocated > 0
        ):
            yield from self.ta.data_region.shrink_all()

    # ------------------------------------------------------------------
    # the stepper
    # ------------------------------------------------------------------
    def _retire(self, seq: BatchedSequence, state: str, error=None) -> None:
        seq.state = state
        seq.error = error
        seq.done.succeed(seq)

    def _sweep_gates(self) -> None:
        """Token-boundary preemption: evict gated sequences.  A batching
        engine parks the ones the gateway can resume (a request identity
        is required to key the parked checkpoint).  At
        ``max_batch_size == 1`` a victim is not parked: its attempt
        releases its blocks and the gateway restarts it, as the paper's
        TA does, so no request holds the data region across requests."""
        park = self.config.max_batch_size > 1
        for queue in (self.active, self.waiting):
            for seq in [s for s in queue if s.gate is not None and s.gate()]:
                queue.remove(seq)
                self.evictions += 1
                if park and seq.request_id is not None:
                    self.park(seq, self.sim.now)
                self._retire(seq, "evicted")

    def _admit(self) -> None:
        while self.waiting and len(self.active) < self.config.max_batch_size:
            seq = self.waiting.popleft()
            seq.state = "active"
            self.active.append(seq)

    def _prealloc_growth(self) -> None:
        """Allocate this step's KV growth up front so the region can be
        extended before compute touches it; a pool-exhausted sequence
        fails alone instead of sinking the whole batch.  Sequences still
        prefilling own their whole prompt span already and generate no
        token this step, so they are skipped."""
        for seq in list(self.active):
            if seq.prefill_remaining > 0:
                continue
            try:
                seq.kv.ensure_capacity(seq.kv.tokens + 1)
            except OutOfMemory as exc:
                self.active.remove(seq)
                self._retire(seq, "failed", error=exc)

    def _note_step(self, occupancy: int, step_time: float) -> None:
        self.steps += 1
        self.tokens_generated += occupancy
        self.busy_time += step_time
        self.occupancy_steps[occupancy] = self.occupancy_steps.get(occupancy, 0) + 1
        metrics = self.ta.metrics
        model = self.ta.model.model_id
        if metrics is not None:
            metrics.gauge(
                "batch_occupancy", "Sequences in the current fused decode step"
            ).set(occupancy, model=model)
            metrics.counter(
                "batch_steps_total", "Fused decode steps by batch occupancy"
            ).inc(model=model, occupancy=str(occupancy))
            metrics.counter(
                "batch_tokens_total", "Tokens generated by the batched decode path"
            ).inc(occupancy, model=model)
        self.ta.tracer.counter("batch_occupancy:%s" % model, occupancy)

    def _prefill_chunk(self, seq: BatchedSequence):
        """One bounded chunked-prefill step for ``seq`` (generator).

        The blocks already exist (taken through the prefix tree at
        admission); this computes the KV content of the next
        ``prefill_chunk_tokens`` miss-suffix positions, attending over
        everything already resident — shared hits plus earlier chunks."""
        ta = self.ta
        executor = self._executor
        chunk = min(self.config.prefill_chunk_tokens, seq.prefill_remaining)
        context = seq.prompt_tokens - seq.prefill_remaining
        graph = build_chunked_prefill_graph(
            ta.model,
            ta.container.tensors,
            chunk,
            context_tokens=context,
            use_npu=ta.use_npu,
            platform=ta.platform,
        )
        start = self.sim.now
        try:
            yield from executor.execute(graph)
        except Exception as exc:
            # A faulted chunk fails this sequence alone: its infer()
            # re-raises and releases the blocks; decoders keep going.
            if seq in self.active:
                self.active.remove(seq)
            self._retire(seq, "failed", error=exc)
            return
        self.prefill_chunks += 1
        self.prefill_tokens += chunk
        self.prefill_busy_time += self.sim.now - start
        seq.prefill_remaining -= chunk
        if seq.prefill_remaining <= 0:
            seq.prefill_remaining = 0
            seq.prefill_done_at = self.sim.now
            if seq.remaining <= 0:
                # Prompt-only request: fully resident is fully done.
                self.active.remove(seq)
                self._retire(seq, "finished")

    def _decode_graph(self, kv_token_counts: List[int]) -> ComputationGraph:
        """The fused decode graph for this step's batch.

        Only attention depends on the context lengths, so one graph per
        batch size is built on first use and kept; each step re-sizes its
        attention operators, as single-stream decode does.
        """
        entry = self._decode_graphs.get(len(kv_token_counts))
        if entry is None:
            ta = self.ta
            graph = build_batched_decode_graph(
                ta.model,
                ta.container.tensors,
                kv_token_counts,
                use_npu=ta.decode_use_npu,
                platform=ta.platform,
            )
            self._decode_graphs[len(kv_token_counts)] = (graph, attention_ops(graph))
            return graph
        graph, attention = entry
        size_decode_attention(self.ta.model, attention, kv_token_counts)
        return graph

    def _run(self):
        """The stepper process: one fused decode step over the resident
        sequences, then at most one bounded prefill chunk for the oldest
        still-prefilling sequence, per iteration."""
        ta = self.ta
        if self._executor is None:
            self._executor = GraphExecutor(self.sim, ta.platform, ta.cpu, ta.decode_npu)
        executor = self._executor
        try:
            while True:
                self._sweep_gates()
                self._admit()
                if not self.active:
                    break
                self._prealloc_growth()
                if not self.active:
                    continue
                yield from self.ensure_backing()
                batch = [s for s in self.active if s.prefill_remaining <= 0]
                if batch:
                    graph = self._decode_graph([seq.kv.tokens for seq in batch])
                    try:
                        # Only a B=1 engine streams parameters (LLMTA
                        # refuses streaming with batching), so a
                        # streaming step computes one sequence.
                        step_time, attribution = yield from executor.step(
                            graph, batch[0].stream
                        )
                    except Exception as exc:
                        # A faulted fused step (TEE job hang, watchdog)
                        # fails every sequence it was computing: each
                        # waiting infer() re-raises the error and its
                        # finally block releases that sequence's KV
                        # blocks — the engine itself must not strand
                        # them.  Sequences still prefilling were not in
                        # the step and survive.
                        for seq in batch:
                            if seq in self.active:
                                self.active.remove(seq)
                            self._retire(seq, "failed", error=exc)
                        continue
                    # Fair-share attribution: each sequence carries an
                    # equal slice of the fused step, so summed
                    # attributions across the batch reconstruct the wall
                    # time.
                    share = 1.0 / len(batch)
                    attribution = {key: value * share for key, value in attribution.items()}
                    self._note_step(len(batch), step_time)
                    for seq in batch:
                        seq.token_ids.append(
                            sample_token(seq.model_id, seq.step_index, ta.model.vocab)
                        )
                        seq.step_index += 1
                        seq.step_times.append(step_time)
                        seq.attribution.append(dict(attribution))
                        seq.kv.append_token()
                        if seq.remaining <= 0:
                            self.active.remove(seq)
                            self._retire(seq, "finished")
                prefilling = [s for s in self.active if s.prefill_remaining > 0]
                if prefilling:
                    yield from self._prefill_chunk(prefilling[0])
        finally:
            self._stepper = None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def occupancy_mean(self) -> float:
        if self.steps == 0:
            return 0.0
        return self.tokens_generated / self.steps

    def to_dict(self) -> dict:
        return {
            "steps": self.steps,
            "tokens_generated": self.tokens_generated,
            "busy_time": self.busy_time,
            "mean_occupancy": self.occupancy_mean(),
            "occupancy_steps": {str(k): v for k, v in sorted(self.occupancy_steps.items())},
            "kv_extends": self.kv_extends,
            "evictions": self.evictions,
            "resumes": self.resumes,
            "parked": len(self.parked),
            "prefill_chunks": self.prefill_chunks,
            "prefill_chunk_tokens": self.prefill_tokens,
            "prefill_busy_time": self.prefill_busy_time,
            "pool": {
                "block_tokens": self.pool.block_tokens,
                "total_blocks": self.pool.total_blocks,
                "used_blocks": self.pool.used_blocks,
                "reserved": self.pool.reserved,
                "backing_blocks": self.pool.backing_blocks,
                "cached_blocks": self.pool.cached_blocks,
                "shared_saved_blocks": self.pool.shared_saved_blocks,
                "cows": self.pool.cows,
            },
            "prefix_tree": None if self.tree is None else self.tree.to_dict(),
        }
