"""The LLM trusted application: llama.cpp as a TA (§3.2, §5).

One TA instance owns two secure regions (§4.2):

* ``<model>:params`` — LLM parameters, grown by pipelined restoration in
  topological order, shrunk in reverse order after inference (partial
  parameter caching keeps a prefix resident);
* ``<model>:data`` — KV cache, activations, and NPU job execution
  contexts, allocated at inference start and fully released at the end.

An inference request runs: framework init (checkpoint restore, or cold
init on the first request) → the prompt's KV blocks, then the
KV/activation region that backs them → pipelined prefill → decode in the
TA's :class:`~repro.core.batch.DecodeBatchEngine` with secure NPU jobs →
data-region release and cache-policy-driven parameter release.  The
engine is the one decode path: by default it holds one sequence
(``BatchConfig(max_batch_size=1)``), the paper's one-request-at-a-time
TA; a larger batch size multiplexes decode across requests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

from ..config import PlatformSpec
from ..errors import ConfigurationError, StorageError
from ..faults.recovery import RecoveryPolicy
from ..hw.common import AddrRange
from ..llm.checkpoint import cold_init, restore_checkpoint, save_checkpoint
from ..llm.gguf import ModelContainer, container_path
from ..llm.graph import build_chunked_prefill_graph, build_prefill_graph
from ..llm.kv_cache import PagedKVCache, PromptSpec
from ..llm.models import ModelSpec
from ..llm.runtime import DecodeResult, TEECoDriverNPUBackend
from ..llm.tensors import build_tensor_table
from ..llm.tokenizer import Tokenizer
from ..sim import Resource
from ..stack import Stack
from ..tee.secure_memory import SecureRegion
from ..tee.ta import TrustedApplication
from .backends import TEERestoreBackend
from .batch import JOB_CONTEXT_BYTES, BatchConfig, DecodeBatchEngine, data_region_bytes
from .caching import CachePolicy, FractionCachePolicy
from .pipeline import PipelineConfig, PipelineMetrics, PrefillPipeline
from .restore_graph import RestorationPlan, build_restoration_plan

__all__ = ["InferenceRecord", "LLMTA", "PreemptionGate"]


def _restoration_plan(model: ModelSpec, tensors, granule: int, size_obfuscation) -> RestorationPlan:
    """The §4.1 restoration plan over ``tensors``, padded per the §6
    size-obfuscation setting (None = off, "uniform", or a quantum)."""
    planning_graph = build_prefill_graph(model, tensors, 1, use_npu=False)
    plan = build_restoration_plan(planning_graph, granule)
    if size_obfuscation is not None:
        from .obfuscation import apply_size_obfuscation

        quantum = None if size_obfuscation == "uniform" else int(size_obfuscation)
        apply_size_obfuscation(plan, quantum)
    return plan


class PreemptionGate:
    """One request's preemption surface (the serving-scale Fig. 13 path).

    The gateway hands the TA a gate per dispatch; requesting it makes the
    batch engine evict the sequence at the next token boundary, after
    which the TA returns a record marked ``preempted``.  At batch size
    one it first runs its normal release path (data region shrink,
    cache-policy parameter release); a batching TA parks the sequence's
    blocks instead.  Preemption is therefore always graceful: the TA
    stays serviceable and the cached parameter prefix survives for the
    victim's retry.

    The gate is callable: the batch engine calls it at every token
    boundary.
    """

    __slots__ = ("requested", "cause", "requested_at")

    def __init__(self):
        self.requested = False
        self.cause = None
        self.requested_at: Optional[float] = None

    def request(self, cause=None, at: Optional[float] = None) -> None:
        """Ask the running request to yield the TA (idempotent)."""
        if self.requested:
            return
        self.requested = True
        self.cause = cause
        self.requested_at = at

    def __call__(self) -> bool:
        return self.requested


@dataclass
class InferenceRecord:
    """What one inference request measured."""

    prompt_tokens: int
    output_tokens: int
    started_at: float
    ttft: float = 0.0
    init_time: float = 0.0
    data_setup_time: float = 0.0
    pipeline: Optional[PipelineMetrics] = None
    decode: Optional[DecodeResult] = None
    cached_groups: int = 0
    cached_bytes: int = 0
    release_time: float = 0.0
    #: NPU world-switch time and SMCs the platform spent while the
    #: request was in the TA (every concurrent request's included).
    world_switch_time: float = 0.0
    smc_count: int = 0
    #: §8 streaming-decode extension: bytes streamed per token and the
    #: number of prefetch sweeps issued.
    streamed_bytes_per_token: int = 0
    stream_sweeps: int = 0
    #: the request was preempted at a token boundary before finishing its
    #: decode (serving-gateway priority preemption); the partial decode is
    #: in ``decode`` and the TA ran its normal release path.
    preempted: bool = False
    #: preemption on a batching TA (``max_batch_size > 1``): the
    #: sequence's KV block list was *parked* instead of released — its
    #: tokens survive, and the resumed attempt continues the same stream
    #: (no work was wasted).
    parked: bool = False
    #: this attempt resumed a previously parked sequence (prefill and the
    #: partial decode were inherited, not re-run).
    resumed: bool = False
    #: absolute sim time of the first token — for a resumed attempt this
    #: is the *original* attempt's TTFT instant, which ``started_at +
    #: ttft`` can no longer express.
    first_token_at: Optional[float] = None
    #: gateway identity from the request's TraceContext (None for direct
    #: CA invocations) — keys the profiler's decode-attribution rows.
    request_id: Optional[int] = None
    #: shared-prefix accounting (prefix-sharing TAs only): prompt
    #: tokens taken as whole-block tree hits (zero compute), tokens
    #: seeded by copy-on-write, and the miss suffix that really
    #: prefilled.  ``hit + cow + miss == prompt_tokens`` when sharing
    #: served the request.
    kv_hit_tokens: int = 0
    kv_cow_tokens: int = 0
    kv_miss_tokens: int = 0

    @property
    def batched(self) -> bool:
        """Every request decodes through the TA's batch engine (perfbench
        reads this flag)."""
        return True

    @property
    def decode_tokens_per_second(self) -> float:
        return self.decode.tokens_per_second if self.decode else 0.0

    @property
    def decode_attribution(self) -> Optional[dict]:
        """Summed per-component decode attribution (None without decode)."""
        if self.decode is None or not self.decode.attribution:
            return None
        return self.decode.attribution_totals()


class LLMTA(TrustedApplication):
    """The inference framework running as a TA (llama.cpp's role)."""

    def __init__(
        self,
        stack: Stack,
        model: ModelSpec,
        container: ModelContainer,
        max_tokens: int = 1024,
        use_checkpoint: bool = True,
        use_npu: Union[bool, str] = True,
        decode_use_npu: Union[bool, str] = "auto",
        pipeline_config: Optional[PipelineConfig] = None,
        cache_policy: Optional[CachePolicy] = None,
        size_obfuscation=None,
        npu_duration_quantum: float = 0.0,
        decode_param_residency: float = 1.0,
        recovery: Optional["RecoveryPolicy"] = None,
        batch_config: Optional[BatchConfig] = None,
    ):
        super().__init__("llm-ta:" + model.model_id)
        #: §6 mitigations: None = off, "uniform" = pad groups to the
        #: largest, int = pad to that quantum; and the secure-job timing
        #: quantum (0 = off).
        self.size_obfuscation = size_obfuscation
        self.npu_duration_quantum = npu_duration_quantum
        #: §8 future-work extension (parameter offloading a la
        #: LLM-in-a-flash): fraction of parameter bytes kept resident
        #: during *decoding*; the rest streams from flash every token,
        #: double-buffered against computation.  1.0 = the paper's
        #: deployed behaviour (everything resident while decoding).
        if not 0.0 < decode_param_residency <= 1.0:
            raise ConfigurationError("decode_param_residency must be in (0, 1]")
        # No batch config: the paper's one-request-at-a-time TA.
        batch_config = batch_config or BatchConfig(max_batch_size=1)
        if decode_param_residency < 1.0 and batch_config.max_batch_size > 1:
            # A stream sweep evicts parameters that a concurrent prefill
            # or sequence still computes with.
            raise ConfigurationError(
                "decode_param_residency < 1 needs max_batch_size == 1"
            )
        self.decode_param_residency = decode_param_residency
        #: opt-in pipeline tracer (see :mod:`repro.sim.trace`).
        from ..sim.trace import NULL_TRACER

        self.tracer = NULL_TRACER
        #: observability attach points (repro.obs.instrument): a
        #: MetricsRegistry and FlightRecorder threaded into each prefill.
        self.metrics = None
        self.recorder = None
        self.stack = stack
        self.sim = stack.sim
        self.platform: PlatformSpec = stack.spec
        self.model = model
        self.container = container
        self.file_path = container_path(model.model_id)
        self.max_tokens = max_tokens
        self.use_checkpoint = use_checkpoint
        self.use_npu = use_npu
        self.decode_use_npu = decode_use_npu
        self.pipeline_config = pipeline_config or PipelineConfig()
        self.recovery = recovery or RecoveryPolicy()
        self.cache_policy = cache_policy or FractionCachePolicy(0.0)
        self.tokenizer = Tokenizer(model.model_id, model.vocab)
        #: the aggregate big-cluster CPU row for decode-phase execution.
        self.cpu = Resource(stack.sim, capacity=1, priority=True, name="ta-cpu")
        self._checkpoint_saved = False
        #: the decode engine (repro.core.batch) and the lock that
        #: serializes prefill (one §4.1 restoration pipeline at a time).
        self.batch_engine = DecodeBatchEngine(self, batch_config)
        self._prefill_lock = Resource(
            stack.sim, capacity=1, name="prefill-lock:" + model.model_id
        )
        #: framework state is resident while the batch engine has work.
        self._framework_resident = False
        #: gateway-held KV block reservations awaiting their dispatch.
        self._kv_reservations: Dict[int, int] = {}
        # Regions, plan and backends are wired by setup().
        self.plan: Optional[RestorationPlan] = None
        self.params_region: Optional[SecureRegion] = None
        self.data_region: Optional[SecureRegion] = None
        self.backend: Optional[TEERestoreBackend] = None
        self.model_key: Optional[bytes] = None
        #: secure NPU submitters, one co-driver sequence stream each.
        self.prefill_npu: Optional[TEECoDriverNPUBackend] = None
        self.decode_npu: Optional[TEECoDriverNPUBackend] = None

    # ------------------------------------------------------------------
    # one-time setup (TA install + secure regions + key unwrap)
    # ------------------------------------------------------------------
    def setup(self) -> None:
        stack = self.stack
        tee_os = stack.tee_os
        tee_os.install_ta(self)
        granule = stack.kernel.db.granule
        self.plan = _restoration_plan(
            self.model, self.container.tensors, granule, self.size_obfuscation
        )

        params_cma = stack.kernel.cma_regions[self._region_name("params")]
        if params_cma.size_bytes < self.plan.total_alloc_bytes:
            raise ConfigurationError(
                "params CMA region too small: %d < %d"
                % (params_cma.size_bytes, self.plan.total_alloc_bytes)
            )
        self.params_region = tee_os.create_secure_region(
            self,
            self._region_name("params"),
            self._region_name("params"),
            params_cma.base_addr,
            params_cma.size_bytes,
            granule,
        )
        data_cma = stack.kernel.cma_regions[self._region_name("data")]
        self.data_region = tee_os.create_secure_region(
            self,
            self._region_name("data"),
            self._region_name("data"),
            data_cma.base_addr,
            data_cma.size_bytes,
            granule,
        )
        # The NPU may access exactly the two job-context regions (§4.3).
        stack.tee_npu.allowed_slots = [
            self.params_region.tzasc_slot,
            self.data_region.tzasc_slot,
        ]
        self.model_key = tee_os.unwrap_key_for(
            self, self.container.wrapped_key, self.model.model_id
        )
        self.backend = TEERestoreBackend(
            self.sim,
            self.platform,
            self.params_region,
            stack.tz_driver,
            self.container,
            self.file_path,
            self.model_key,
        )
        # Prefill pipelines submit from the first half of the job-context
        # area, the decode stepper from the second (§4.3).
        half = JOB_CONTEXT_BYTES // 2
        self.prefill_npu, self.decode_npu = (
            TEECoDriverNPUBackend(
                stack.tee_npu,
                AddrRange(self.data_region.base_addr + offset, half),
                duration_quantum=self.npu_duration_quantum,
                job_timeout=self.recovery.npu_job_timeout,
                max_reissues=self.recovery.npu_max_reissues,
            )
            for offset in (0, half)
        )

    def _region_name(self, kind: str) -> str:
        return "%s:%s" % (self.model.model_id, kind)

    @staticmethod
    def cma_requirements(
        model: ModelSpec,
        granule: int,
        max_tokens: int,
        size_obfuscation=None,
        batch_config: Optional[BatchConfig] = None,
    ):
        """(params_bytes, data_bytes) the kernel must reserve at boot.

        Sized from the model's tensor table, which fixes every size the
        packed container will carry, so nothing is packed or encrypted
        before the device stack exists."""
        plan = _restoration_plan(model, build_tensor_table(model), granule, size_obfuscation)
        batch_config = batch_config or BatchConfig(max_batch_size=1)
        budget = batch_config.resolved_budget(max_tokens)
        data = data_region_bytes(model, max_tokens, batch_config.block_tokens, budget)
        return plan.total_alloc_bytes, -(-data // granule) * granule

    # ------------------------------------------------------------------
    # cache state
    # ------------------------------------------------------------------
    @property
    def cached_groups(self) -> int:
        if self.plan is None or self.params_region is None:
            return 0
        return self.plan.groups_for_bytes(self.params_region.protected)

    @property
    def kv_bytes_in_use(self) -> int:
        """Logical KV footprint: every block of the batch engine's pool
        (active *and* parked).  The leak-regression tests pin this to
        zero after any faulted inference."""
        return self.batch_engine.pool.bytes_used

    # ------------------------------------------------------------------
    # KV admission surface (called synchronously by gateway dispatch)
    # ------------------------------------------------------------------
    def kv_can_admit(
        self, prompt_tokens: int, output_tokens: int, request_id=None, spec=None
    ) -> bool:
        return self.batch_engine.can_admit(prompt_tokens, output_tokens, request_id, spec)

    def kv_reserve(
        self, request_id: int, prompt_tokens: int, output_tokens: int, spec=None
    ) -> None:
        """Hold the request's worst-case block count from dispatch until
        its attempt builds (or resumes) its paged cache.  With sharing
        and a :class:`PromptSpec`, only the predicted non-shared block
        count is held."""
        blocks = self.batch_engine.reserve(prompt_tokens, output_tokens, request_id, spec)
        if blocks:
            self._kv_reservations[request_id] = blocks

    def flush_kv_cache(self):
        """Drop every cached-but-unreferenced KV block (generator):
        flush the prefix tree, then shrink the data region if the TA is
        now fully drained.  Returns the number of residencies dropped."""
        if self.batch_engine.tree is None:
            return 0
        dropped = self.batch_engine.tree.flush()
        yield from self.batch_engine.maybe_release_region()
        return dropped

    # ------------------------------------------------------------------
    # the inference entry point
    # ------------------------------------------------------------------
    def infer(
        self,
        prompt_tokens: int,
        output_tokens: int = 0,
        preempt: Optional[PreemptionGate] = None,
        ctx=None,
        prompt: Optional[PromptSpec] = None,
    ):
        """Serve one inference request (generator; returns the record).

        Without sharing, prefill serializes through the TA's prefill lock
        (one §4.1 restoration pipeline at a time); decode joins the TA's
        :class:`~repro.core.batch.DecodeBatchEngine` and co-executes with
        every other in-flight sequence (none at the default batch size
        of one).  With ``prefix_sharing`` and a :class:`PromptSpec`, the
        prompt's blocks are taken through the prefix tree — whole-block
        hits by reference, divergent tails copy-on-write — and only the
        miss suffix computes: on a fully-cached TA it runs as bounded
        chunks *inside* the decode batch (no prefill lock at all), and
        on a cold TA the restoration pipeline prices just the chunked
        miss-suffix graph.  Block release is guaranteed exactly once by
        the try/finally — unless the sequence parked, in which case the
        checkpoint owns the blocks until resume.

        ``preempt`` — an optional :class:`PreemptionGate`; when requested
        mid-decode, the request stops at the next token boundary and
        marks its record ``preempted``.  At batch size one it releases
        transient memory normally; a batching TA parks the KV block list
        keyed by the gateway request id, and the resumed attempt skips
        init and prefill and continues the parked stream.

        ``ctx`` — an optional :class:`~repro.obs.TraceContext`: the
        request's identity from the serving gateway, threaded into the
        prefill pipeline so its flow events link the gateway arrival to
        the TEE-lane spans that served it.

        ``prompt`` — an optional :class:`PromptSpec` describing the
        prompt's shareable structure, used by ``prefix_sharing`` TAs.
        """
        request_id = None if ctx is None else ctx.request_id
        try:
            if self.plan is None:
                raise ConfigurationError("setup() was not called")
            if prompt_tokens + output_tokens > self.max_tokens:
                raise ConfigurationError("request exceeds max_tokens")
            if prompt is not None and prompt.prompt_tokens != prompt_tokens:
                raise ConfigurationError(
                    "prompt spec covers %d tokens but the request claims %d"
                    % (prompt.prompt_tokens, prompt_tokens)
                )
        except ConfigurationError:
            # A rejected request never reaches the cache that would
            # consume its gateway-held KV blocks: hand them back.
            blocks = self._kv_reservations.pop(request_id, 0)
            if blocks:
                self.batch_engine.pool.cancel_reservation(blocks, owner="r%s" % request_id)
            raise
        sim = self.sim
        engine = self.batch_engine
        switch0 = self.stack.tee_npu.world_switch_time
        smc0 = self.stack.board.monitor.smc_count
        record = InferenceRecord(
            prompt_tokens=prompt_tokens,
            output_tokens=output_tokens,
            started_at=sim.now,
            cached_groups=self.cached_groups,
            cached_bytes=self.params_region.protected,
            request_id=request_id,
        )
        parked = None
        if request_id is not None:
            # Look up only: rejoin() owns the exactly-once removal from
            # the parked map (atomically with the checkpoint restore).
            parked = engine.parked.get(request_id)
        reserved = 0
        if request_id is not None and parked is None:
            reserved = self._kv_reservations.pop(request_id, 0)
        sharing = engine.tree is not None and prompt is not None and parked is None
        engine.inflight += 1
        kv: Optional[PagedKVCache] = None
        parked_out = False
        seq = None
        if request_id is not None:
            # Owner attribution for the memory timeline: the tenant
            # rides in on the cross-world trace context.
            tenant = getattr(ctx, "tenant", None) or "-"
            owner = "%s/r%s" % (tenant, request_id)
        else:
            owner = ""

        def take_prompt(spec: Optional[PromptSpec]):
            """Build the request's paged cache on its gateway hold and take
            the prompt's blocks: through the prefix tree for ``spec``
            (recording hit, cow and miss tokens; returns the
            :class:`ShareResult`), else freshly allocated."""
            nonlocal kv, reserved
            kv = PagedKVCache(engine.pool, reserved_blocks=reserved, owner=owner)
            reserved = 0  # the cache owns the hold now
            if spec is None:
                kv.init_prompt(prompt_tokens)
                return None
            share = kv.init_prompt_shared(spec, engine.tree)
            record.kv_hit_tokens = share.hit_tokens
            record.kv_cow_tokens = share.cow_tokens
            record.kv_miss_tokens = share.miss_tokens
            return share

        def set_up_data():
            """Back the job context, scratch and the prompt's blocks, pay
            the KV/activation set-up, then re-snapshot the cache state
            (generator): a concurrent request's pipeline may have loaded
            (and protected) groups since this record was created, and
            re-loading a protected group would trap."""
            t0 = sim.now
            yield from engine.ensure_backing()
            yield sim.timeout(self.platform.timing.kv_activation_alloc)
            record.data_setup_time = sim.now - t0
            record.cached_groups = self.cached_groups
            record.cached_bytes = self.params_region.protected

        try:
            if parked is not None:
                record.resumed = True
                record.ttft = parked.ttft
                record.first_token_at = parked.first_token_at or None
                kv = parked.kv
                seq = engine.rejoin(parked, gate=preempt)
                yield seq.done
            elif sharing and self._framework_resident and (
                self.cached_groups >= len(self.plan.groups)
            ):
                # Hot path: every parameter group is resident, so there
                # is nothing to restore and nothing serializes on the
                # prefill lock.  Shared blocks arrive by reference; the
                # miss suffix prefills as chunks inside the decode batch.
                share = take_prompt(prompt)
                yield from set_up_data()
                if output_tokens > 0 or share.miss_tokens > 0:
                    seq = engine.join(
                        kv,
                        prompt_tokens,
                        output_tokens,
                        gate=preempt,
                        request_id=request_id,
                        prefill_tokens=share.miss_tokens,
                    )
                    yield seq.done
                else:
                    # Fully shared prompt-only request: resident is done.
                    record.ttft = sim.now - record.started_at
                    record.first_token_at = sim.now
            else:
                stream = None
                lock_request = self._prefill_lock.request()
                yield lock_request
                try:
                    t0 = sim.now
                    if not self._framework_resident:
                        yield from self._init_framework()
                        self._framework_resident = True
                    record.init_time = sim.now - t0
                    # The prompt's blocks first, then the region that
                    # backs them, so prefill writes KV only into
                    # protected memory (§4.2: set-up grows with the
                    # prompt).  Shared blocks are taken by reference, so
                    # the pipeline only prices the miss suffix
                    # (restoration still overlaps what compute remains).
                    share = take_prompt(prompt if sharing else None)
                    # Under the lock, so the re-snapshot sees every group
                    # a concurrent pipeline protected.
                    yield from set_up_data()
                    if share is not None:
                        graph = build_chunked_prefill_graph(
                            self.model,
                            self.container.tensors,
                            max(share.miss_tokens, 1),
                            context_tokens=(
                                share.hit_tokens + share.cow_tokens
                                if share.miss_tokens
                                else 0
                            ),
                            use_npu=self.use_npu,
                            platform=self.platform,
                        )
                    else:
                        graph = build_prefill_graph(
                            self.model,
                            self.container.tensors,
                            prompt_tokens,
                            use_npu=self.use_npu,
                            platform=self.platform,
                        )
                    try:
                        yield from self._prefill(graph, record, ctx)
                    except Exception:
                        # Under the lock, the ballooned tail the TZASC
                        # never covered can only be this pipeline's.
                        yield from self.params_region.release_unprotected_tail()
                        yield from self._recover()
                        raise
                    record.ttft = sim.now - record.started_at
                    record.first_token_at = sim.now
                    if output_tokens > 0 and self.decode_param_residency < 1.0:
                        stream = yield from self._enter_streaming_decode(record)
                finally:
                    self._prefill_lock.release(lock_request)
                if output_tokens > 0:
                    seq = engine.join(
                        kv,
                        prompt_tokens,
                        output_tokens,
                        gate=preempt,
                        request_id=request_id,
                        stream=stream,
                    )
                    yield seq.done
            if seq is not None:
                if seq.state == "failed":
                    yield from self._recover()
                    raise seq.error
                if record.first_token_at is None and seq.prefill_done_at is not None:
                    # Chunked in-batch prefill: TTFT anchors on the
                    # moment the prompt became fully resident.
                    record.ttft = seq.prefill_done_at - record.started_at
                    record.first_token_at = seq.prefill_done_at
                record.decode = seq.result(stopped_early=(seq.state == "evicted"))
                if seq.state == "evicted":
                    record.preempted = True
                    if engine.parked.get(request_id) is seq:
                        record.parked = True
                        seq.ttft = record.ttft
                        if record.first_token_at is not None:
                            seq.first_token_at = record.first_token_at
                        parked_out = True
            if (
                kv is not None
                and engine.tree is not None
                and not parked_out
                and (seq is None or seq.state == "finished")
            ):
                # Publish the prompt-span residencies only after the
                # miss suffix really prefilled — a faulted or evicted
                # attempt must not poison the tree.
                kv.publish(engine.tree)
        finally:
            engine.inflight -= 1
            if reserved:
                # The attempt died before its cache consumed the hold.
                engine.pool.cancel_reservation(
                    reserved,
                    owner="" if request_id is None else "r%s" % request_id,
                )
            if kv is not None and not parked_out:
                kv.release()
            release_t0 = sim.now
            yield from engine.maybe_release_region()

        # --- drain-time release (params stay resident while any other
        # sequence — active, waiting, or parked — still needs them) -----
        if not (engine.inflight or engine.active or engine.waiting or engine.parked):
            self._framework_resident = False
            yield from self.revoke_cache(self.cache_policy.bytes_to_keep(self))
        record.release_time += sim.now - release_t0
        record.world_switch_time = self.stack.tee_npu.world_switch_time - switch0
        record.smc_count = self.stack.board.monitor.smc_count - smc0
        return self._finish(record)

    def _prefill(self, graph, record: InferenceRecord, ctx):
        """Run the §4.1 restoration pipeline over ``graph`` from the
        record's cached prefix (generator); its metrics land on
        ``record.pipeline``."""
        pipeline = PrefillPipeline(
            self.sim,
            self.platform,
            graph,
            self.plan,
            self.backend,
            self.prefill_npu,
            cached_groups=record.cached_groups,
            config=self.pipeline_config,
            recovery=self.recovery,
            tracer=self.tracer,
            registry=self.metrics,
            recorder=self.recorder,
            ctx=ctx,
        )
        record.pipeline = yield from pipeline.run()

    def _finish(self, record: InferenceRecord) -> InferenceRecord:
        """Count the request's decode attribution."""
        totals = record.decode_attribution
        if totals is not None and self.metrics is not None:
            counter = self.metrics.counter(
                "decode_attribution_seconds_total",
                "Decode latency per component (cpu/npu_compute/smc/sched_wait)",
            )
            for component, value in sorted(totals.items()):
                counter.inc(value, component=component)
        return record

    def _recover(self):
        """Error-path cleanup for a failed attempt (generator).

        A failed restoration may have protected a group whose decryption
        never ran, so no cached prefix can be trusted as plaintext: once
        nothing else can need the parameters — this is the TA's only
        attempt and no sequence is active, waiting or parked — release
        them all and start clean.  KV blocks the pool or the prefix tree
        hold do not count: they need no parameters."""
        engine = self.batch_engine
        if engine.inflight == 1 and not (engine.active or engine.waiting or engine.parked):
            self._framework_resident = False
            yield from self.backend.release_to(0)

    def _enter_streaming_decode(self, record: "InferenceRecord"):
        """Shrink parameter memory to the residency target and return a
        per-token hook that streams + decrypts the evicted suffix,
        double-buffered against the current token's computation
        (generator; the §8 offloading extension)."""
        sim = self.sim
        plan = self.plan
        target = int(plan.total_alloc_bytes * self.decode_param_residency)
        keep_groups = plan.groups_for_bytes(target)
        keep_bytes = plan.cached_prefix_bytes(keep_groups)
        streamed_nominal = sum(
            g.nominal_bytes for g in plan.groups[keep_groups:]
        )
        t0 = sim.now
        yield from self.backend.release_to(keep_bytes)
        record.release_time += sim.now - t0
        record.streamed_bytes_per_token = streamed_nominal
        if streamed_nominal == 0:
            return None
        fs = self.stack.kernel.fs
        decrypt_seconds = self.backend.decrypt_duration(streamed_nominal, 4)

        def stream_once():
            # Flash I/O for the evicted suffix (one sweep), then decrypt.
            yield from fs.read(self.file_path, 0, 0, nominal=streamed_nominal)
            request = self.cpu.request()
            yield request
            try:
                yield sim.timeout(decrypt_seconds)
            finally:
                self.cpu.release(request)

        state = {"pending": None}

        def streaming_hook():
            # This token needs its sweep complete before computing: the
            # first token fetches synchronously; later tokens wait on the
            # prefetch issued during the previous token.
            if state["pending"] is None:
                yield sim.process(stream_once(), name="decode-stream")
            else:
                yield state["pending"]
            # Prefetch the next token's sweep so it overlaps computation.
            state["pending"] = sim.process(stream_once(), name="decode-stream")
            record.stream_sweeps += 1

        return streaming_hook

    def _init_framework(self):
        timing = self.platform.timing
        fs = self.stack.kernel.fs
        if self.use_checkpoint:
            if not self._checkpoint_saved:
                # First-ever start: cold init, then persist the state.
                yield from cold_init(self.sim, timing)
                yield from save_checkpoint(
                    self.sim,
                    timing,
                    fs,
                    self.model.model_id,
                    self.model_key,
                    len(self.container.tensors),
                )
                self._checkpoint_saved = True
            else:
                attempts = self.recovery.flash_read_attempts
                for attempt in range(1, attempts + 1):
                    try:
                        yield from restore_checkpoint(
                            self.sim, timing, fs, self.model.model_id, self.model_key
                        )
                        break
                    except StorageError:
                        if attempt == attempts:
                            raise
                        if self.recorder is not None:
                            self.recorder.record(
                                "retry", "ta.checkpoint_restore",
                                "retrying checkpoint restore",
                                attempt=attempt, of=attempts,
                            )
                        yield self.sim.timeout(self.recovery.backoff(attempt))
        else:
            yield from cold_init(self.sim, timing)

    # ------------------------------------------------------------------
    # memory-pressure interface (the REE may ask for memory back, §4.1)
    # ------------------------------------------------------------------
    def revoke_cache(self, target_bytes: int):
        """Shrink the cached parameter prefix to the whole groups that
        fit in ``target_bytes`` (generator).  The REE calls it on memory
        pressure; every request's release calls it with the cache
        policy's target."""
        groups = self.plan.groups_for_bytes(target_bytes)
        keep = self.plan.cached_prefix_bytes(groups)
        yield from self.backend.release_to(keep)
