"""The evaluated systems (§7 baselines), wired end to end.

* :class:`TZLLM` — the paper's system: LLM TA in the TEE, pipelined
  restoration over CMA-ballooned secure memory, co-driver NPU, framework
  checkpointing, partial parameter caching.  Feature flags expose every
  ablation the evaluation needs; :func:`strawman` builds the cold-start
  baseline (no pipeline, no NPU, no checkpoint).
* :class:`REELLM` — the unprotected llama.cpp baselines: ``memory`` mode
  (parameters resident; the theoretical best) and ``flash`` mode
  (pipelined restoration from flash with buddy pages, no decryption).

All systems speak one interface: ``run_infer(prompt_tokens,
output_tokens)`` returns an :class:`~repro.core.llm_ta.InferenceRecord`
(a multi-model :class:`TZLLM` also takes ``model_id=``).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Union

from ..config import GiB, MiB, PlatformSpec, RK3588
from ..crypto import derive_key
from ..errors import ConfigurationError
from ..hw.common import AddrRange, World
from ..llm.gguf import ModelContainer, container_path, pack_model, parse_container
from ..llm.graph import build_prefill_graph
from ..llm.kv_cache import KVCache
from ..llm.models import ModelSpec
from ..llm.runtime import GraphExecutor, REEDriverNPUBackend, decode_tokens
from ..sim import Resource
from ..stack import Stack, build_stack, set_hook
from ..workloads.stress import MemoryStress
from .backends import REERestoreBackend
from .caching import FractionCachePolicy
from .llm_ta import InferenceRecord, LLMTA
from .pipeline import PipelineConfig, PrefillPipeline
from .restore_graph import build_restoration_plan

__all__ = ["TZLLM", "REELLM", "strawman", "PAPER_PRESSURE", "provision_model"]

#: §7: worst-case stress-ng pressure per model (bytes).
PAPER_PRESSURE = {
    "tinyllama-1.1b-q8": 13 * 10 ** 9,
    "qwen2.5-3b-q8": 11 * 10 ** 9,
    "phi-3-mini-3.8b-q8": 10 * 10 ** 9,
    "llama-3-8b-q8": 6 * 10 ** 9,
}

#: resident system footprint used in the evaluation configs (OS + services
#: + foreground apps on a production OpenHarmony image).
DEFAULT_OS_FOOTPRINT = 3 * GiB


def provision_model(stack: Stack, model: ModelSpec, provider_seed: bytes = b"model-provider") -> ModelContainer:
    """Provider-side provisioning: pack, encrypt, and install the model."""
    hardware_key = stack.keystore.hardware_key(World.SECURE)
    model_key = derive_key(provider_seed, model.model_id)
    data = pack_model(model, model_key, hardware_key)
    stack.kernel.fs.create(container_path(model.model_id), data)
    return parse_container(data)


class _SystemBase:
    """Shared conveniences for the evaluated systems."""

    stack: Stack

    @property
    def sim(self):
        return self.stack.sim

    def run_infer(self, prompt_tokens: int, output_tokens: int = 0, **kwargs) -> InferenceRecord:
        """Serve one request to completion; keyword arguments go to ``infer``."""
        proc = self.sim.process(self.infer(prompt_tokens, output_tokens, **kwargs))
        return self.sim.run_until(proc)

    def infer(self, prompt_tokens: int, output_tokens: int = 0):
        raise NotImplementedError

    def apply_pressure(self, n_bytes: int) -> MemoryStress:
        stress = MemoryStress(self.stack.kernel, n_bytes)
        stress.start()
        return stress


class TZLLM(_SystemBase):
    """The paper's system, end to end, with every ablation flag.

    ``model`` is one :class:`ModelSpec` or a list of them.  A real
    deployment hosts several models (assistant, summarizer, vision-
    language) behind separate TAs on one TrustZone platform.  Each model
    costs two TZASC regions (§4.2) and the TZC-400 has eight, so at most
    four models fit; both that and the CMA budget are checked here.
    Every TA gets its own address space and its own wrapped model key,
    so cross-model isolation inherits the §6 guarantees.  Whatever the
    model count, every request crosses the CA → TZ driver → SMC path into
    one ``tee.llm.infer`` handler that picks the TA.
    """

    def __init__(
        self,
        model: Union[ModelSpec, Sequence[ModelSpec]],
        platform: PlatformSpec = RK3588,
        granule: int = 1 * MiB,
        max_tokens: int = 1024,
        os_footprint: int = DEFAULT_OS_FOOTPRINT,
        use_npu: Union[bool, str] = True,
        decode_use_npu: Union[bool, str] = "auto",
        use_checkpoint: bool = True,
        pipeline_config: Optional[PipelineConfig] = None,
        cache_fraction: float = 0.0,
        npu_reinit_on_switch: bool = False,
        size_obfuscation=None,
        npu_duration_quantum: float = 0.0,
        decode_param_residency: float = 1.0,
        recovery=None,
        batch_config=None,
        trace: bool = False,
        name: str = "TZ-LLM",
        sim=None,
        device_name: str = "",
        device_seed=None,
    ):
        models = [model] if isinstance(model, ModelSpec) else list(model)
        if not models:
            raise ConfigurationError("need at least one model")
        ids = [m.model_id for m in models]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("duplicate model ids")
        slots_needed = 2 * len(models)
        slots_available = platform.trustzone.tzasc_regions
        if slots_needed > slots_available:
            raise ConfigurationError(
                "%d models need %d TZASC regions; the hardware has %d"
                % (len(models), slots_needed, slots_available)
            )
        self.name = name
        self.device_name = device_name
        cma_regions: Dict[str, int] = {}
        for spec in models:
            params_bytes, data_bytes = LLMTA.cma_requirements(
                spec,
                granule,
                max_tokens,
                size_obfuscation=size_obfuscation,
                batch_config=batch_config,
            )
            cma_regions["%s:params" % spec.model_id] = params_bytes
            cma_regions["%s:data" % spec.model_id] = data_bytes
        total_cma = sum(cma_regions.values())
        if total_cma + os_footprint > platform.memory.total_bytes:
            raise ConfigurationError(
                "models need %.1f GB of CMA; the board has %.1f GB"
                % (total_cma / 1e9, platform.memory.total_bytes / 1e9)
            )
        self.stack = build_stack(
            spec=platform,
            granule=granule,
            os_footprint=os_footprint,
            cma_regions=cma_regions,
            npu_reinit_on_switch=npu_reinit_on_switch,
            sim=sim,
            name=device_name,
            device_seed=device_seed,
        )
        #: model_id -> the model's LLM TA, in the order given.
        self.tas: Dict[str, LLMTA] = {}
        for spec in models:
            container = provision_model(self.stack, spec)
            self.stack.tee_os.grant_model_access(spec.model_id, "llm-ta:" + spec.model_id)
            ta = LLMTA(
                self.stack,
                spec,
                container,
                max_tokens=max_tokens,
                use_checkpoint=use_checkpoint,
                use_npu=use_npu,
                decode_use_npu=decode_use_npu,
                pipeline_config=pipeline_config,
                cache_policy=FractionCachePolicy(cache_fraction),
                size_obfuscation=size_obfuscation,
                npu_duration_quantum=npu_duration_quantum,
                decode_param_residency=decode_param_residency,
                recovery=recovery,
                batch_config=batch_config,
            )
            ta.setup()
            self.tas[spec.model_id] = ta
        # One NPU co-driver serves every TA: its TZASC grants are the
        # union of all job-context regions (each TA re-points the list in
        # setup(); restore the union here).
        self.stack.tee_npu.allowed_slots = [
            slot
            for ta in self.tas.values()
            for slot in (ta.params_region.tzasc_slot, ta.data_region.tzasc_slot)
        ]
        # One shared tracer covers every TA (pipeline spans on the model's
        # lanes, serving spans on the gateway lane).
        self.tracer = None
        if trace:
            from ..sim.trace import Tracer

            self.tracer = Tracer(self.stack.sim)
            set_hook(self, "tracer", self.tracer)
        self.stack.board.monitor.register("tee.llm.infer", self._serve)

    # -- one-model accessors (a multi-model system names the model) ------
    @property
    def ta(self) -> LLMTA:
        """The TA of a one-model system."""
        if len(self.tas) != 1:
            raise ConfigurationError(
                "%d models hosted: pick a TA from tas[model_id]" % len(self.tas)
            )
        (ta,) = self.tas.values()
        return ta

    @property
    def model(self) -> ModelSpec:
        return self.ta.model

    @property
    def container(self) -> ModelContainer:
        return self.ta.container

    def _serve(self, *args, model_id: Optional[str] = None, **kwargs):
        """The ``tee.llm.infer`` SMC handler: the named model's TA serves
        the request (``model_id=None`` on a one-model system)."""
        ta = self.ta if model_id is None else self.tas.get(model_id)
        if ta is None:
            raise ConfigurationError("no TA for model %r" % model_id)
        return ta.infer(*args, **kwargs)

    def infer(
        self,
        prompt_tokens: int,
        output_tokens: int = 0,
        preempt=None,
        ctx=None,
        prompt=None,
        model_id: Optional[str] = None,
    ):
        """The client application's request path (generator).

        ``ctx`` is an optional :class:`~repro.obs.TraceContext` forwarded
        across the SMC into the TA for cross-world flow tracing.
        ``prompt`` is an optional :class:`~repro.llm.PromptSpec` the TA's
        prefix-sharing path (``BatchConfig.prefix_sharing``) uses to take
        shared KV blocks by reference.  ``model_id`` names the model on a
        multi-model system.
        """
        yield self.sim.timeout(self.stack.spec.timing.ta_invoke_latency)
        record = yield from self.stack.tz_driver.invoke_ta(
            "tee.llm.infer",
            prompt_tokens,
            output_tokens,
            preempt=preempt,
            ctx=ctx,
            prompt=prompt,
            model_id=model_id,
        )
        return record

    def flush_kv(self):
        """Drop every cached-but-unreferenced shared KV block (generator):
        the prefix trees empty and each fully drained TA's data region
        shrinks.  Returns the number of residencies dropped."""
        dropped = 0
        for ta in self.tas.values():
            dropped += yield from ta.flush_kv_cache()
        return dropped


def strawman(model: ModelSpec, platform: PlatformSpec = RK3588, **kwargs) -> TZLLM:
    """The §2.3 cold-start baseline: secure but unoptimized.

    Every request performs the full cold start (framework init, bulk
    allocation, load, decrypt) and computes on the CPU only.
    """
    kwargs.setdefault("use_npu", False)
    kwargs.setdefault("decode_use_npu", False)
    kwargs.setdefault("use_checkpoint", False)
    kwargs.setdefault("pipeline_config", PipelineConfig(pipelined=False, preemptive=False))
    kwargs.setdefault("cache_fraction", 0.0)
    kwargs.setdefault("name", "Strawman")
    return TZLLM(model, platform, **kwargs)


class REELLM(_SystemBase):
    """The unprotected baselines: ``mode="memory"`` or ``mode="flash"``."""

    def __init__(
        self,
        model: ModelSpec,
        mode: str = "memory",
        platform: PlatformSpec = RK3588,
        granule: int = 1 * MiB,
        max_tokens: int = 1024,
        os_footprint: int = DEFAULT_OS_FOOTPRINT,
        use_npu: Union[bool, str] = True,
        decode_use_npu: Union[bool, str] = "auto",
        pipeline_config: Optional[PipelineConfig] = None,
        release_after: Optional[bool] = None,
    ):
        if mode not in ("memory", "flash"):
            raise ConfigurationError("mode must be 'memory' or 'flash'")
        self.model = model
        self.mode = mode
        self.name = "REE-LLM-Memory" if mode == "memory" else "REE-LLM-Flash"
        self.use_npu = use_npu
        self.decode_use_npu = decode_use_npu
        self.pipeline_config = pipeline_config or PipelineConfig()
        self.release_after = (mode == "flash") if release_after is None else release_after
        self.max_tokens = max_tokens
        self.stack = build_stack(
            spec=platform, granule=granule, os_footprint=os_footprint, cma_regions={}
        )
        self.container = provision_model(self.stack, model)
        planning_graph = build_prefill_graph(model, self.container.tensors, 1, use_npu=False)
        self.plan = build_restoration_plan(planning_graph, granule)
        self.backend = REERestoreBackend(
            self.sim,
            platform,
            self.stack.kernel,
            self.container,
            container_path(model.model_id),
        )
        self.cpu = Resource(self.sim, capacity=1, priority=True, name="ree-llm-cpu")
        ctx_alloc = self.stack.kernel.alloc_unmovable(4096, tag="npu-ctx")
        ctx_addr = self.stack.kernel.db.frame_addr(min(ctx_alloc.frames))
        self.npu_backend = REEDriverNPUBackend(self.stack.ree_npu, AddrRange(ctx_addr, 4096))
        if mode == "memory":
            self._preload()

    def _preload(self) -> None:
        """Place all parameters in memory before the experiment starts."""
        total = self.plan.total_alloc_bytes
        alloc = self.stack.kernel.map_anonymous(total, tag="ree-llm-resident")
        self.backend._allocations.append(alloc)
        self.backend._allocated = total

    @property
    def cached_groups(self) -> int:
        return self.plan.groups_for_bytes(self.backend.allocated)

    def infer(self, prompt_tokens: int, output_tokens: int = 0):
        sim = self.sim
        record = InferenceRecord(
            prompt_tokens=prompt_tokens,
            output_tokens=output_tokens,
            started_at=sim.now,
            cached_groups=self.cached_groups,
            cached_bytes=self.backend.allocated,
        )
        if self.mode == "flash":
            # Resident framework state is restored, not cold-initialized.
            yield sim.timeout(self.stack.spec.timing.checkpoint_restore)
            record.init_time = self.stack.spec.timing.checkpoint_restore
        yield sim.timeout(self.stack.spec.timing.kv_activation_alloc)
        graph = build_prefill_graph(
            self.model,
            self.container.tensors,
            prompt_tokens,
            use_npu=self.use_npu,
            platform=self.stack.spec,
        )
        pipeline = PrefillPipeline(
            sim,
            self.stack.spec,
            graph,
            self.plan,
            self.backend,
            self.npu_backend,
            cached_groups=record.cached_groups,
            config=self.pipeline_config,
        )
        record.pipeline = yield from pipeline.run()
        record.ttft = sim.now - record.started_at
        if output_tokens > 0:
            executor = GraphExecutor(sim, self.stack.spec, self.cpu, self.npu_backend)
            kv = KVCache(self.model, self.max_tokens)
            kv.init_prompt(prompt_tokens)
            try:
                record.decode = yield from decode_tokens(
                    executor,
                    self.model,
                    self.container.tensors,
                    kv,
                    output_tokens,
                    use_npu=self.decode_use_npu,
                )
            finally:
                kv.reset()
        if self.release_after:
            yield from self.backend.release_to(0)
        return record
