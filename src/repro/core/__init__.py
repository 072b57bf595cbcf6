"""TZ-LLM proper: pipelined restoration, secure memory, co-driver systems.

The paper's contribution lives here: restoration planning
(:mod:`repro.core.restore_graph`), the pipelined prefill executor
(:mod:`repro.core.pipeline`), restoration backends
(:mod:`repro.core.backends`), caching policies
(:mod:`repro.core.caching`), the LLM TA (:mod:`repro.core.llm_ta`), and
the end-to-end evaluated systems (:mod:`repro.core.system`).
"""

from .backends import REERestoreBackend, RestoreBackend, TEERestoreBackend
from .batch import BatchConfig, BatchedSequence, DecodeBatchEngine, SharedNPUBackend
from .caching import (
    CachePolicy,
    FractionCachePolicy,
    PressureCachePolicy,
    ThresholdProfiler,
)
from .llm_ta import InferenceRecord, LLMTA, PreemptionGate
from .obfuscation import apply_size_obfuscation, quantize_duration
from .pipeline import PipelineConfig, PipelineMetrics, PrefillPipeline
from .restore_graph import RestorationPlan, RestoreGroup, build_restoration_plan
from .system import PAPER_PRESSURE, REELLM, TZLLM, provision_model, strawman

__all__ = [
    "BatchConfig",
    "BatchedSequence",
    "CachePolicy",
    "DecodeBatchEngine",
    "FractionCachePolicy",
    "InferenceRecord",
    "LLMTA",
    "PAPER_PRESSURE",
    "PipelineConfig",
    "PipelineMetrics",
    "PreemptionGate",
    "PrefillPipeline",
    "PressureCachePolicy",
    "REELLM",
    "REERestoreBackend",
    "RestorationPlan",
    "RestoreBackend",
    "RestoreGroup",
    "SharedNPUBackend",
    "TEERestoreBackend",
    "ThresholdProfiler",
    "TZLLM",
    "apply_size_obfuscation",
    "build_restoration_plan",
    "quantize_duration",
    "provision_model",
    "strawman",
]
