"""The llama.cpp-like inference substrate.

Model zoo (:mod:`repro.llm.models`), tensor tables with scaled payloads
(:mod:`repro.llm.tensors`), the encrypted container format
(:mod:`repro.llm.gguf`), the computation DAG (:mod:`repro.llm.graph`), the
roofline cost model (:mod:`repro.llm.ops`), graph execution and decoding
(:mod:`repro.llm.runtime`), framework checkpointing
(:mod:`repro.llm.checkpoint`), the tokenizer and KV cache.
"""

from .checkpoint import checkpoint_path, cold_init, restore_checkpoint, save_checkpoint
from .gguf import ModelContainer, container_path, pack_model, parse_container
from .graph import (
    ComputationGraph,
    ComputeOp,
    build_batched_decode_graph,
    build_chunked_prefill_graph,
    build_prefill_graph,
)
from .kv_cache import (
    BlockCheckpoint,
    KVBlockPool,
    PagedKVCache,
    PrefixTree,
    PromptSpec,
    ShareResult,
)
from .models import LLAMA3_8B, MODELS, PHI3_MINI, QWEN25_3B, TINYLLAMA, ModelSpec, get_model
from .ops import Engine, op_duration, op_duration_with_launch
from .quantization import dequantize_q8, quantize_q8
from .runtime import (
    DecodeResult,
    DirectNPUBackend,
    GraphExecutor,
    NPUBackend,
    REEDriverNPUBackend,
    TEECoDriverNPUBackend,
    decode_tokens,
    sample_token,
)
from .tensors import TensorMeta, TensorRole, build_tensor_table, tensor_plaintext
from .tokenizer import Tokenizer

__all__ = [
    "LLAMA3_8B",
    "MODELS",
    "PHI3_MINI",
    "QWEN25_3B",
    "TINYLLAMA",
    "ComputationGraph",
    "ComputeOp",
    "BlockCheckpoint",
    "DecodeResult",
    "DirectNPUBackend",
    "Engine",
    "GraphExecutor",
    "KVBlockPool",
    "PagedKVCache",
    "ModelContainer",
    "ModelSpec",
    "NPUBackend",
    "PrefixTree",
    "PromptSpec",
    "REEDriverNPUBackend",
    "ShareResult",
    "TEECoDriverNPUBackend",
    "TensorMeta",
    "TensorRole",
    "Tokenizer",
    "build_batched_decode_graph",
    "build_chunked_prefill_graph",
    "build_prefill_graph",
    "build_tensor_table",
    "checkpoint_path",
    "cold_init",
    "container_path",
    "decode_tokens",
    "dequantize_q8",
    "get_model",
    "quantize_q8",
    "op_duration",
    "op_duration_with_launch",
    "pack_model",
    "parse_container",
    "restore_checkpoint",
    "sample_token",
    "save_checkpoint",
    "tensor_plaintext",
]
