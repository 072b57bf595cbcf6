"""The on-device model zoo: the four LLMs the paper evaluates (§7).

Architecture shapes follow the published configurations; parameter counts
are derived from the shapes, so the q8 file sizes land on the paper's
1.0 / 3.3 / 3.7 / 7.9 GB within a few percent.  Everything downstream
(tensor tables, computation DAGs, cost models, KV-cache sizing) is
computed from these specs — no magic totals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict

from ..config import GB
from ..errors import ConfigurationError

__all__ = ["ModelSpec", "MODELS", "get_model", "TINYLLAMA", "QWEN25_3B", "PHI3_MINI", "LLAMA3_8B"]


@dataclass(frozen=True)
class ModelSpec:
    """A decoder-only transformer (llama-family layout, GQA, gated FFN)."""

    model_id: str
    display_name: str
    n_layers: int
    hidden: int
    intermediate: int
    n_heads: int
    n_kv_heads: int
    vocab: int
    quant_bits: int = 8
    tied_embeddings: bool = False
    #: KV cache element width (fp16 in llama.cpp's default cache).
    kv_bytes_per_element: int = 2
    #: MoE extension (the §4.1 limitation): >1 means per-layer experts.
    n_experts: int = 1
    experts_per_token: int = 1

    def __post_init__(self):
        if self.hidden % self.n_heads != 0:
            raise ConfigurationError("hidden not divisible by heads")
        if self.n_heads % self.n_kv_heads != 0:
            raise ConfigurationError("heads not divisible by kv heads")
        if self.n_experts < 1 or self.experts_per_token > self.n_experts:
            raise ConfigurationError("bad MoE configuration")

    # ------------------------------------------------------------------
    # derived shapes
    # ------------------------------------------------------------------
    @property
    def head_dim(self) -> int:
        return self.hidden // self.n_heads

    @property
    def kv_dim(self) -> int:
        return self.n_kv_heads * self.head_dim

    @property
    def bytes_per_param(self) -> float:
        return self.quant_bits / 8.0

    # per-layer parameter counts ---------------------------------------
    @property
    def attn_params(self) -> int:
        """Q, K, V, O projections (GQA-shaped K/V)."""
        q = self.hidden * self.hidden
        kv = 2 * self.hidden * self.kv_dim
        o = self.hidden * self.hidden
        return q + kv + o

    @property
    def ffn_params_per_expert(self) -> int:
        """Gate, up, down projections."""
        return 3 * self.hidden * self.intermediate

    @property
    def ffn_params(self) -> int:
        return self.ffn_params_per_expert * self.n_experts

    @property
    def norm_params(self) -> int:
        return 2 * self.hidden  # attn norm + ffn norm

    @property
    def layer_params(self) -> int:
        return self.attn_params + self.ffn_params + self.norm_params

    @property
    def embed_params(self) -> int:
        return self.vocab * self.hidden

    @property
    def lm_head_params(self) -> int:
        return 0 if self.tied_embeddings else self.vocab * self.hidden

    @property
    def total_params(self) -> int:
        return (
            self.embed_params
            + self.n_layers * self.layer_params
            + self.hidden  # final norm
            + self.lm_head_params
        )

    @cached_property
    def param_bytes(self) -> int:
        # Computed once: the fleet surrogate re-reads it for every TA on
        # every request.  (cached_property writes the instance __dict__
        # directly, so it works on this frozen dataclass.)
        return int(self.total_params * self.bytes_per_param)

    # runtime footprints -------------------------------------------------
    def kv_bytes_per_token(self) -> int:
        return 2 * self.n_layers * self.kv_dim * self.kv_bytes_per_element

    def kv_bytes(self, tokens: int) -> int:
        return self.kv_bytes_per_token() * tokens

    def activation_bytes(self, max_tokens: int) -> int:
        """Scratch activations for a batch of ``max_tokens`` (2 buffers of
        the widest intermediate, fp16)."""
        widest = max(self.hidden, self.intermediate)
        return 2 * widest * max_tokens * 2

    # compute ------------------------------------------------------------
    def prefill_flops(self, tokens: int) -> float:
        """Dense forward FLOPs for ``tokens`` prompt tokens (2 per MAC).

        MoE models route each token through ``experts_per_token`` experts.
        """
        active = (
            self.embed_params * 0  # lookup, not a matmul
            + self.n_layers
            * (
                self.attn_params
                + self.ffn_params_per_expert * self.experts_per_token
                + self.norm_params
            )
            + self.lm_head_params
            + (self.embed_params if self.tied_embeddings else 0)
        )
        return 2.0 * active * tokens


def _mk(**kwargs) -> ModelSpec:
    return ModelSpec(**kwargs)


TINYLLAMA = _mk(
    model_id="tinyllama-1.1b-q8",
    display_name="TinyLlama-1.1B",
    n_layers=22,
    hidden=2048,
    intermediate=5632,
    n_heads=32,
    n_kv_heads=4,
    vocab=32000,
)

QWEN25_3B = _mk(
    model_id="qwen2.5-3b-q8",
    display_name="Qwen2.5-3B",
    n_layers=36,
    hidden=2048,
    intermediate=11008,
    n_heads=16,
    n_kv_heads=2,
    vocab=151936,
)

PHI3_MINI = _mk(
    model_id="phi-3-mini-3.8b-q8",
    display_name="Phi-3-3.8B",
    n_layers=32,
    hidden=3072,
    intermediate=8192,
    n_heads=32,
    n_kv_heads=32,
    vocab=32064,
)

LLAMA3_8B = _mk(
    model_id="llama-3-8b-q8",
    display_name="Llama-3-8B",
    n_layers=32,
    hidden=4096,
    intermediate=14336,
    n_heads=32,
    n_kv_heads=8,
    vocab=128256,
)

MODELS: Dict[str, ModelSpec] = {
    spec.model_id: spec for spec in (TINYLLAMA, QWEN25_3B, PHI3_MINI, LLAMA3_8B)
}

#: paper-reported q8 file sizes, for calibration checks.
PAPER_PARAM_BYTES: Dict[str, float] = {
    "tinyllama-1.1b-q8": 1.0 * GB,
    "qwen2.5-3b-q8": 3.3 * GB,
    "phi-3-mini-3.8b-q8": 3.7 * GB,
    "llama-3-8b-q8": 7.9 * GB,
}


def quantized_variant(spec: ModelSpec, bits: int) -> ModelSpec:
    """A re-quantized variant of a zoo model (e.g. q4 for tighter memory).

    The paper's systems support quantized models as-is (Table 1); this
    derives the spec the container/cost machinery needs: same shapes,
    different bytes-per-parameter.
    """
    from dataclasses import replace

    if bits not in (2, 4, 8, 16):
        raise ConfigurationError("unsupported quantization width %d" % bits)
    if bits == spec.quant_bits:
        return spec
    base_id = spec.model_id.rsplit("-q", 1)[0]
    return replace(
        spec,
        model_id="%s-q%d" % (base_id, bits),
        display_name="%s (q%d)" % (spec.display_name.split(" (q")[0], bits),
        quant_bits=bits,
    )


def get_model(model_id: str) -> ModelSpec:
    """Look up a zoo model by id."""
    try:
        return MODELS[model_id]
    except KeyError:
        raise ConfigurationError(
            "unknown model %r (have: %s)" % (model_id, ", ".join(sorted(MODELS)))
        )
