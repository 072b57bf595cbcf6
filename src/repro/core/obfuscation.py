"""Side-channel mitigations (§6): size and timing obfuscation.

The paper identifies two TZ-LLM-specific side channels — tensor sizes
leak through secure-memory scaling and delegated loads, and secure-job
execution times leak through REE scheduling — and notes they "could be
mitigated through orthogonal techniques such as dummy parameter loading
and dummy computation".  This module implements those techniques:

* :func:`apply_size_obfuscation` pads every restoration group to a
  common quantum (or to the largest group, for full uniformity): the REE
  then observes identical allocation extensions and identical load
  request sizes, at a memory/I/O cost the ablation bench quantifies.
* :func:`~repro.llm.runtime.quantize_duration` rounds secure NPU job
  durations up to a quantum (dummy computation), hiding per-matmul
  timing structure; the TEE co-driver backend applies it to every job.
"""

from __future__ import annotations

from typing import Optional

from ..errors import ConfigurationError
from .restore_graph import RestorationPlan

__all__ = ["apply_size_obfuscation"]


def _round_up(value: int, quantum: int) -> int:
    return -(-value // quantum) * quantum


def apply_size_obfuscation(plan: RestorationPlan, quantum: Optional[int] = None) -> RestorationPlan:
    """Pad the plan's groups in place; returns the plan.

    ``quantum=None`` pads every group to the size of the largest
    (fully uniform: the REE learns only the group *count*); an explicit
    quantum trades leakage granularity against padding overhead.
    Padded groups carry ``uniform_load=True`` so the restore backend
    issues a single fixed-size dummy-padded load per group.
    """
    if not plan.groups:
        return plan
    if quantum is None:
        quantum = max(group.alloc_bytes for group in plan.groups)
    if quantum <= 0 or quantum % plan.granule != 0:
        raise ConfigurationError(
            "quantum must be a positive multiple of the granule (%d)" % plan.granule
        )
    offset = 0
    for group in plan.groups:
        group.alloc_bytes = _round_up(max(group.alloc_bytes, plan.granule), quantum)
        group.region_offset = offset
        group.uniform_load = True  # type: ignore[attr-defined]
        offset += group.alloc_bytes
    return plan
