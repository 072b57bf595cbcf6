"""Restoration planning: extend the compute DAG with restoration operators.

For each computation operator that consumes parameters, §4.1 inserts three
restoration operators — memory allocation, parameter loading (flash I/O),
and decryption — ahead of it.  The planner groups each operator's tensors
into a :class:`RestoreGroup` laid out contiguously (and granule-aligned)
in the parameter secure region, in topological order; tiny groups (layer
norms) are fused into their successor so restoration quanta stay at
sensible sizes.

Because groups are allocated strictly in topological order and released
strictly in reverse, the region's first-in-last-out discipline (§4.2)
falls out by construction: ``plan.groups[k]`` always occupies
``[offset_k, offset_k + alloc_bytes_k)`` with ``offset_{k+1} = offset_k +
alloc_bytes_k``.

MoE note (§4.1 limitation): an expert-routed FFN contributes *all* its
experts' tensors to the group — the plan prefetches experts that this
inference may never touch.  ``RestorationPlan.speculative_bytes`` reports
how much; a test pins the behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import ConfigurationError
from ..llm.graph import ComputationGraph
from ..llm.tensors import TensorMeta

__all__ = ["RestoreGroup", "RestorationPlan", "build_restoration_plan"]


@dataclass
class RestoreGroup:
    """One restoration quantum: the tensors of one (fused) compute op."""

    group_id: int
    tensors: List[TensorMeta]
    #: op ids whose parameters live in this group (first = earliest).
    compute_op_ids: List[int]
    nominal_bytes: int = 0
    alloc_bytes: int = 0  # granule-aligned footprint in the region
    region_offset: int = 0  # byte offset of the group within the region

    @property
    def region_end(self) -> int:
        return self.region_offset + self.alloc_bytes


@dataclass
class RestorationPlan:
    graph: ComputationGraph
    granule: int
    groups: List[RestoreGroup] = field(default_factory=list)
    #: compute op id -> group that must be restored before it runs.
    group_for_op: Dict[int, int] = field(default_factory=dict)

    @property
    def total_alloc_bytes(self) -> int:
        return self.groups[-1].region_end if self.groups else 0

    @property
    def total_nominal_bytes(self) -> int:
        return sum(g.nominal_bytes for g in self.groups)

    @property
    def speculative_bytes(self) -> int:
        """Bytes prefetched beyond what a single inference activates
        (MoE experts, early-exit layers — the §4.1 limitation)."""
        model = self.graph.model
        if model.n_experts == 1:
            return 0
        unused = model.n_experts - model.experts_per_token
        per_layer = int(model.ffn_params_per_expert * model.bytes_per_param) * unused
        return per_layer * model.n_layers

    def groups_for_bytes(self, cached_bytes: int) -> int:
        """How many leading groups fit in ``cached_bytes`` of region."""
        count = 0
        for group in self.groups:
            if group.region_end <= cached_bytes:
                count += 1
            else:
                break
        return count

    def cached_prefix_bytes(self, n_groups: int) -> int:
        """Region bytes occupied by the first ``n_groups`` groups."""
        if n_groups <= 0:
            return 0
        if n_groups > len(self.groups):
            raise ConfigurationError("only %d groups in plan" % len(self.groups))
        return self.groups[n_groups - 1].region_end


def _round_up(value: int, granule: int) -> int:
    return -(-value // granule) * granule


def build_restoration_plan(
    graph: ComputationGraph,
    granule: int,
    fuse_below: Optional[int] = None,
) -> RestorationPlan:
    """Build the plan in the graph's topological order.

    ``fuse_below``: groups smaller than this (default: one granule) are
    fused into the next group, so norm tensors ride along with their
    layer's projection weights instead of wasting a granule each.
    """
    if granule <= 0:
        raise ConfigurationError("granule must be positive")
    fuse_threshold = granule if fuse_below is None else fuse_below
    plan = RestorationPlan(graph=graph, granule=granule)

    # Collect per-op tensor groups in topological order (first use wins).
    seen = set()
    raw: List[RestoreGroup] = []
    for op in graph.ops:
        fresh = [t for t in op.tensors if t.name not in seen]
        if not fresh:
            continue
        for tensor in fresh:
            seen.add(tensor.name)
        raw.append(
            RestoreGroup(
                group_id=-1,
                tensors=fresh,
                compute_op_ids=[op.op_id],
                nominal_bytes=sum(t.nominal_bytes for t in fresh),
            )
        )

    # Fuse small groups forward into their successor.
    fused: List[RestoreGroup] = []
    pending: Optional[RestoreGroup] = None
    for group in raw:
        if pending is not None:
            group.tensors = pending.tensors + group.tensors
            group.compute_op_ids = pending.compute_op_ids + group.compute_op_ids
            group.nominal_bytes += pending.nominal_bytes
            pending = None
        if group.nominal_bytes < fuse_threshold:
            pending = group
        else:
            fused.append(group)
    if pending is not None:
        if fused:
            last = fused[-1]
            last.tensors += pending.tensors
            last.compute_op_ids += pending.compute_op_ids
            last.nominal_bytes += pending.nominal_bytes
        else:
            fused.append(pending)

    # Assign layout.
    offset = 0
    for index, group in enumerate(fused):
        group.group_id = index
        group.alloc_bytes = _round_up(group.nominal_bytes, granule)
        group.region_offset = offset
        offset += group.alloc_bytes
        for op_id in group.compute_op_ids:
            plan.group_for_op[op_id] = index
    plan.groups = fused
    return plan
