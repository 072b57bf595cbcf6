"""Graph execution: CPU ops on the big cluster, matmuls on an NPU backend.

The executor walks a computation graph in topological order (the chain
llama.cpp schedules), charging each operator's roofline duration on its
engine.  Consecutive CPU operators share one grant of the CPU, handed
over at an operator boundary only when another request is queued.  NPU
operators are dispatched through a pluggable backend:

* :class:`DirectNPUBackend` — idealized device (launch latency only); the
  REE-LLM-Memory theoretical baseline.
* :class:`REEDriverNPUBackend` — jobs go through the full REE driver's
  unified queue (so concurrent NN apps really contend; Fig. 15).
* :class:`TEECoDriverNPUBackend` — secure jobs through the co-driver
  (shadow scheduling, world switches, sequence checks; §4.3).

The REE baselines' decode loop generates tokens one at a time, resizing
the attention operators as the KV cache grows, and samples a
deterministic next token so end-to-end output text is reproducible (the
TA decodes through :mod:`repro.core.batch`, with the same sampling).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter
from typing import List, Optional, Union

from ..config import PlatformSpec
from ..errors import ConfigurationError
from ..hw.common import AddrRange
from ..hw.npu import NPUJob
from ..sim import Resource, Simulator
from .graph import (
    ComputationGraph,
    ComputeOp,
    attention_ops,
    build_batched_decode_graph,
    size_decode_attention,
)
from .models import ModelSpec
from .ops import Engine, op_duration
from .tensors import TensorMeta

__all__ = [
    "NPUBackend",
    "DirectNPUBackend",
    "REEDriverNPUBackend",
    "TEECoDriverNPUBackend",
    "GraphExecutor",
    "DecodeResult",
    "decode_tokens",
    "quantize_duration",
    "sample_token",
]


class NPUBackend:
    """Strategy for running one NPU operator.

    Backends keep two attribution accumulators the executor reads around
    each dispatch: ``busy_time`` (device compute actually charged,
    including any §6 quantum padding) and ``overhead_time`` (the
    cross-world cost — SMC traps and secure-mode switches).  Whatever
    wall time remains is scheduler wait, attributed by the caller.
    """

    busy_time = 0.0
    overhead_time = 0.0

    def run(self, op: ComputeOp, duration: float):
        raise NotImplementedError


class DirectNPUBackend(NPUBackend):
    """Idealized NPU: exclusive device, launch latency only."""

    def __init__(self, sim: Simulator, platform: PlatformSpec):
        self.sim = sim
        self.platform = platform
        self.busy_time = 0.0
        self.overhead_time = 0.0

    def run(self, op: ComputeOp, duration: float):
        yield self.sim.timeout(self.platform.npu.job_launch_latency + duration)
        self.busy_time += duration
        self.overhead_time += self.platform.npu.job_launch_latency


def quantize_duration(duration: float, quantum: float) -> float:
    """Round a secure-job duration up to the timing quantum (dummy
    computation keeps the NPU busy until the boundary; §6)."""
    if quantum <= 0:
        return duration
    return math.ceil(duration / quantum - 1e-12) * quantum


def _job_for(op: ComputeOp, duration: float, ctx: AddrRange, tag: str) -> NPUJob:
    """Build a hardware job whose execution context lives at ``ctx``."""
    quarter = max(64, ctx.size // 4)
    return NPUJob(
        duration=duration,
        commands=AddrRange(ctx.base, quarter),
        io_pagetable=AddrRange(ctx.base + quarter, quarter),
        inputs=[AddrRange(ctx.base + 2 * quarter, quarter)],
        outputs=[AddrRange(ctx.base + 3 * quarter, quarter)],
        tag="%s:%s" % (tag, op.name),
    )


class REEDriverNPUBackend(NPUBackend):
    """Jobs through the full REE driver's unified scheduling queue."""

    def __init__(self, ree_driver, ctx: AddrRange):
        self.driver = ree_driver
        self.ctx = ctx
        self.busy_time = 0.0
        self.overhead_time = 0.0

    def run(self, op: ComputeOp, duration: float):
        job = _job_for(op, duration, self.ctx, "ree")
        completion = self.driver.submit(job)
        yield completion
        self.busy_time += duration


class TEECoDriverNPUBackend(NPUBackend):
    """Secure jobs through the TEE data-plane co-driver (§4.3).

    ``duration_quantum`` rounds every job's runtime up to a fixed quantum
    (dummy computation, the §6 timing-side-channel mitigation): the REE
    scheduler then observes uniform secure-job lengths.
    """

    def __init__(
        self,
        tee_driver,
        ctx: AddrRange,
        duration_quantum: float = 0.0,
        job_timeout: float = None,
        max_reissues: int = 2,
    ):
        self.driver = tee_driver
        self.ctx = ctx
        self.duration_quantum = duration_quantum
        #: ``job_timeout`` arms the co-driver's watchdog on every job
        #: (None keeps the legacy unbounded wait).
        self.job_timeout = job_timeout
        self.max_reissues = max_reissues
        self.busy_time = 0.0
        self.overhead_time = 0.0

    def run(self, op: ComputeOp, duration: float):
        duration = quantize_duration(duration, self.duration_quantum)
        job = _job_for(op, duration, self.ctx, "tee")
        switch0 = self.driver.world_switch_time
        yield from self.driver.submit_secure_job(
            job, timeout=self.job_timeout, max_reissues=self.max_reissues
        )
        self.busy_time += duration
        self.overhead_time += self.driver.world_switch_time - switch0


class GraphExecutor:
    """Sequentially executes a graph's operator chain."""

    def __init__(
        self,
        sim: Simulator,
        platform: PlatformSpec,
        cpu: Resource,
        npu_backend: Optional[NPUBackend] = None,
    ):
        self.sim = sim
        self.platform = platform
        self.cpu = cpu
        self.npu_backend = npu_backend
        self.cpu_busy_time = 0.0
        self.npu_wait_time = 0.0
        #: attribution slices of ``npu_wait_time`` (see NPUBackend): device
        #: compute, cross-world overhead, and whatever wait remains.
        self.npu_busy_time = 0.0
        self.npu_overhead_time = 0.0

    def op_time(self, op: ComputeOp) -> float:
        return op_duration(op.flops, op.bytes_touched, self.platform, op.engine)

    def run_op(self, op: ComputeOp):
        """Execute a single operator (generator)."""
        duration = self.op_time(op)
        if op.engine == Engine.CPU:
            yield from self._run_cpu([duration])
        else:
            if self.npu_backend is None:
                raise ConfigurationError("graph has NPU ops but no NPU backend")
            start = self.sim.now
            busy0 = self.npu_backend.busy_time
            overhead0 = self.npu_backend.overhead_time
            yield from self.npu_backend.run(op, duration)
            self.npu_wait_time += self.sim.now - start
            self.npu_busy_time += self.npu_backend.busy_time - busy0
            self.npu_overhead_time += self.npu_backend.overhead_time - overhead0

    def execute(self, graph: ComputationGraph):
        """Run the whole chain (generator).

        Each maximal run of consecutive CPU operators executes under one
        CPU grant (see :meth:`_run_cpu`); NPU operators go one at a time
        through the backend.
        """
        for engine, ops in groupby(graph.ops, key=attrgetter("engine")):
            if engine == Engine.CPU:
                yield from self._run_cpu([self.op_time(op) for op in ops])
            else:
                for op in ops:
                    yield from self.run_op(op)

    def step(self, graph: ComputationGraph, before=None):
        """One decode step: run ``before()`` then ``graph`` (generator).

        ``before`` — a generator-producing callable, or None — runs
        inside the step's wall time (KV growth, parameter streaming).
        Returns ``(step_time, attribution)``: the step's wall time and a
        dict of ``cpu`` (CPU op busy time), ``npu_compute`` (device busy
        time), ``smc`` (cross-world overhead) and ``sched_wait`` (the
        rest of the wall time).
        """
        start = self.sim.now
        cpu0 = self.cpu_busy_time
        npu0 = self.npu_busy_time
        smc0 = self.npu_overhead_time
        if before is not None:
            yield from before()
        yield from self.execute(graph)
        step_time = self.sim.now - start
        cpu_d = self.cpu_busy_time - cpu0
        npu_d = self.npu_busy_time - npu0
        smc_d = self.npu_overhead_time - smc0
        return step_time, {
            "cpu": cpu_d,
            "npu_compute": npu_d,
            "smc": smc_d,
            "sched_wait": max(0.0, step_time - cpu_d - npu_d - smc_d),
        }

    def _run_cpu(self, durations: List[float]):
        """Run consecutive CPU operators of the given durations (generator).

        The operators run under one CPU grant, requested at priority 0.
        Each takes its duration in place (:meth:`Simulator.advance`)
        when nothing is queued up to its end, else as a timeout of its
        own; either way it ends at the previous boundary plus its
        duration.  At a boundary where another request is queued the
        executor releases the CPU and re-requests it, as per-operator
        stepping does, so the CPU is handed over at the same boundaries;
        where none is, whatever else is due at the boundary runs before
        the next operator starts, as it runs before per-operator
        stepping's re-grant.
        """
        sim = self.sim
        cpu = self.cpu
        done = 0
        while done < len(durations):
            request = cpu.request()
            yield request
            try:
                waited = False
                for duration in durations[done:]:
                    if waited and not sim.advance(0.0):
                        # Per-operator stepping re-takes the CPU through a
                        # grant event dispatched after whatever else is
                        # due at this boundary: let that run first too.
                        yield sim.timeout(0.0)
                    waited = not sim.advance(duration)
                    if waited:
                        yield sim.timeout(duration)
                    self.cpu_busy_time += duration
                    done += 1
                    if cpu.queued:
                        break
            finally:
                cpu.release(request)


def sample_token(model_id: str, step: int, vocab: int) -> int:
    """Deterministic "sampling": reproducible outputs without an RNG."""
    digest = hashlib.sha256(("sample:%s:%d" % (model_id, step)).encode()).digest()
    return int.from_bytes(digest[:4], "big") % vocab


@dataclass
class DecodeResult:
    token_ids: List[int] = field(default_factory=list)
    step_times: List[float] = field(default_factory=list)
    #: per-token latency attribution: for each generated token a dict of
    #: ``cpu`` (CPU op busy time), ``npu_compute`` (device busy time),
    #: ``smc`` (cross-world overhead: traps + secure-mode switches), and
    #: ``sched_wait`` (the rest: REE queueing, power-up, stalls, hooks).
    attribution: List[dict] = field(default_factory=list)
    #: the sequence was evicted at a token boundary before generating
    #: every token (serving-level preemption; see :mod:`repro.serve`).
    stopped_early: bool = False

    @property
    def tokens_per_second(self) -> float:
        total = sum(self.step_times)
        return len(self.step_times) / total if total > 0 else 0.0

    def attribution_totals(self) -> dict:
        """Summed per-component decode time across all tokens."""
        totals = {"cpu": 0.0, "npu_compute": 0.0, "smc": 0.0, "sched_wait": 0.0}
        for step in self.attribution:
            for key in totals:
                totals[key] += step.get(key, 0.0)
        return totals


def decode_tokens(
    executor: GraphExecutor,
    model: ModelSpec,
    tensors: List[TensorMeta],
    context_tokens: int,
    n_tokens: int,
    use_npu: Union[bool, str] = "auto",
):
    """The REE baselines' decode loop (generator; returns a
    :class:`DecodeResult`).

    ``context_tokens`` — the prompt's KV length; the loop counts the
    tokens it generates on top.  Engine choice is made once (it depends
    on weight sizes, not KV size); the attention operators are resized
    each step as the cache grows.  The TA decodes through its batch
    engine instead (:mod:`repro.core.batch`).
    """
    result = DecodeResult()
    tokens = context_tokens
    graph = build_batched_decode_graph(
        model, tensors, [tokens], use_npu=use_npu, platform=executor.platform
    )
    attention = attention_ops(graph)
    for step in range(n_tokens):
        size_decode_attention(model, attention, [tokens])
        step_time, attribution = yield from executor.step(graph)
        result.step_times.append(step_time)
        result.attribution.append(attribution)
        result.token_ids.append(sample_token(model.model_id, step, model.vocab))
        tokens += 1
    return result
