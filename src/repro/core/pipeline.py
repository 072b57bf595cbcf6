"""Pipelined parameter restoration (§4.1): the prefill executor.

Hardware rows, as in Fig. 5: the **CPU** (the big cluster, one worker that
runs computation, allocation and decryption operators), the **I/O engine**
(flash loads, issued in topological order), and the **NPU** (matmul jobs
through whatever backend the system wired in).

Scheduling implements the paper's greedy, priority-based, preemptive
policy:

* a ready CPU *computation* operator always wins (it is on the critical
  chain);
* otherwise the restoration operator belonging to the earliest
  computation operator runs — a ready decryption (its group is already
  loaded, so its compute op is earliest) before an allocation;
* allocation and decryption are split into micro-operators
  (``SLICE_BYTES``); between micro-ops the worker checks for a newly
  ready computation operator and yields to it (preemption, Fig. 5d) —
  disable with ``preemptive=False`` for the Fig. 13 ablation, or set
  ``pipelined=False`` for the strawman's sequential restore-then-compute.

Partial parameter caching (§4.1/Fig. 14): ``cached_groups`` leading
groups are assumed resident (allocated, protected, decrypted) from a
previous inference; their restoration operators vanish and computation
starts immediately.

The run returns :class:`PipelineMetrics`, including the three critical-
path totals of §7.2.1 whose maximum lower-bounds any schedule (Fig. 12).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional

from ..config import MiB, PlatformSpec
from ..errors import ConfigurationError, IagoViolation, IntegrityError, StorageError
from ..faults.recovery import RecoveryPolicy
from ..llm.graph import ComputationGraph
from ..llm.ops import Engine, op_duration
from ..llm.runtime import NPUBackend
from ..sim import Event, Simulator
from ..sim.trace import NULL_TRACER
from .backends import RestoreBackend
from .restore_graph import RestorationPlan

__all__ = ["PipelineConfig", "PipelineMetrics", "PrefillPipeline"]


#: size of one allocation or decryption micro-operator.
SLICE_BYTES = 32 * MiB
#: the prototype migrates CMA pages on one thread (the paper measures
#: 1.9 GB/s single-thread; multi-threading is the §2.4.2 option).
ALLOC_THREADS = 1
DECRYPT_THREADS = 4


@dataclass
class PipelineConfig:
    pipelined: bool = True
    preemptive: bool = True


@dataclass
class PipelineMetrics:
    ttft: float = 0.0
    started_at: float = 0.0
    finished_at: float = 0.0
    # critical-path totals (§7.2.1)
    io_time: float = 0.0
    alloc_time: float = 0.0
    decrypt_time: float = 0.0
    cpu_compute_time: float = 0.0
    npu_compute_time: float = 0.0
    #: cross-world share of ``npu_compute_time`` (SMC traps and
    #: secure-mode switches), as attributed by the NPU backend.
    npu_overhead_time: float = 0.0
    # bookkeeping
    loaded_bytes: int = 0
    preemptions: int = 0
    cpu_idle_time: float = 0.0
    # recovery bookkeeping (repro.faults): retried group loads and
    # corrupted-chunk re-fetches that saved the prefill from aborting.
    io_retries: int = 0
    refetches: int = 0

    @property
    def cpu_path(self) -> float:
        """All CPU-row work: compute + allocation + decryption."""
        return self.cpu_compute_time + self.alloc_time + self.decrypt_time

    @property
    def computation_path(self) -> float:
        return self.cpu_compute_time + self.npu_compute_time

    @property
    def io_path(self) -> float:
        return self.io_time

    @property
    def lower_bound(self) -> float:
        """No schedule can beat the slowest hardware row (§7.2.1)."""
        return max(self.io_path, self.cpu_path, self.computation_path)


class PrefillPipeline:
    """One prefill run: restoration and computation, co-scheduled."""

    def __init__(
        self,
        sim: Simulator,
        platform: PlatformSpec,
        graph: ComputationGraph,
        plan: RestorationPlan,
        backend: RestoreBackend,
        npu_backend: Optional[NPUBackend],
        cached_groups: int = 0,
        config: Optional[PipelineConfig] = None,
        recovery: Optional[RecoveryPolicy] = None,
        tracer=NULL_TRACER,
        registry=None,
        recorder=None,
        ctx=None,
    ):
        if cached_groups < 0 or cached_groups > len(plan.groups):
            raise ConfigurationError("cached_groups out of range")
        self.recovery = recovery or RecoveryPolicy()
        self.tracer = tracer
        #: observability: a repro.obs MetricsRegistry for phase busy time,
        #: a FlightRecorder for retry provenance, and the request's
        #: TraceContext for cross-lane flow events (all optional).
        self.registry = registry
        self.recorder = recorder
        self.ctx = ctx
        self._flow_npu_pending = ctx is not None
        self.sim = sim
        self.platform = platform
        self.graph = graph
        self.plan = plan
        self.backend = backend
        self.npu_backend = npu_backend
        self.cached_groups = cached_groups
        self.config = config or PipelineConfig()
        self.metrics = PipelineMetrics()
        # Per-group phase events; a cached group has none, since nothing
        # waits for it.
        cached = [None] * cached_groups
        fresh = range(cached_groups, len(plan.groups))
        self._alloc_done: List[Optional[Event]] = cached + [sim.event() for _ in fresh]
        self._load_done: List[Optional[Event]] = cached + [sim.event() for _ in fresh]
        self._decrypt_done: List[Optional[Event]] = cached + [sim.event() for _ in fresh]
        self._decrypt_ready: List[int] = []  # min-heap of loaded groups
        self._alloc_cursor = cached_groups
        self._pending_compute = None  # (op, duration, done_event)
        self._worker_wake: Optional[Event] = None
        self._finished = False
        self._failure: Optional[BaseException] = None

    # ------------------------------------------------------------------
    def run(self):
        """Execute the whole prefill (generator; returns metrics).

        On failure (I/O error, Iago detection) the pipeline quiesces its
        worker and I/O processes *before* re-raising, so the caller can
        release memory without a zombie worker re-ballooning it.
        """
        self.metrics.started_at = self.sim.now
        if self.ctx is not None:
            # Flow step: the request has crossed from the gateway into
            # the TEE prefill path.
            self.tracer.flow("t", self.ctx.flow_id, self.ctx.flow_name, lane="CPU")
        if self.recorder is not None:
            self.recorder.record(
                "pipeline", "prefill.start", groups=len(self.plan.groups),
                cached=self.cached_groups,
            )
        if not self.config.pipelined:
            yield from self._run_sequential()
        else:
            io_proc = self.sim.process(self._io_driver(), name="pipeline-io")
            worker_proc = self.sim.process(self._cpu_worker(), name="pipeline-cpu")
            compute = self.sim.process(self._compute_driver(), name="pipeline-compute")
            failure: Optional[BaseException] = None
            try:
                yield compute
            except Exception as exc:
                failure = exc
            self._finished = True
            self._kick_worker()
            if failure is not None or self._failure is not None:
                cause = self._failure or failure
                cached = self.cached_groups
                for event in self._alloc_done[cached:] + self._load_done[cached:]:
                    if not event.triggered:
                        event.fail(cause)
            yield worker_proc
            yield io_proc
            if failure is not None:
                raise failure
        self.metrics.finished_at = self.sim.now
        self.metrics.ttft = self.sim.now - self.metrics.started_at
        self._export_phase_metrics()
        if self.recorder is not None:
            self.recorder.record(
                "pipeline", "prefill.done", ttft="%.6f" % self.metrics.ttft
            )
        return self.metrics

    def _export_phase_metrics(self) -> None:
        """Publish per-phase busy time and recovery counts to the registry."""
        registry = self.registry
        if registry is None:
            return
        busy = registry.counter(
            "pipeline_phase_busy_seconds_total", "Busy seconds per pipeline phase"
        )
        m = self.metrics
        busy.inc(m.alloc_time, phase="alloc")
        busy.inc(m.io_time, phase="load")
        busy.inc(m.decrypt_time, phase="decrypt")
        busy.inc(m.cpu_compute_time + m.npu_compute_time, phase="compute")
        if m.npu_overhead_time:
            registry.counter(
                "pipeline_npu_overhead_seconds_total",
                "Cross-world share of prefill NPU time (SMC + world switches)",
            ).inc(m.npu_overhead_time)
        registry.counter(
            "pipeline_loaded_bytes_total", "Model bytes restored by prefills"
        ).inc(m.loaded_bytes)
        if m.io_retries:
            registry.counter(
                "pipeline_io_retries_total", "Group loads retried after I/O errors"
            ).inc(m.io_retries)
        if m.refetches:
            registry.counter(
                "pipeline_refetches_total", "Corrupted-chunk re-fetches"
            ).inc(m.refetches)

    # ------------------------------------------------------------------
    # sequential (non-pipelined) mode: the strawman's restore-then-compute
    # ------------------------------------------------------------------
    def _run_sequential(self):
        groups = self.plan.groups
        for g in range(self.cached_groups, len(groups)):
            t0 = self.sim.now
            yield from self.backend.alloc_to(groups[g].region_end, ALLOC_THREADS)
            self.metrics.alloc_time += self.sim.now - t0
            self._alloc_done[g].succeed()
        for g in range(self.cached_groups, len(groups)):
            t0 = self.sim.now
            yield from self._load_with_retry(groups[g])
            self.metrics.io_time += self.sim.now - t0
            self.metrics.loaded_bytes += groups[g].nominal_bytes
            self._load_done[g].succeed()
        for g in range(self.cached_groups, len(groups)):
            t0 = self.sim.now
            yield from self.backend.protect_to(groups[g].region_end)
            duration = self.backend.decrypt_duration(
                groups[g].nominal_bytes, DECRYPT_THREADS
            )
            if duration:
                yield self.sim.timeout(duration)
            yield from self._decrypt_with_recovery(groups[g])
            self.metrics.decrypt_time += self.sim.now - t0
            self._decrypt_done[g].succeed()
        yield from self._compute_driver(sequential=True)

    # ------------------------------------------------------------------
    # I/O engine: loads in topological order
    # ------------------------------------------------------------------
    def _io_driver(self):
        try:
            for g in range(self.cached_groups, len(self.plan.groups)):
                yield self._alloc_done[g]
                if self._failure is not None:
                    return
                group = self.plan.groups[g]
                t0 = self.sim.now
                with self.tracer.span("load", "load g%d" % g, lane="I/O engine"):
                    yield from self._load_with_retry(group)
                self.metrics.io_time += self.sim.now - t0
                self.metrics.loaded_bytes += group.nominal_bytes
                self._load_done[g].succeed()
                heapq.heappush(self._decrypt_ready, g)
                self._kick_worker()
        except Exception as exc:  # I/O failure: abort the whole prefill
            self._abort(exc)

    def _load_with_retry(self, group):
        """Load one group, retrying transient storage errors with
        exponential backoff (generator; bounded by the recovery policy).

        A failed attempt may have loaded a prefix of the group's tensors;
        the retry re-reads the whole group — extra I/O time the metrics
        charge honestly — because the destination memory is still
        unprotected and plain re-writes are idempotent.
        """
        attempts = self.recovery.flash_read_attempts
        for attempt in range(1, attempts + 1):
            try:
                yield from self.backend.load_group(group)
                return
            except StorageError:
                if attempt == attempts:
                    raise
                self.metrics.io_retries += 1
                if self.recorder is not None:
                    self.recorder.record(
                        "retry", "pipeline.load", "retrying group load",
                        attempt=attempt, of=attempts,
                    )
                yield self.sim.timeout(self.recovery.backoff(attempt))

    def _decrypt_with_recovery(self, group):
        """Functional verify+decrypt with corrupted-chunk re-fetch
        (generator).  A checksum failure re-fetches the group's
        ciphertext over the bounce buffer instead of aborting the
        prefill; persistent failure (a real Iago attack, not a transient
        bit-flip) re-raises after the bounded attempts."""
        try:
            self.backend.decrypt_group_data(group)
            return
        except (IagoViolation, IntegrityError):
            if self.recovery.decrypt_refetch_attempts <= 0:
                raise
        last: Optional[BaseException] = None
        for attempt in range(1, self.recovery.decrypt_refetch_attempts + 1):
            self.metrics.refetches += 1
            if self.recorder is not None:
                self.recorder.record(
                    "retry", "pipeline.refetch", "re-fetching corrupted group",
                    attempt=attempt,
                )
            yield self.sim.timeout(self.recovery.backoff(attempt))
            # The with block records the span even when the re-fetch
            # itself fails, so failed attempts stay visible in the trace.
            with self.tracer.span("decrypt", "refetch", lane="CPU"):
                try:
                    yield from self.backend.refetch_group_data(group)
                except (IagoViolation, IntegrityError, StorageError) as exc:
                    last = exc
                    continue
                # The re-fetched ciphertext decrypts on the TA CPU again.
                duration = self.backend.decrypt_duration(
                    group.nominal_bytes, DECRYPT_THREADS
                )
                if duration:
                    yield self.sim.timeout(duration)
            return
        raise last

    def _abort(self, exc: BaseException) -> None:
        """Fail the pipeline cleanly: wake everything with the error so
        the compute chain unblocks and the caller can release memory."""
        if self._failure is not None:
            return
        self._failure = exc
        self._finished = True
        for event in self._decrypt_done[self.cached_groups :]:
            if not event.triggered:
                event.fail(exc)
        if self._pending_compute is not None:
            _op, _duration, done = self._pending_compute
            self._pending_compute = None
            if not done.triggered:
                done.fail(exc)
        self._kick_worker()

    # ------------------------------------------------------------------
    # computation chain
    # ------------------------------------------------------------------
    def _compute_driver(self, sequential: bool = False):
        for op in self.graph.ops:
            if self._failure is not None:
                raise self._failure
            gid = self.plan.group_for_op.get(op.op_id)
            if (
                gid is not None
                and gid >= self.cached_groups
                and not self._decrypt_done[gid].triggered
            ):
                yield self._decrypt_done[gid]
            duration = op_duration(op.flops, op.bytes_touched, self.platform, op.engine)
            if op.engine == Engine.CPU:
                if sequential:
                    yield self.sim.timeout(duration)
                else:
                    done = self.sim.event()
                    self._pending_compute = (op, duration, done)
                    self._kick_worker()
                    yield done
                self.metrics.cpu_compute_time += duration
            else:
                if self.npu_backend is None:
                    raise ConfigurationError("graph has NPU ops but no NPU backend")
                t0 = self.sim.now
                overhead0 = getattr(self.npu_backend, "overhead_time", 0.0)
                if self._flow_npu_pending:
                    # Flow step: first secure NPU job of this request.
                    self._flow_npu_pending = False
                    self.tracer.flow(
                        "t", self.ctx.flow_id, self.ctx.flow_name, lane="NPU"
                    )
                with self.tracer.span("compute", op.name, lane="NPU"):
                    yield from self.npu_backend.run(op, duration)
                self.metrics.npu_compute_time += self.sim.now - t0
                self.metrics.npu_overhead_time += (
                    getattr(self.npu_backend, "overhead_time", 0.0) - overhead0
                )

    # ------------------------------------------------------------------
    # CPU worker: the scheduler of Fig. 5
    # ------------------------------------------------------------------
    def _kick_worker(self):
        if self._worker_wake is not None and not self._worker_wake.triggered:
            self._worker_wake.succeed()

    def _cpu_worker(self):
        idle_since = None
        while True:
            if self._finished:
                return
            task = self._pick_task()
            if task is None:
                idle_since = self.sim.now
                self._worker_wake = self.sim.event()
                yield self._worker_wake
                self._worker_wake = None
                if idle_since is not None:
                    self.metrics.cpu_idle_time += self.sim.now - idle_since
                continue
            kind, payload = task
            try:
                if kind == "compute":
                    yield from self._do_compute(payload)
                elif kind == "decrypt":
                    yield from self._do_decrypt(payload)
                else:
                    yield from self._do_alloc(payload)
            except Exception as exc:  # decrypt checksum / alloc failures
                self._abort(exc)
                return

    def _pick_task(self):
        """The greedy priority rule of §4.1."""
        if self._pending_compute is not None:
            return ("compute", None)
        if self._decrypt_ready:
            return ("decrypt", heapq.heappop(self._decrypt_ready))
        if self._alloc_cursor < len(self.plan.groups):
            return ("alloc", self._alloc_cursor)
        return None

    def _do_compute(self, _payload):
        op, duration, done = self._pending_compute
        self._pending_compute = None
        with self.tracer.span("compute", op.name, lane="CPU"):
            if not self.sim.advance(duration):
                yield self.sim.timeout(duration)
        done.succeed()

    def _maybe_preempt(self):
        """Between micro-operators: run a newly ready compute op now."""
        if self.config.preemptive and self._pending_compute is not None:
            self.metrics.preemptions += 1
            yield from self._do_compute(None)

    def _do_alloc(self, g: int):
        group = self.plan.groups[g]
        target = group.region_end
        t0 = self.sim.now
        compute_stolen = 0.0
        while self.backend.allocated < target:
            if self._failure is not None:
                return  # aborted mid-task: stop ballooning memory
            step_target = min(target, self.backend.allocated + SLICE_BYTES)
            with self.tracer.span("alloc", "alloc g%d" % g, lane="CPU"):
                yield from self.backend.alloc_to(step_target, ALLOC_THREADS)
            c0 = self.sim.now
            yield from self._maybe_preempt()
            compute_stolen += self.sim.now - c0
        self.metrics.alloc_time += self.sim.now - t0 - compute_stolen
        self._alloc_cursor = g + 1
        if not self._alloc_done[g].triggered:
            self._alloc_done[g].succeed()

    def _do_decrypt(self, g: int):
        group = self.plan.groups[g]
        t0 = self.sim.now
        compute_stolen = 0.0
        yield from self.backend.protect_to(group.region_end)
        total = self.backend.decrypt_duration(group.nominal_bytes, DECRYPT_THREADS)
        slice_time = self.backend.decrypt_duration(SLICE_BYTES, DECRYPT_THREADS)
        remaining = total
        while remaining > 0:
            if self._failure is not None:
                return  # aborted mid-task
            step = remaining if slice_time <= 0 else min(slice_time, remaining)
            if step > 0:
                with self.tracer.span("decrypt", "decrypt g%d" % g, lane="CPU"):
                    if not self.sim.advance(step):
                        yield self.sim.timeout(step)
            remaining -= step
            if remaining > 0:
                c0 = self.sim.now
                yield from self._maybe_preempt()
                compute_stolen += self.sim.now - c0
        yield from self._decrypt_with_recovery(group)
        self.metrics.decrypt_time += self.sim.now - t0 - compute_stolen
        if not self._decrypt_done[g].triggered:
            self._decrypt_done[g].succeed()
