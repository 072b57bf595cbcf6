"""The multi-tenant serving gateway: routing, dispatch, preemption.

The gateway sits between client tenants and the protected models of one
:class:`~repro.core.system.TZLLM` (one TA per model).  Each model is
a *lane* that serves one request at a time (the single-TA constraint the
paper's deployment has); the gateway's job is deciding **which** request
that is:

* ``scheduling="fifo"`` — global arrival order, the baseline every
  serving paper measures against;
* ``scheduling="priority"`` — most-urgent class first, FIFO within a
  class; with ``preemption=True`` an arriving preemptor-class request
  signals the running victim's :class:`~repro.core.llm_ta.PreemptionGate`
  and the TA yields at the next token boundary (Fig. 13's preemption
  lifted to request granularity).  The victim's partial decode is
  discarded and the request re-queued at the head of its class — its
  cached parameter prefix survives, so the retry skips restoration.

With ``batching=True`` a lane seats up to the TA's batch size (its
:class:`~repro.core.batch.BatchConfig`) of concurrently decoding
requests: dispatch fills the batch up to the KV-block budget before
queueing, and on a TA whose batch size exceeds one, preemption evicts a
victim from the batch with its blocks *parked* so the resume skips both
prefill and the already-decoded tokens.

Admission (bounded queues + deadline shedding) happens before anything
queues; see :mod:`repro.serve.admission`.  All scheduling state lives in
deques and counters — no RNG — so serving is deterministic end to end.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from ..core.llm_ta import PreemptionGate
from ..core.system import TZLLM
from ..errors import ConfigurationError
from ..obs import TraceContext
from ..sim.trace import NULL_TRACER
from ..workloads.traces import TenantRequest
from .admission import AdmissionController, ServiceTimePredictor
from .breaker import CircuitBreaker, classify_failure
from .classes import ClassPolicy, PriorityClass, default_policies
from .errors import CircuitOpen, ContextTooLong
from .request import ServeRequest
from .slo import SLOAccountant

__all__ = ["GatewayConfig", "ServeGateway"]


@dataclass
class GatewayConfig:
    """Gateway behaviour knobs (all orthogonal, for ablations)."""

    scheduling: str = "priority"  # "priority" | "fifo"
    preemption: bool = True
    shedding: bool = True
    #: continuous batching: lanes hold up to the TA's batch size of
    #: concurrently decoding requests, dispatch fills the batch up to the
    #: KV-block budget, and preemption evicts from the batch with the
    #: victim's blocks *parked* for a prefill-free resume (on TAs whose
    #: ``BatchConfig.max_batch_size`` exceeds one).
    batching: bool = False
    policies: Dict[PriorityClass, ClassPolicy] = field(default_factory=default_policies)
    #: failure handling (repro.faults): how many times a request whose
    #: attempt died on a *retryable* fault is re-queued before it fails.
    max_retries: int = 2
    #: per-lane circuit breaker: consecutive failures that open it, and
    #: how long an open lane cools down before probing.
    breaker_threshold: int = 3
    breaker_cooldown: float = 5.0
    #: flight-recorder events attached to a terminally failed request as
    #: its postmortem (repro.obs).
    postmortem_events: int = 32

    def __post_init__(self):
        if self.scheduling not in ("priority", "fifo"):
            raise ConfigurationError("scheduling must be 'priority' or 'fifo'")
        for cls in PriorityClass:
            if cls not in self.policies:
                raise ConfigurationError("missing policy for class %s" % cls.label)
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be non-negative")
        if self.breaker_threshold < 1:
            raise ConfigurationError("breaker_threshold must be at least 1")
        if self.breaker_cooldown <= 0:
            raise ConfigurationError("breaker_cooldown must be positive")
        if self.postmortem_events < 1:
            raise ConfigurationError("postmortem_events must be at least 1")


class _Lane:
    """One model's TA: up to ``capacity`` requests running (1 without
    batching — the paper's single-stream TA)."""

    __slots__ = (
        "model_id", "capacity", "max_tokens", "running", "gates", "dispatched_at",
        "breaker", "probe_armed", "kv_blocked_id",
    )

    def __init__(self, model_id: str, breaker: CircuitBreaker, capacity: int = 1):
        self.model_id = model_id
        self.capacity = capacity
        #: the TA's prompt + output limit, checked at admission (None:
        #: the TA has none, as on a fleet surrogate).
        self.max_tokens: Optional[int] = None
        self.running: List[ServeRequest] = []
        self.gates: Dict[int, PreemptionGate] = {}
        self.dispatched_at = 0.0
        self.breaker = breaker
        #: a wake-up process is already scheduled for the cooldown end.
        self.probe_armed = False
        #: last request id seen blocking at the head on KV admission —
        #: dispatch re-evaluates on every lane event, so block accounting
        #: records each blocked head once, not once per poll.
        self.kv_blocked_id = -1

    @property
    def busy(self) -> bool:
        return len(self.running) >= self.capacity

    def add(self, request: ServeRequest, gate: PreemptionGate) -> None:
        self.running.append(request)
        self.gates[request.request_id] = gate

    def remove(self, request: ServeRequest) -> bool:
        """Unseat ``request``; True when it was running here."""
        self.gates.pop(request.request_id, None)
        if request in self.running:
            self.running.remove(request)
            return True
        return False


class ServeGateway:
    """Admission, routing and priority-preemptive dispatch for many tenants."""

    def __init__(
        self,
        system: TZLLM,
        config: Optional[GatewayConfig] = None,
        tracer=None,
        observability=None,
        gateway_id: Optional[str] = None,
    ):
        self.system = system
        self.sim = system.sim
        self.config = config or GatewayConfig()
        self.tracer = tracer if tracer is not None else (getattr(system, "tracer", None) or NULL_TRACER)
        #: the repro.obs bundle, if the system was instrument()-ed (or one
        #: is passed explicitly): serving counters land on its registry
        #: and terminal failures snapshot its flight recorder.
        self.observability = (
            observability
            if observability is not None
            else getattr(system, "observability", None)
        )
        if self.observability is not None:
            self.registry = self.observability.registry
            self.recorder = self.observability.recorder
        else:
            from ..obs import MetricsRegistry

            self.registry = MetricsRegistry()
            self.recorder = None
        # Systems are recognised structurally (a ``tas`` dict of
        # model_id -> TA and ``infer(..., model_id=)``), so fleet
        # surrogates route without isinstance checks.
        model_ids = list(system.tas)
        #: stable identity surfaced by health() and fleet rollups: the
        #: explicit ``gateway_id`` wins, then the system's device name,
        #: then a deterministic id derived from the hosted models.
        device_name = getattr(system, "device_name", "")
        self.gateway_id = gateway_id or device_name or "gw:" + "+".join(sorted(model_ids))
        #: batching mode: the TA behind each lane (lane capacity = the
        #: TA's batch size; dispatch consults its KV-block budget).
        self._tas: Dict[str, object] = {}
        if self.config.batching:
            self._tas.update(system.tas)
        self.lanes: Dict[str, _Lane] = {}
        for m in model_ids:
            breaker = CircuitBreaker(
                self.sim,
                failure_threshold=self.config.breaker_threshold,
                cooldown=self.config.breaker_cooldown,
            )
            breaker.lane = m
            breaker.metrics = self.registry
            breaker.recorder = self.recorder
            capacity = 1
            if m in self._tas:
                capacity = self._tas[m].batch_engine.config.max_batch_size
            self.lanes[m] = _Lane(m, breaker, capacity=capacity)
            self.lanes[m].max_tokens = getattr(system.tas[m], "max_tokens", None)
        #: requests seated on any lane, kept where lanes seat and unseat
        #: them — with the admission controller's queued count, the
        #: fleet router's O(1) load signal.
        self.running_count = 0
        self.predictor = ServiceTimePredictor()
        self.admission = AdmissionController(
            model_ids,
            self.config.policies,
            predictor=self.predictor,
            shedding=self.config.shedding,
        )
        self.accountant = SLOAccountant(
            self.sim, self.config.policies, tracer=self.tracer, registry=self.registry
        )
        self._request_ids = itertools.count(1)
        #: deterministic request log, one line per lifecycle transition.
        self.log: List[str] = []
        self.failed: List[ServeRequest] = []
        self.cancelled: List[ServeRequest] = []
        self.preemption_signals = 0
        self.wasted_time = 0.0
        self.wasted_tokens = 0
        #: set by AlertEngine(gateway=...) so health() can report alerts.
        self.alert_engine = None

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(
        self,
        prompt_tokens: int,
        output_tokens: int = 0,
        model_id: Optional[str] = None,
        priority: Union[PriorityClass, str] = PriorityClass.INTERACTIVE,
        tenant: str = "anon",
        ctx: Optional[TraceContext] = None,
        prompt_spec=None,
    ) -> ServeRequest:
        """Admit a request at the current simulated time.

        Returns the queued :class:`ServeRequest` (its ``completion``
        event triggers when served) or raises a typed
        :class:`~repro.serve.errors.AdmissionRejected` subclass.

        ``ctx`` lets a caller that owns a larger unit of work (the fleet
        router's per-attempt ticket legs) supply the trace identity;
        without it the gateway mints one from its own request id.

        ``prompt_spec`` (a :class:`~repro.llm.PromptSpec`) describes the
        prompt's shareable structure; with a prefix-sharing TA, dispatch
        budgets only the predicted non-shared block count and the TA
        takes matching blocks by reference.
        """
        cls = PriorityClass.parse(priority)
        if model_id is None:
            if len(self.lanes) != 1:
                raise ConfigurationError("model_id required with multiple models")
            model_id = next(iter(self.lanes))
        if model_id not in self.lanes:
            raise ConfigurationError("no TA hosts model %r" % model_id)
        if prompt_tokens < 1 or output_tokens < 0:
            raise ConfigurationError("bad token counts for request")
        now = self.sim.now
        policy = self.config.policies[cls]
        request = ServeRequest(
            request_id=next(self._request_ids),
            tenant=tenant,
            model_id=model_id,
            priority=cls,
            prompt_tokens=prompt_tokens,
            output_tokens=output_tokens,
            arrived_at=now,
            deadline=None if policy.ttft_slo is None else now + policy.ttft_slo,
            completion=self.sim.event(),
            prompt_spec=prompt_spec,
        )
        request.trace = ctx if ctx is not None else TraceContext(request.request_id, tenant=tenant)
        lane = self.lanes[model_id]
        try:
            if lane.max_tokens is not None and prompt_tokens + output_tokens > lane.max_tokens:
                request.state = "rejected"
                request.rejected_reason = ContextTooLong.reason
                raise ContextTooLong(
                    "%d prompt + %d output tokens exceed %s's max_tokens (%d)"
                    % (prompt_tokens, output_tokens, model_id, lane.max_tokens),
                    request=request,
                )
            if lane.breaker.state == "open" and not lane.breaker.allow():
                request.state = "rejected"
                request.rejected_reason = CircuitOpen.reason
                raise CircuitOpen(
                    "lane %s cooling down for another %.3fs"
                    % (model_id, lane.breaker.remaining_cooldown()),
                    request=request,
                )
            self.admission.admit(request, self._predicted_wait(model_id, cls), self.config.scheduling)
        except Exception as exc:
            # Failure provenance: the rejection's exception type and sim
            # timestamp stay on the request record and in the log.
            reason = getattr(exc, "reason", "rejected")
            request.rejected_at = now
            self.log.append(
                request.log_line("reject", now, "reason=%s error=%s" % (reason, type(exc).__name__))
            )
            self.accountant.note_rejected(cls, reason)
            raise
        self.log.append(
            request.log_line("admit", now, "depth=%d" % self.admission.depth(model_id, cls))
        )
        self.accountant.note_admitted(cls)
        self.accountant.note_queue_depth(cls, self.admission.class_depth(cls))
        # Flow start: the arrival instant, inside the request's eventual
        # gateway queue span — the other legs are emitted by the prefill
        # pipeline (TEE lanes) and at completion.
        if self.tracer.enabled:
            self.tracer.flow(
                "s", request.trace.flow_id, request.trace.flow_name, lane="gateway"
            )
        self._maybe_preempt_for(request)
        self._maybe_dispatch(model_id)
        return request

    def submit_trace_request(self, event: TenantRequest) -> ServeRequest:
        """Admit one multi-tenant trace arrival (see workloads.traces)."""
        return self.submit(
            prompt_tokens=event.prompt_tokens,
            output_tokens=event.output_tokens,
            model_id=event.model_id,
            priority=event.priority,
            tenant=event.tenant,
        )

    # ------------------------------------------------------------------
    # cancellation and drain (the fleet tier's failover surface)
    # ------------------------------------------------------------------
    def cancel(self, request: ServeRequest, reason: str = "cancelled") -> bool:
        """Abandon an admitted request: a hedge lost its race or the
        device is going away.

        A still-queued request is pulled out and finalized immediately; a
        running one has its preemption gate signalled and finalizes as
        ``cancelled`` at the next token boundary.  Returns False when the
        request is already terminal (done/failed/cancelled) — the race
        where the winner and the cancel land on the same instant.
        """
        if request.state in ("done", "failed", "cancelled", "rejected"):
            return False
        request.cancel_requested = True
        request.cancel_reason = reason
        if request.state == "queued" and self.admission.remove(request):
            self._finalize_cancelled(request, reason)
            self.accountant.note_queue_depth(
                request.priority, self.admission.class_depth(request.priority)
            )
            return True
        gate = self.lanes[request.model_id].gates.get(request.request_id)
        if gate is not None:
            gate.request(cause="cancel:%s" % reason, at=self.sim.now)
        return True

    def drain_queued(self, reason: str = "drain") -> List[ServeRequest]:
        """Pull every queued request out of admission (device-down path).

        The requests are finalized ``cancelled`` here; the fleet router
        re-routes the live ones to surviving devices.  In-flight requests
        are *not* touched — on a crash the device model itself kills them
        with :class:`~repro.errors.DeviceLost` at the next clock edge.
        """
        drained = self.admission.drain()
        for request in drained:
            request.cancel_requested = True
            request.cancel_reason = reason
            self._finalize_cancelled(request, reason)
        for cls in PriorityClass:
            self.accountant.note_queue_depth(cls, self.admission.class_depth(cls))
        return drained

    def _finalize_cancelled(self, request: ServeRequest, reason: str) -> None:
        now = self.sim.now
        request.state = "cancelled"
        request.cancelled_at = now
        self.cancelled.append(request)
        self.accountant.note_cancelled(request.priority, reason)
        self.log.append(request.log_line("cancel", now, "reason=%s" % reason))
        if self.recorder is not None:
            self.recorder.record(
                "serve", "gateway.cancel", request_id=request.request_id,
                reason=reason,
            )
            if request.kv_blocked:
                request.postmortem_memory = tuple(
                    self.recorder.tail_category(
                        "memory", self.config.postmortem_events
                    )
                )
        if request.completion is not None and not request.completion.triggered:
            request.completion.succeed(request)

    def reset_lanes(self) -> None:
        """Forget per-lane failure history (post-reboot re-admission).

        A device that crashed, rebooted and re-attested starts with
        fresh breakers: the failures that opened them died with the old
        secure world, and a re-admitted device must be dispatchable
        immediately or the router's re-admission is a no-op.
        """
        for lane in self.lanes.values():
            lane.breaker.record_success()

    # ------------------------------------------------------------------
    # prediction (admission input)
    # ------------------------------------------------------------------
    def _predicted_wait(self, model_id: str, cls: PriorityClass) -> float:
        """Estimated time until a new arrival reaches the TA."""
        lane = self.lanes[model_id]
        wait = 0.0
        if lane.busy:
            elapsed = self.sim.now - lane.dispatched_at
            wait += max(0.0, self.predictor.predicted_service(model_id) - elapsed)
        for queued in self.admission.queued_ahead(model_id, cls, self.config.scheduling):
            wait += self.predictor.predicted_service(queued.model_id)
        return wait

    # ------------------------------------------------------------------
    # dispatch and preemption
    # ------------------------------------------------------------------
    def _maybe_preempt_for(self, request: ServeRequest) -> None:
        """Signal the running victim's gate if ``request`` outranks it."""
        if self.config.scheduling != "priority" or not self.config.preemption:
            return
        if not self.config.policies[request.priority].preemptor:
            return
        lane = self.lanes[request.model_id]
        if not lane.busy:
            # A free slot exists: dispatch will seat the arrival.  (A
            # KV-budget shortage never preempts — parking a victim keeps
            # its blocks, so eviction would not free capacity anyway.)
            return
        # Victim: the least urgent preemptible running request whose gate
        # has not been signalled yet; ties broken toward the newest (it
        # has the least sunk decode work).
        victim: Optional[ServeRequest] = None
        for candidate in lane.running:
            gate = lane.gates.get(candidate.request_id)
            if gate is None or gate.requested:
                continue  # one signal is enough; that slot is yielding
            if candidate.priority <= request.priority:
                continue  # equal or more urgent: not a victim
            if not self.config.policies[candidate.priority].preemptible:
                continue
            if victim is None or (candidate.priority, candidate.request_id) > (
                victim.priority,
                victim.request_id,
            ):
                victim = candidate
        if victim is None:
            return
        lane.gates[victim.request_id].request(cause="r%04d" % request.request_id, at=self.sim.now)
        self.preemption_signals += 1
        self.log.append(
            victim.log_line("preempt", self.sim.now, "by=r%04d" % request.request_id)
        )
        if self.tracer.enabled:
            self.tracer.instant(
                "preempt",
                "r%d preempts r%d" % (request.request_id, victim.request_id),
                lane="gateway",
            )

    def _maybe_dispatch(self, model_id: str) -> None:
        """Fill the lane: seat queued requests while there is a free slot
        *and* (in batching mode) KV-block budget for the head request.  A
        head that does not fit blocks the queue — head-of-line order is
        what makes shedding predictions and priority order meaningful."""
        lane = self.lanes[model_id]
        ta = self._tas.get(model_id)
        while not lane.busy:
            if not lane.breaker.allow():
                # Open lane: nothing dispatches until the cooldown elapses.
                # Schedule a wake-up so queued requests get their probe.
                self._arm_probe_timer(lane)
                return
            if lane.breaker.state != "closed" and lane.running:
                return  # half-open: one probe at a time
            request = self.admission.peek_next(model_id, self.config.scheduling)
            if request is None:
                return
            if ta is not None and not ta.kv_can_admit(
                request.prompt_tokens,
                request.output_tokens,
                request.request_id,
                spec=request.prompt_spec,
            ):
                request.kv_blocked = True
                if lane.kv_blocked_id != request.request_id:
                    lane.kv_blocked_id = request.request_id
                    self.registry.counter(
                        "serve_kv_admission_blocked_total",
                        "head-of-line requests blocked on KV-block admission",
                    ).inc(model=model_id)
                    if self.recorder is not None:
                        self.recorder.record(
                            "memory", "gateway.kv_admission_block",
                            request_id=request.request_id, model=model_id,
                            prompt=request.prompt_tokens,
                            output=request.output_tokens,
                        )
                return  # head-of-line block until blocks drain
            lane.kv_blocked_id = -1
            self.admission.pop_next(model_id, self.config.scheduling)
            if ta is not None:
                ta.kv_reserve(
                    request.request_id,
                    request.prompt_tokens,
                    request.output_tokens,
                    spec=request.prompt_spec,
                )
            if lane.breaker.state != "closed":
                lane.breaker.on_dispatch()  # this request is the probe
            self.accountant.note_queue_depth(
                request.priority, self.admission.class_depth(request.priority)
            )
            gate = PreemptionGate()
            lane.add(request, gate)
            self.running_count += 1
            lane.dispatched_at = self.sim.now
            self.sim.process(
                self._run_attempt(lane, request, gate),
                name="serve-r%d" % request.request_id,
            )

    def _arm_probe_timer(self, lane: _Lane) -> None:
        if lane.probe_armed:
            return
        lane.probe_armed = True
        delay = max(lane.breaker.remaining_cooldown(), 1e-9)

        def waker():
            yield self.sim.timeout(delay)
            lane.probe_armed = False
            self._maybe_dispatch(lane.model_id)

        self.sim.process(waker(), name="breaker-probe:%s" % lane.model_id)

    def _run_attempt(self, lane: _Lane, request: ServeRequest, gate: PreemptionGate):
        """One dispatch of one request on the lane's TA (a process)."""
        now = self.sim.now
        request.attempts += 1
        request.state = "running"
        if request.dispatched_at is None:
            request.dispatched_at = now
        self.log.append(request.log_line("dispatch", now, "attempt=%d" % request.attempts))
        if self.recorder is not None:
            self.recorder.record(
                "serve", "gateway.dispatch", request_id=request.request_id,
                model=lane.model_id, attempt=request.attempts,
            )
        if request.attempts == 1 and self.tracer.enabled:
            self.tracer.record(
                "gateway", "queue r%d" % request.request_id, request.arrived_at, lane="gateway"
            )
        self.accountant.note_dispatch(lane.model_id)
        span_start = now
        try:
            record = yield from self._infer(request, gate)
        except Exception as exc:
            self._release(lane, request)
            self._handle_failure(lane, request, exc, span_start)
            self._maybe_dispatch(lane.model_id)
            return
        lane.breaker.record_success()
        self._release(lane, request)
        elapsed = self.sim.now - span_start
        if self.tracer.enabled:
            self.tracer.record(
                "gateway",
                "serve r%d%s" % (request.request_id, " (preempted)" if record.preempted else ""),
                span_start,
                lane="gateway",
            )
        if record.preempted and request.cancel_requested:
            # The gate was signalled by cancel(), not by a preemptor: the
            # partial decode is abandoned for good, so it is all waste.
            self.wasted_time += elapsed
            self.wasted_tokens += len(record.decode.token_ids) if record.decode else 0
            self._finalize_cancelled(request, request.cancel_reason or "cancelled")
            self._maybe_dispatch(lane.model_id)
            return
        if record.preempted:
            request.preemptions += 1
            request.state = "queued"
            if not record.parked:
                # Parked victims keep their KV blocks and decoded tokens
                # for a prefill-free resume — nothing was wasted.
                self.wasted_time += elapsed
                self.wasted_tokens += len(record.decode.token_ids) if record.decode else 0
            self.accountant.note_preemption(request.priority)
            self.admission.requeue_front(request)
            self.accountant.note_queue_depth(
                request.priority, self.admission.class_depth(request.priority)
            )
            self.log.append(
                request.log_line("requeue", self.sim.now, "preemptions=%d" % request.preemptions)
            )
        else:
            request.record = record
            request.state = "done"
            request.first_token_at = (
                record.first_token_at
                if record.first_token_at is not None
                else record.started_at + record.ttft
            )
            request.finished_at = self.sim.now
            if request.trace is not None and self.tracer.enabled:
                # Flow finish: bound to the end of the serve span.
                self.tracer.flow(
                    "f", request.trace.flow_id, request.trace.flow_name, lane="gateway"
                )
            self.predictor.observe(request.model_id, ttft=record.ttft, service_time=elapsed)
            self.accountant.observe(request)
            self.log.append(
                request.log_line(
                    "complete",
                    self.sim.now,
                    "ttft=%.6f e2e=%.6f tokens=%d"
                    % (request.ttft, request.e2e_latency, request.tokens_generated),
                )
            )
            request.completion.succeed(request)
        self._maybe_dispatch(lane.model_id)

    def _release(self, lane: _Lane, request: ServeRequest) -> None:
        """The attempt left the TA: close its busy interval, unseat it."""
        self.accountant.note_release(lane.model_id)
        if lane.remove(request):
            self.running_count -= 1

    def _handle_failure(self, lane: _Lane, request: ServeRequest, exc: BaseException, span_start: float) -> None:
        """A dispatch died inside the TA: classify, retry or fail.

        Failure provenance — the exception type, sim timestamp and
        retryable/fatal classification — lands on the request record, in
        the deterministic log, and in the per-class SLO export.  The
        failed request's completion event *succeeds* with the request
        (state ``failed``): load generators wait on these events with a
        fail-fast :class:`~repro.sim.core.AllOf`, so failing the event
        would tear down the whole workload instead of reporting one
        failed request.
        """
        now = self.sim.now
        if request.cancel_requested:
            # The caller already gave up on this attempt; however it died,
            # it is a cancellation, not a lane failure — the breaker must
            # not open over work nobody is waiting for.
            self.wasted_time += now - span_start
            self._finalize_cancelled(request, request.cancel_reason or "cancelled")
            return
        kind = type(exc).__name__
        classification = classify_failure(exc)
        request.note_failure(now, kind, classification)
        self.wasted_time += now - span_start
        self.accountant.note_failure(request.priority, kind)
        lane.breaker.record_failure()
        if self.tracer.enabled:
            self.tracer.record(
                "gateway", "fail r%d (%s)" % (request.request_id, kind), span_start, lane="gateway"
            )
        retryable = classification == "retryable"
        if retryable and request.failure_count <= self.config.max_retries:
            request.state = "queued"
            self.admission.requeue_front(request)
            self.accountant.note_retry(request.priority)
            if self.recorder is not None:
                self.recorder.record(
                    "retry", "gateway.requeue", "attempt died on retryable fault",
                    request_id=request.request_id, error=kind,
                    retries=request.failure_count,
                )
            self.accountant.note_queue_depth(
                request.priority, self.admission.class_depth(request.priority)
            )
            self.log.append(
                request.log_line(
                    "requeue", now, "error=%s retries=%d" % (kind, request.failure_count)
                )
            )
        else:
            request.state = "failed"
            request.failed_at = now
            self.failed.append(request)
            self.accountant.note_failed(request.priority)
            if self.recorder is not None:
                # Postmortem provenance: snapshot the flight recorder's
                # tail onto the request before anything else overwrites
                # the ring — the injected faults and every retry attempt
                # that led here are in these events.
                self.recorder.record(
                    "serve", "gateway.failed", "retries exhausted or fatal fault",
                    request_id=request.request_id, error=kind, klass=classification,
                )
                request.postmortem = self.recorder.tail(self.config.postmortem_events)
                if request.kv_blocked:
                    # The request once stalled on KV admission: keep the
                    # memory-category history (region resizes, block
                    # churn) alongside the generic tail — it explains
                    # why the pool had no headroom.
                    request.postmortem_memory = tuple(
                        self.recorder.tail_category(
                            "memory", self.config.postmortem_events
                        )
                    )
            self.log.append(
                request.log_line("fail", now, "error=%s class=%s" % (kind, classification))
            )
            if request.completion is not None and not request.completion.triggered:
                request.completion.succeed(request)

    def _infer(self, request: ServeRequest, gate: PreemptionGate):
        """Route the CA→TA invocation to the TA hosting the model."""
        record = yield from self.system.infer(
            request.prompt_tokens,
            request.output_tokens,
            preempt=gate,
            ctx=request.trace,
            prompt=request.prompt_spec,
            model_id=request.model_id,
        )
        return record

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------
    def submit_blocking(self, *args, **kwargs) -> ServeRequest:
        """Submit and drive the simulator until the request completes."""
        request = self.submit(*args, **kwargs)
        return self.sim.run_until(request.completion)

    @property
    def queue_depth(self) -> int:
        return self.admission.queued

    def health(self) -> Dict[str, object]:
        """One JSON-stable snapshot of gateway health at the current time:
        per-lane breaker state, busyness and queue depth, total queue
        depth, completion/failure counts, and any alerts firing (when an
        :class:`~repro.obs.AlertEngine` is attached to this gateway)."""
        lanes = {}
        for model_id in sorted(self.lanes):
            lane = self.lanes[model_id]
            lanes[model_id] = {
                "breaker": lane.breaker.state,
                "busy": lane.busy,
                "running": len(lane.running),
                "queue_depth": self.admission.total_depth(model_id),
            }
        firing = [] if self.alert_engine is None else self.alert_engine.firing()
        completed = sum(len(stats.observed) for stats in self.accountant.classes.values())
        return {
            "gateway_id": self.gateway_id,
            "at": self.sim.now,
            "lanes": lanes,
            "queue_depth": self.queue_depth,
            "completed": completed,
            "failed": len(self.failed),
            "cancelled": len(self.cancelled),
            "alerts_firing": firing,
            "healthy": not firing
            and all(l["breaker"] != "open" for l in lanes.values()),
        }

    def request_log(self) -> str:
        """The full deterministic request log, newline-joined."""
        return "\n".join(self.log)
