"""Admission control: bounded queues, TTFT prediction, load shedding.

Two gates guard the door:

1. **Backpressure** — each (model, class) queue is bounded by the class
   policy's ``queue_capacity``; a full queue rejects with
   :class:`QueueFull` instead of growing without limit.
2. **Deadline shedding** — an EWMA service-time predictor estimates the
   arriving request's TTFT (work ahead of it in queue + the model's
   typical prefill); if that already exceeds the class's TTFT SLO the
   request is rejected with :class:`SLOUnattainable` — rejecting at
   arrival is strictly kinder than letting the request rot in queue past
   its deadline and burning TA time on an answer nobody is waiting for.

Everything here is deterministic: deques, monotonic ids, and an EWMA —
no randomness, so the same trace sheds the same requests every run.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from ..errors import ConfigurationError
from .classes import ClassPolicy, PriorityClass
from .errors import QueueFull, SLOUnattainable
from .request import ServeRequest

__all__ = ["ServiceTimePredictor", "AdmissionController"]


class ServiceTimePredictor:
    """EWMA per model of observed TTFT and whole-request service time.

    Warm/cold asymmetry, prompt-length spread and preemption retries all
    fold into the moving average — crude, but it only has to be good
    enough to tell "will blow the SLO by seconds" from "fine", and it
    needs no model-specific calibration.  Unknown models predict 0
    (optimistically admit until the first completion seeds the average).
    """

    def __init__(self, alpha: float = 0.3):
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError("alpha must be in (0, 1]")
        self.alpha = alpha
        self._ttft: Dict[str, float] = {}
        self._service: Dict[str, float] = {}
        self.observations = 0

    def observe(self, model_id: str, ttft: float, service_time: float) -> None:
        """Fold one completed request's measurements into the averages."""
        self.observations += 1
        for store, value in ((self._ttft, ttft), (self._service, service_time)):
            if model_id in store:
                store[model_id] += self.alpha * (value - store[model_id])
            else:
                store[model_id] = value

    def predicted_ttft(self, model_id: str) -> float:
        return self._ttft.get(model_id, 0.0)

    def predicted_service(self, model_id: str) -> float:
        return self._service.get(model_id, 0.0)


class AdmissionController:
    """Owns the bounded per-(model, class) queues and the two gates."""

    def __init__(
        self,
        model_ids: Iterable[str],
        policies: Dict[PriorityClass, ClassPolicy],
        predictor: Optional[ServiceTimePredictor] = None,
        shedding: bool = True,
    ):
        self.policies = policies
        self.predictor = predictor or ServiceTimePredictor()
        self.shedding = shedding
        model_ids = list(model_ids)
        self.queues: Dict[Tuple[str, PriorityClass], Deque[ServeRequest]] = {
            (model_id, cls): deque()
            for model_id in model_ids
            for cls in PriorityClass
        }
        #: queued counts per model, per class (over every model) and in
        #: total, kept where the deques change (:meth:`_count`) so the
        #: load signals read on every request cost no walk over queues.
        self._model_depth: Dict[str, int] = {model_id: 0 for model_id in model_ids}
        self._class_depth: Dict[PriorityClass, int] = {cls: 0 for cls in PriorityClass}
        self.queued = 0
        self.admitted = 0
        self.rejected_queue_full = 0
        self.rejected_slo = 0

    # ------------------------------------------------------------------
    def depth(self, model_id: str, cls: PriorityClass) -> int:
        return len(self.queues[(model_id, cls)])

    def total_depth(self, model_id: str) -> int:
        """Requests queued for one model, over every class."""
        return self._model_depth[model_id]

    def class_depth(self, cls: PriorityClass) -> int:
        """Requests of one class queued, over every model."""
        return self._class_depth[cls]

    def _count(self, request: ServeRequest, delta: int) -> None:
        """Move the kept counts by ``delta`` requests of ``request``'s
        model and class — called wherever a deque grows or shrinks."""
        self._model_depth[request.model_id] += delta
        self._class_depth[request.priority] += delta
        self.queued += delta

    def queued_ahead(self, model_id: str, cls: PriorityClass, scheduling: str) -> List[ServeRequest]:
        """Requests already queued that would dispatch before a new
        arrival of class ``cls`` under the given scheduling mode."""
        ahead: List[ServeRequest] = []
        for other in PriorityClass:
            if scheduling == "priority" and other > cls:
                continue  # a lower-priority queue never runs first
            ahead.extend(self.queues[(model_id, other)])
        return ahead

    # ------------------------------------------------------------------
    def admit(self, request: ServeRequest, predicted_wait: float, scheduling: str) -> None:
        """Enqueue ``request`` or raise a typed rejection.

        ``predicted_wait`` is the gateway's estimate of time until this
        request would reach the TA (running remainder + queued work
        ahead); the predictor adds the model's typical prefill on top.
        """
        policy = self.policies[request.priority]
        queue = self.queues[(request.model_id, request.priority)]
        if len(queue) >= policy.queue_capacity:
            request.state = "rejected"
            request.rejected_reason = QueueFull.reason
            self.rejected_queue_full += 1
            raise QueueFull(
                "%s queue for %s at capacity (%d)"
                % (request.priority.label, request.model_id, policy.queue_capacity),
                request=request,
            )
        if self.shedding and policy.ttft_slo is not None:
            predicted_ttft = predicted_wait + self.predictor.predicted_ttft(request.model_id)
            if predicted_ttft > policy.ttft_slo:
                request.state = "rejected"
                request.rejected_reason = SLOUnattainable.reason
                self.rejected_slo += 1
                raise SLOUnattainable(
                    "predicted TTFT %.2fs exceeds the %.2fs %s SLO"
                    % (predicted_ttft, policy.ttft_slo, request.priority.label),
                    request=request,
                )
        queue.append(request)
        self._count(request, 1)
        self.admitted += 1

    def requeue_front(self, request: ServeRequest) -> None:
        """Put a preempted victim back at the head of its class queue
        (it keeps its arrival-order claim within the class)."""
        self.queues[(request.model_id, request.priority)].appendleft(request)
        self._count(request, 1)

    def remove(self, request: ServeRequest) -> bool:
        """Pull a still-queued request back out (cancellation / drain).

        Returns False when the request is not queued here — already
        dispatched, or never admitted — so callers can fall back to the
        in-flight cancellation path.
        """
        queue = self.queues.get((request.model_id, request.priority))
        if queue is None:
            return False
        try:
            queue.remove(request)
        except ValueError:
            return False
        self._count(request, -1)
        return True

    def drain(self, model_id: Optional[str] = None) -> List[ServeRequest]:
        """Empty every queue (or one model's) and return the requests in
        deterministic (model, class, FIFO) order — the device-down path:
        the router re-routes them instead of letting them rot."""
        drained: List[ServeRequest] = []
        for (mid, cls) in sorted(self.queues, key=lambda k: (k[0], k[1].value)):
            if model_id is not None and mid != model_id:
                continue
            queue = self.queues[(mid, cls)]
            while queue:
                request = queue.popleft()
                self._count(request, -1)
                drained.append(request)
        return drained

    def peek_next(self, model_id: str, scheduling: str) -> Optional[ServeRequest]:
        """The request :meth:`pop_next` would return, without removing it
        — batch-aware dispatch checks the KV-block budget before
        committing to the pop."""
        if scheduling == "priority":
            for cls in PriorityClass:
                queue = self.queues[(model_id, cls)]
                if queue:
                    return queue[0]
            return None
        if scheduling != "fifo":
            raise ConfigurationError("scheduling must be 'priority' or 'fifo'")
        best: Optional[ServeRequest] = None
        for cls in PriorityClass:
            queue = self.queues[(model_id, cls)]
            if queue and (best is None or queue[0].request_id < best.request_id):
                best = queue[0]
        return best

    def pop_next(self, model_id: str, scheduling: str) -> Optional[ServeRequest]:
        """The next request the lane should run, or None.

        ``priority``: head of the most urgent non-empty class queue.
        ``fifo``: the globally oldest queued request (by request id, which
        is monotonically assigned at submission).
        """
        request = self.peek_next(model_id, scheduling)
        if request is not None:
            self.queues[(model_id, request.priority)].popleft()
            self._count(request, -1)
        return request
