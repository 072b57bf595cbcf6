"""Typed admission failures: a rejected request, not a broken gateway.

Load shedding is a *feature* of the serving gateway — a request whose
predicted TTFT already blows its SLO is turned away at the door instead
of rotting in queue — so rejections carry their own exception types that
callers can catch and count, distinct from configuration misuse.
"""

from __future__ import annotations

from ..errors import TZLLMError

__all__ = [
    "AdmissionRejected",
    "CircuitOpen",
    "ContextTooLong",
    "QueueFull",
    "SLOUnattainable",
]


class AdmissionRejected(TZLLMError):
    """Base class: the gateway refused to enqueue a request.

    ``request`` is the rejected :class:`~repro.serve.request.ServeRequest`
    (state ``rejected``); ``reason`` is a short machine-readable tag.
    """

    reason = "rejected"

    def __init__(self, message: str, request=None):
        super().__init__(message)
        self.request = request


class QueueFull(AdmissionRejected):
    """The priority class's bounded queue is at capacity (backpressure)."""

    reason = "queue-full"


class SLOUnattainable(AdmissionRejected):
    """Predicted TTFT already exceeds the class SLO (deadline shedding)."""

    reason = "slo-unattainable"


class CircuitOpen(AdmissionRejected):
    """The model's lane breaker is open: its TA has been failing and is
    cooling down, so new requests are turned away at the door instead of
    queueing behind a broken dependency."""

    reason = "circuit-open"


class ContextTooLong(AdmissionRejected):
    """Prompt plus output exceed the model TA's ``max_tokens``: the TA
    would reject the turn after an SMC, so it is turned away at the door
    instead of failing on (and counting against) the lane."""

    reason = "context-too-long"
