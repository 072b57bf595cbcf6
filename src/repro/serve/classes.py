"""Priority classes and per-class serving policy.

Three classes cover the on-device serving mix (the FlexServe taxonomy
mapped onto TZ-LLM's single-TA-per-model deployment):

* ``INTERACTIVE`` — a user is watching (chat turns, UI automation).
  Latency-SLO'd, shed under overload, and allowed to *preempt* a running
  lower-priority decode at a token boundary — the §5.2/Fig. 13
  preemption idea lifted from micro-operators to whole requests.
* ``BATCH`` — deferred-but-expected work (summarize my inbox).  Large
  queue, loose SLO, preemptible.
* ``BACKGROUND`` — opportunistic work (indexing, embeddings).  No
  latency SLO at all; first to be preempted.

Lower enum value = more urgent; the value doubles as the dispatch
priority key, so comparisons read naturally
(``PriorityClass.INTERACTIVE < PriorityClass.BATCH``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Dict, Optional, Union

from ..errors import ConfigurationError

__all__ = ["PriorityClass", "ClassPolicy", "default_policies"]


class PriorityClass(IntEnum):
    """Request urgency; lower value dispatches (and preempts) first."""

    INTERACTIVE = 0
    BATCH = 1
    BACKGROUND = 2

    def __init__(self, value):
        #: lowercase name, the form trace files and metric labels use
        #: (set once per member: it is read on every request).
        self.label = self.name.lower()

    @classmethod
    def parse(cls, value: Union["PriorityClass", str]) -> "PriorityClass":
        """Accept an enum member or its lowercase name (trace files)."""
        if isinstance(value, cls):
            return value
        try:
            return cls[str(value).upper()]
        except KeyError:
            raise ConfigurationError(
                "unknown priority class %r (have: %s)"
                % (value, ", ".join(m.name.lower() for m in cls))
            )


@dataclass(frozen=True)
class ClassPolicy:
    """How the gateway treats one priority class.

    ``queue_capacity`` bounds the class's queue *per model lane* — the
    backpressure guarantee that no queue grows without limit.
    ``ttft_slo`` is the class's time-to-first-token target in simulated
    seconds (``None`` = no latency promise, never shed on deadline);
    admission rejects a request whose predicted TTFT already exceeds it.
    ``preemptor`` classes may interrupt a running preemptible request;
    ``preemptible`` requests yield the TA at the next token boundary.
    """

    queue_capacity: int = 64
    ttft_slo: Optional[float] = None
    preemptor: bool = False
    preemptible: bool = True

    def __post_init__(self):
        if self.queue_capacity < 1:
            raise ConfigurationError("queue_capacity must be >= 1")
        if self.ttft_slo is not None and self.ttft_slo <= 0:
            raise ConfigurationError("ttft_slo must be positive (or None)")


def default_policies() -> Dict[PriorityClass, "ClassPolicy"]:
    """The default three-tier policy table (override per deployment)."""
    return {
        PriorityClass.INTERACTIVE: ClassPolicy(
            queue_capacity=8, ttft_slo=5.0, preemptor=True, preemptible=False
        ),
        PriorityClass.BATCH: ClassPolicy(
            queue_capacity=64, ttft_slo=60.0, preemptor=False, preemptible=True
        ),
        PriorityClass.BACKGROUND: ClassPolicy(
            queue_capacity=128, ttft_slo=None, preemptor=False, preemptible=True
        ),
    }
