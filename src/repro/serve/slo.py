"""SLO accounting: per-class latency summaries and utilization.

Everything is sampled on *simulated* time and kept in plain deterministic
containers, so two identical runs produce byte-identical metric exports
(`to_dict` → JSON).  Latency summaries are computed on demand from the
completed requests the accountant observed (each request already carries
its TTFT, TBT and end-to-end latency) through the shared
:class:`repro.analysis.metrics.LatencySummary`; queue depth keeps only a
running per-class peak, since the current depth is the
``serve_queue_depth`` gauge.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..analysis.metrics import LatencySummary
from ..errors import ConfigurationError
from ..obs import MetricsRegistry
from ..sim.trace import NULL_TRACER
from .classes import ClassPolicy, PriorityClass
from .request import ServeRequest

__all__ = ["SLOAccountant"]

#: summary kind -> the latency it reads off a completed request, or None
#: where the request has no such sample (a TBT needs two tokens).
_LATENCY = {
    "ttft": lambda request: request.ttft,
    "tbt": lambda request: request.tbt if request.tokens_generated > 1 else None,
    "e2e": lambda request: request.e2e_latency,
}


class _ClassStats:
    """Per-class view over the accountant's metric registry.

    Keeps the class's completed requests (percentile summaries are
    computed from them) and its queue-depth peak; every scalar counter
    reads through to labeled instruments on the shared
    :class:`~repro.obs.MetricsRegistry`, so the same numbers appear in
    ``accountant.to_dict()`` and in the registry's Prometheus export
    without double bookkeeping.
    """

    def __init__(self, cls: PriorityClass, registry: MetricsRegistry):
        self.cls = cls
        self._registry = registry
        self._label = cls.label
        #: completed requests in observation order.
        self.observed: List[ServeRequest] = []
        #: the deepest this class's queue has been.
        self.queue_depth_max = 0.0

    def _value(self, name: str) -> int:
        counter = self._registry.counter(name)
        return int(counter.value(**{"class": self._label}))

    def _by_label(self, name: str, label: str) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for key, value in self._registry.counter(name).samples():
            labels = dict(key)
            if labels.get("class") == self._label:
                out[labels[label]] = int(value)
        return out

    @property
    def completed(self) -> int:
        return self._value("serve_completed_total")

    @property
    def tokens_out(self) -> int:
        return self._value("serve_tokens_out_total")

    @property
    def preemptions(self) -> int:
        return self._value("serve_preemptions_total")

    @property
    def rejected(self) -> Dict[str, int]:
        return self._by_label("serve_rejected_total", "reason")

    @property
    def slo_attained(self) -> int:
        return int(
            self._registry.counter("serve_slo_total").value(
                **{"class": self._label, "outcome": "attained"}
            )
        )

    @property
    def slo_violated(self) -> int:
        return int(
            self._registry.counter("serve_slo_total").value(
                **{"class": self._label, "outcome": "violated"}
            )
        )

    @property
    def failures(self) -> Dict[str, int]:
        """Per-exception-type counts of failed attempts (repro.faults)."""
        return self._by_label("serve_failures_total", "error")

    @property
    def retries(self) -> int:
        return self._value("serve_retries_total")

    @property
    def failed(self) -> int:
        """Requests that ended in the ``failed`` state."""
        return self._value("serve_failed_total")

    @property
    def cancelled(self) -> Dict[str, int]:
        """Per-reason counts of caller-cancelled requests (fleet tier)."""
        return self._by_label("serve_cancelled_total", "reason")


class SLOAccountant:
    """Collects per-class serving metrics against the simulated clock.

    Also mirrors queue depth into the tracer's counter stream (Chrome
    ``C`` events) and rejections as instant events, so the serving story
    lands in the same trace file as the prefill pipeline's spans.
    """

    def __init__(
        self,
        sim,
        policies: Dict[PriorityClass, ClassPolicy],
        tracer=None,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.sim = sim
        self.policies = policies
        self.tracer = tracer or NULL_TRACER
        #: the shared metrics namespace; pass the system-wide registry to
        #: land serving counters next to flash/cma/smc/npu instruments.
        self.registry = registry if registry is not None else MetricsRegistry()
        self.classes: Dict[PriorityClass, _ClassStats] = {
            cls: _ClassStats(cls, self.registry) for cls in PriorityClass
        }
        #: per-model busy-time accumulation for utilization.
        self._busy_since: Dict[str, Optional[float]] = {}
        self._busy_total: Dict[str, float] = {}
        self.started_at = sim.now

    # ------------------------------------------------------------------
    # transition hooks (the gateway calls these)
    # ------------------------------------------------------------------
    def note_queue_depth(self, cls: PriorityClass, depth: int) -> None:
        stats = self.classes[cls]
        if depth > stats.queue_depth_max:
            stats.queue_depth_max = float(depth)
        self.registry.gauge("serve_queue_depth", "Requests queued per class").set(
            depth, **{"class": cls.label}
        )
        if self.tracer.enabled:
            self.tracer.counter("queue:%s" % cls.label, depth)

    def note_admitted(self, cls: PriorityClass) -> None:
        """A request passed admission control into a lane queue."""
        self.registry.counter("serve_admitted_total", "Requests admitted").inc(
            **{"class": cls.label}
        )

    def note_rejected(self, cls: PriorityClass, reason: str) -> None:
        self.registry.counter("serve_rejected_total", "Requests shed at admission").inc(
            **{"class": cls.label, "reason": reason}
        )
        if self.tracer.enabled:
            self.tracer.instant("admission", "shed %s (%s)" % (cls.label, reason), lane="gateway")

    def note_preemption(self, cls: PriorityClass) -> None:
        self.registry.counter("serve_preemptions_total", "Priority preemptions").inc(
            **{"class": cls.label}
        )

    def note_failure(self, cls: PriorityClass, kind: str) -> None:
        """One failed attempt (``kind`` is the exception type name)."""
        self.registry.counter(
            "serve_failures_total", "Failed attempts by exception type"
        ).inc(**{"class": cls.label, "error": kind})
        if self.tracer.enabled:
            self.tracer.instant("failure", "%s (%s)" % (cls.label, kind), lane="gateway")

    def note_retry(self, cls: PriorityClass) -> None:
        """The gateway re-queued a failed request for another attempt."""
        self.registry.counter("serve_retries_total", "Gateway retry re-queues").inc(
            **{"class": cls.label}
        )

    def note_failed(self, cls: PriorityClass) -> None:
        """A request ended in the ``failed`` state (retries exhausted or
        the fault was fatal)."""
        self.registry.counter("serve_failed_total", "Terminally failed requests").inc(
            **{"class": cls.label}
        )

    def note_cancelled(self, cls: PriorityClass, reason: str) -> None:
        """A request was cancelled by its caller (a fleet hedge lost the
        race, or its device drained) — neither completed nor failed, and
        deliberately *not* an SLO outcome: the fleet tier accounts the
        logical request once, at the ticket level, so a cancelled loser
        must not double-charge the class."""
        self.registry.counter(
            "serve_cancelled_total", "Requests cancelled by the caller"
        ).inc(**{"class": cls.label, "reason": reason})

    def note_dispatch(self, model_id: str) -> None:
        self._busy_since[model_id] = self.sim.now

    def note_release(self, model_id: str) -> None:
        since = self._busy_since.get(model_id)
        if since is None:
            return
        self._busy_total[model_id] = self._busy_total.get(model_id, 0.0) + (self.sim.now - since)
        self._busy_since[model_id] = None
        if self.tracer.enabled:
            self.tracer.counter(
                "utilization:%s" % model_id, round(self.utilization(model_id), 6)
            )

    def observe(self, request: ServeRequest) -> None:
        """Fold one completed request into its class's metrics."""
        for kind, latency in _LATENCY.items():
            value = latency(request)
            if value is not None and value < 0:
                raise ConfigurationError(
                    "negative %s latency for request %d" % (kind, request.request_id)
                )
        stats = self.classes[request.priority]
        stats.observed.append(request)
        label = {"class": request.priority.label}
        self.registry.counter("serve_completed_total", "Completed requests").inc(**label)
        self.registry.counter("serve_tokens_out_total", "Tokens generated").inc(
            request.tokens_generated, **label
        )
        self.registry.histogram(
            "serve_ttft_seconds", "Time to first token"
        ).observe(request.ttft, **label)
        attained = request.slo_attained
        if attained is True:
            self.registry.counter("serve_slo_total", "SLO outcomes").inc(
                outcome="attained", **label
            )
        elif attained is False:
            self.registry.counter("serve_slo_total", "SLO outcomes").inc(
                outcome="violated", **label
            )

    # ------------------------------------------------------------------
    # read side
    # ------------------------------------------------------------------
    def utilization(self, model_id: str, until: Optional[float] = None) -> float:
        """Busy fraction of the model's TA over the accounting window."""
        until = self.sim.now if until is None else until
        window = until - self.started_at
        if window <= 0:
            return 0.0
        busy = self._busy_total.get(model_id, 0.0)
        since = self._busy_since.get(model_id)
        if since is not None:
            busy += until - since
        return busy / window

    def summary(self, cls: PriorityClass, kind: str = "ttft") -> Optional[LatencySummary]:
        """p50/p95/p99/max of one latency over the class's completed
        requests, or None when none has that sample."""
        latency = _LATENCY.get(kind)
        if latency is None:
            raise ConfigurationError("kind must be ttft/tbt/e2e, got %r" % (kind,))
        observed = self.classes[cls].observed
        values = [value for value in map(latency, observed) if value is not None]
        return LatencySummary.from_values(values) if values else None

    def throughput_tokens_per_second(self, cls: PriorityClass, until: Optional[float] = None) -> float:
        until = self.sim.now if until is None else until
        window = until - self.started_at
        if window <= 0:
            return 0.0
        return self.classes[cls].tokens_out / window

    def to_dict(self) -> Dict:
        """A JSON-stable export (sorted keys, plain floats) — the
        determinism tests serialize this and compare bytes."""
        out: Dict = {"classes": {}, "utilization": {}}
        for cls in PriorityClass:
            stats = self.classes[cls]
            entry: Dict = {
                "completed": stats.completed,
                "tokens_out": stats.tokens_out,
                "preemptions": stats.preemptions,
                "rejected": dict(sorted(stats.rejected.items())),
                "failures": dict(sorted(stats.failures.items())),
                "failed": stats.failed,
                "retries": stats.retries,
                "slo_attained": stats.slo_attained,
                "slo_violated": stats.slo_violated,
                "queue_depth_max": stats.queue_depth_max,
            }
            for kind in ("ttft", "tbt", "e2e"):
                summary = self.summary(cls, kind)
                entry[kind] = (
                    None
                    if summary is None
                    else {
                        "count": summary.count,
                        "mean": round(summary.mean, 9),
                        "p50": round(summary.p50, 9),
                        "p95": round(summary.p95, 9),
                        "p99": round(summary.p99, 9),
                        "max": round(summary.max, 9),
                    }
                )
            out["classes"][cls.label] = entry
        for model_id in sorted(self._busy_total):
            out["utilization"][model_id] = round(self.utilization(model_id), 9)
        return out
