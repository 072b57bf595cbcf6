"""repro.obs — unified observability for the simulated TZ-LLM stack.

Three cooperating pieces, one import:

* :class:`MetricsRegistry` with labeled :class:`Counter` /
  :class:`Gauge` / :class:`Histogram` instruments, Prometheus text
  exposition (:meth:`MetricsRegistry.render`) and a JSON export —
  the single namespace every subsystem reports into.
* :class:`TraceContext` — per-request identity threaded from the
  serving gateway across the REE/TEE boundary so Chrome flow events
  link a gateway arrival to the TEE-lane spans that served it.
* :class:`FlightRecorder` — a bounded ring buffer of typed events
  (faults, retries, watchdog fires, breaker flips) snapshotted as a
  postmortem when a request terminally fails.
* :class:`Profiler` — virtual-time profiling: collapsed-stack
  flamegraphs, per-resource queueing reports with a Little's-law
  check, per-lane busy/wait/idle accounting and per-token decode
  latency attribution.
* :class:`AlertEngine` — declarative threshold and multi-window SLO
  burn-rate rules evaluated over registry series on a virtual-time
  ticker; transitions land in the flight recorder and Chrome trace.
* :class:`MemoryTimeline` / :class:`FleetMemoryView` — the secure-memory
  observatory: block-level TZASC/KV event timelines with stranded-capacity
  accounting (single stack) and scrape-granularity fleet rollups.

:func:`instrument` wires all of it into a built system in one call,
mirroring how :class:`~repro.faults.injector.FaultInjector.arm` attaches
fault sites.
"""

from .alerts import AlertEngine, AlertTransition, BurnRateRule, RateRule, ThresholdRule
from .attach import Observability, instrument
from .context import TraceContext
from .memory import FleetMemoryView, MemoryTimeline, memory_pressure_rules
from .profile import LaneBreakdown, Profiler, QueueRow
from .recorder import FlightEvent, FlightRecorder
from .registry import ChildRegistry, Counter, Gauge, Histogram, MetricsRegistry
from .telemetry import (
    FleetTelemetry,
    TailSampler,
    TelemetryCollector,
    TelemetryConfig,
    TenantAccountant,
    TimeSeriesStore,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ChildRegistry",
    "TraceContext",
    "FlightEvent",
    "FlightRecorder",
    "Observability",
    "instrument",
    "MemoryTimeline",
    "FleetMemoryView",
    "memory_pressure_rules",
    "Profiler",
    "LaneBreakdown",
    "QueueRow",
    "AlertEngine",
    "AlertTransition",
    "ThresholdRule",
    "BurnRateRule",
    "RateRule",
    "TelemetryConfig",
    "TimeSeriesStore",
    "TelemetryCollector",
    "TenantAccountant",
    "TailSampler",
    "FleetTelemetry",
]
