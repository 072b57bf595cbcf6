"""Declarative alerting over the metrics registry, in virtual time.

Two rule shapes, both evaluated by an :class:`AlertEngine` ticking on
the simulator's clock (never wall time):

* :class:`ThresholdRule` — classic "value OP threshold for N seconds"
  over any counter/gauge series (``queue depth > 12 for 0.5 s``).
* :class:`BurnRateRule` — the SRE-workbook multi-window SLO burn rate:
  from a *good-events* counter and a *total-events* counter, the error
  rate over a long and a short window is converted into a burn rate
  (``error_rate / (1 - objective)``); the alert fires only when **both**
  windows exceed the factor — the long window gives significance, the
  short one makes the alert resolve quickly once the system recovers.
* :class:`RateRule` — "events per second OP threshold" evaluated from a
  :class:`~repro.obs.telemetry.TimeSeriesStore` windowed ``rate()``
  query instead of raw instant counter values; requires the engine to
  be constructed with ``store=``.

State transitions are appended to :attr:`AlertEngine.transitions`,
recorded into the :class:`~repro.obs.FlightRecorder` (category
``alert``) and dropped into the Chrome trace as instants on an
``alerts`` lane, so a firing alert lines up visually with the fault
window that caused it.  Everything is deterministic: same seed, same
tick sequence, same transitions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..sim.trace import NULL_TRACER

__all__ = ["ThresholdRule", "BurnRateRule", "RateRule", "AlertTransition", "AlertEngine"]

_OPS = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "==": lambda a, b: a == b,
}


@dataclass(frozen=True)
class ThresholdRule:
    """Fire when ``metric OP threshold`` holds for ``for_duration``."""

    name: str
    metric: str
    op: str
    threshold: float
    labels: Tuple[Tuple[str, str], ...] = ()
    for_duration: float = 0.0

    def __post_init__(self):
        if self.op not in _OPS:
            raise ConfigurationError(
                "unknown alert op %r (want one of %s)" % (self.op, "/".join(sorted(_OPS)))
            )


@dataclass(frozen=True)
class BurnRateRule:
    """Multi-window SLO burn-rate alert (fires on long AND short window).

    The error rate comes from cumulative counters: either a *good*
    counter (``error = 1 - good/total``) or a *bad* counter
    (``error = bad/total``) against a *total* counter — set exactly one
    of ``good_metric`` / ``bad_metric``.

    ``objective`` is the SLO target (e.g. 0.999); the error *budget* is
    ``1 - objective``.  A burn rate of 1.0 means the budget is consumed
    exactly at the sustainable pace; the canonical page-worthy factor is
    14.4 (2% of a 30-day budget in one hour, scaled here to simulated
    seconds).
    """

    name: str
    total_metric: str
    good_metric: Optional[str] = None
    bad_metric: Optional[str] = None
    objective: float = 0.999
    long_window: float = 10.0
    short_window: float = 1.0
    burn_factor: float = 14.4
    good_labels: Tuple[Tuple[str, str], ...] = ()
    bad_labels: Tuple[Tuple[str, str], ...] = ()
    total_labels: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self):
        if (self.good_metric is None) == (self.bad_metric is None):
            raise ConfigurationError(
                "set exactly one of good_metric / bad_metric on %r" % (self.name,)
            )
        if not 0.0 < self.objective < 1.0:
            raise ConfigurationError("objective must be in (0, 1), got %r" % (self.objective,))
        if self.short_window >= self.long_window:
            raise ConfigurationError("short_window must be < long_window")


@dataclass(frozen=True)
class RateRule:
    """Fire when the windowed per-second rate of a counter holds
    ``OP threshold`` for ``for_duration``.

    Evaluated from a telemetry :class:`~repro.obs.telemetry.
    TimeSeriesStore` (``store.rate(metric, window, now, **labels)``), so
    it answers "is the shed *rate* high" rather than "has the shed
    *count* ever been high" — the question instant counters cannot.
    """

    name: str
    metric: str
    op: str
    threshold: float
    window: float = 60.0
    labels: Tuple[Tuple[str, str], ...] = ()
    for_duration: float = 0.0

    def __post_init__(self):
        if self.op not in _OPS:
            raise ConfigurationError(
                "unknown alert op %r (want one of %s)" % (self.op, "/".join(sorted(_OPS)))
            )
        if self.window <= 0:
            raise ConfigurationError("rate rule window must be > 0")


@dataclass(frozen=True)
class AlertTransition:
    """One state change: an alert started or stopped firing."""

    at: float
    name: str
    state: str  # "firing" | "resolved"
    value: float  # threshold value / long-window burn rate at transition


@dataclass
class _RuleState:
    firing: bool = False
    #: ThresholdRule: when the condition last became continuously true.
    pending_since: Optional[float] = None
    #: BurnRateRule: (time, good, total) cumulative samples.
    samples: Deque[Tuple[float, float, float]] = field(default_factory=deque)


class AlertEngine:
    """Evaluates alert rules against a registry on a virtual-time ticker."""

    def __init__(
        self,
        sim,
        registry,
        rules=(),
        recorder=None,
        tracer=NULL_TRACER,
        interval: float = 0.25,
        gateway=None,
        store=None,
    ):
        if interval <= 0:
            raise ConfigurationError("alert tick interval must be > 0")
        self.sim = sim
        self.registry = registry
        self.rules = list(rules)
        self.store = store
        for rule in self.rules:
            if isinstance(rule, RateRule) and store is None:
                raise ConfigurationError(
                    "RateRule %r needs AlertEngine(store=...)" % (rule.name,)
                )
        self.recorder = recorder
        self.tracer = tracer
        self.interval = interval
        self.transitions: List[AlertTransition] = []
        self.ticks = 0
        self._states: Dict[str, _RuleState] = {}
        for rule in self.rules:
            if rule.name in self._states:
                raise ConfigurationError("duplicate alert rule name %r" % (rule.name,))
            self._states[rule.name] = _RuleState()
        if gateway is not None:
            # Let ServeGateway.health() report firing alerts.
            gateway.alert_engine = self

    def start(self, until: float) -> None:
        """Spawn the ticker process, evaluating every ``interval`` until
        ``until`` (bounded, so a plain ``sim.run()`` still drains)."""
        self.sim.process(self._ticker(until), name="alert-engine")

    def _ticker(self, until: float):
        while self.sim.now + self.interval <= until:
            yield self.sim.timeout(self.interval)
            self.tick()

    # ------------------------------------------------------------------
    def firing(self) -> List[str]:
        """Names of alerts currently firing, sorted."""
        return sorted(name for name, st in self._states.items() if st.firing)

    def tick(self) -> None:
        """Evaluate every rule once at the current simulated time."""
        now = self.sim.now
        self.ticks += 1
        for rule in self.rules:
            state = self._states[rule.name]
            if isinstance(rule, ThresholdRule):
                active, value = self._eval_threshold(rule, state, now)
            elif isinstance(rule, RateRule):
                active, value = self._eval_rate(rule, state, now)
            else:
                active, value = self._eval_burn_rate(rule, state, now)
            if active != state.firing:
                state.firing = active
                self._transition(rule.name, active, value, now)

    # ------------------------------------------------------------------
    def _series_value(self, metric: str, labels) -> float:
        inst = self.registry.get(metric)
        if inst is None:
            return 0.0
        return float(inst.value(**dict(labels)))

    def _eval_threshold(self, rule: ThresholdRule, state: _RuleState, now: float):
        value = self._series_value(rule.metric, rule.labels)
        holds = _OPS[rule.op](value, rule.threshold)
        if not holds:
            state.pending_since = None
            return False, value
        if state.pending_since is None:
            state.pending_since = now
        return (now - state.pending_since) >= rule.for_duration, value

    def _eval_rate(self, rule: RateRule, state: _RuleState, now: float):
        value = self.store.rate(rule.metric, rule.window, now, **dict(rule.labels))
        holds = _OPS[rule.op](value, rule.threshold)
        if not holds:
            state.pending_since = None
            return False, value
        if state.pending_since is None:
            state.pending_since = now
        return (now - state.pending_since) >= rule.for_duration, value

    def _eval_burn_rate(self, rule: BurnRateRule, state: _RuleState, now: float):
        if rule.good_metric is not None:
            numerator = self._series_value(rule.good_metric, rule.good_labels)
        else:
            numerator = self._series_value(rule.bad_metric, rule.bad_labels)
        total = self._series_value(rule.total_metric, rule.total_labels)
        state.samples.append((now, numerator, total))
        # Keep one sample at or before the long-window edge so window
        # deltas are always anchored.
        edge = now - rule.long_window
        while len(state.samples) >= 2 and state.samples[1][0] <= edge:
            state.samples.popleft()
        long_burn = self._window_burn(state.samples, rule, now, rule.long_window)
        short_burn = self._window_burn(state.samples, rule, now, rule.short_window)
        return (long_burn >= rule.burn_factor and short_burn >= rule.burn_factor), long_burn

    @staticmethod
    def _window_burn(samples, rule: BurnRateRule, now: float, window: float) -> float:
        """Burn rate over ``[now - window, now]`` from cumulative samples."""
        edge = now - window
        anchor = samples[0]
        for sample in samples:
            if sample[0] <= edge:
                anchor = sample
            else:
                break
        _, num0, total0 = anchor
        _, num1, total1 = samples[-1]
        d_total = total1 - total0
        if d_total <= 0:
            return 0.0
        d_num = num1 - num0
        if rule.good_metric is not None:
            error_rate = max(0.0, 1.0 - d_num / d_total)
        else:
            error_rate = min(1.0, max(0.0, d_num / d_total))
        return error_rate / (1.0 - rule.objective)

    # ------------------------------------------------------------------
    def _transition(self, name: str, firing: bool, value: float, now: float) -> None:
        state = "firing" if firing else "resolved"
        self.transitions.append(AlertTransition(now, name, state, value))
        if self.recorder is not None:
            self.recorder.record(
                "alert", "alert.%s" % name, message=state, value=value
            )
        if self.tracer.enabled:
            self.tracer.instant("alert", "%s %s" % (name, state), lane="alerts")
