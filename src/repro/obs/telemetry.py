"""Fleet telemetry: virtual-time scraping, a ring-buffer TSDB, tenant
accounting and tail-based trace sampling.

Until now the fleet's observability was frozen at point-in-time
snapshots: ``Fleet.health()`` and the per-device child registries can
answer "what is the counter now" but never "what happened over the last
hour", "which tenant is burning the budget" or "show me the trace of the
slow hedged ticket".  This module is the pipeline that answers those,
entirely on the simulated clock:

* :class:`TimeSeriesStore` — a bounded per-series ring buffer with
  multi-resolution downsampling (raw → 10× → 100×; every ``factor``-th
  sample of a tier cascades up, which is lossless for cumulative
  counters because only group-boundary values matter to ``rate()``/
  ``delta()``).  Queries — windowed :meth:`~TimeSeriesStore.rate`,
  :meth:`~TimeSeriesStore.delta`, :meth:`~TimeSeriesStore.avg` and
  histogram :meth:`~TimeSeriesStore.quantile` — pick the finest tier
  still covering the window and sum across every series whose labels
  are a superset of the filter.
* :class:`TelemetryCollector` — a sim process that walks a
  :class:`~repro.obs.registry.MetricsRegistry` every
  ``scrape_interval`` simulated seconds and appends one sample per
  live series.  ``pre_scrape`` hooks run first, so gauges derived from
  live state (device up-ness) are re-computed at the scrape instant and
  can never go stale.
* :class:`TenantAccountant` — per ``tenant × device`` usage meters:
  tokens in/out, KV byte-seconds, secure-memory residency seconds,
  hedge-budget spend, shed/failed counts — with top-k rollups and a
  deterministic JSON / Prometheus export.
* :class:`TailSampler` — tail-based trace sampling: every
  failed / shed / hedged / SLO-violating ticket keeps its full Chrome
  trace; fast tickets keep theirs with a seeded, completion-order-
  independent probability; everything else is dropped *before* any
  span is built.  Kept TTFTs attach trace-id exemplars to the latency
  histogram buckets.
* :class:`FleetTelemetry` — the facade
  :meth:`~repro.fleet.cluster.Fleet.start_telemetry` wires up, whose
  :meth:`~FleetTelemetry.snapshot` / :meth:`~FleetTelemetry.render_top`
  power ``examples/fleet_top.py``.

Everything is deterministic: scrapes land on exact virtual instants,
sampling decisions are pure functions of ``(seed, ticket_id)``, and all
exports serialize byte-identically across replays of the same seed.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..sim.trace import metadata_event
from .registry import DEFAULT_BUCKETS, Histogram, _fmt, _label_key

__all__ = [
    "TelemetryConfig",
    "TimeSeriesStore",
    "TelemetryCollector",
    "TenantAccountant",
    "TailSampler",
    "FleetTelemetry",
]


@dataclass(frozen=True)
class TelemetryConfig:
    """Knobs for the whole pipeline, in one place."""

    #: simulated seconds between registry scrapes.
    scrape_interval: float = 5.0
    #: ring capacity per series *per resolution tier*.
    ring_capacity: int = 240
    #: samples aggregated into one at the next-coarser tier.
    downsample_factor: int = 10
    #: number of resolution tiers (raw, 10x, 100x with the defaults).
    resolutions: int = 3
    #: probability a fast (no-anomaly) ticket keeps its trace.
    tail_sample_rate: float = 0.05
    #: seed for the fast-path sampling decision.
    tail_seed: int = 7
    #: bound on retained ticket traces (oldest evicted first).
    trace_capacity: int = 512
    #: default top-k size for tenant rollups.
    top_k: int = 5
    #: default window for snapshot/health rate queries (simulated s).
    rate_window: float = 60.0

    def __post_init__(self):
        if self.scrape_interval <= 0:
            raise ConfigurationError("scrape_interval must be positive")
        if self.ring_capacity < 2:
            raise ConfigurationError("ring_capacity must be >= 2")
        if self.downsample_factor < 2:
            raise ConfigurationError("downsample_factor must be >= 2")
        if self.resolutions < 1:
            raise ConfigurationError("resolutions must be >= 1")
        if not 0.0 <= self.tail_sample_rate <= 1.0:
            raise ConfigurationError("tail_sample_rate must be in [0, 1]")
        if self.trace_capacity < 1:
            raise ConfigurationError("trace_capacity must be >= 1")
        if self.top_k < 1 or self.rate_window <= 0:
            raise ConfigurationError("top_k / rate_window must be positive")


class _SeriesRing:
    """One series' bounded multi-resolution sample history.

    ``tiers[0]`` holds raw scrape samples; every ``factor``-th append to
    tier *i* cascades the sample to tier *i+1*.  Samples are cumulative
    (counters / histogram snapshots) or instantaneous (gauges), so the
    strided downsample preserves exactly what windowed queries need —
    the value at each group boundary.

    Each tier packs its samples into one flat ``array('d')`` used as a
    circular buffer, not a deque of tuples.  A fleet-scale run retains
    hundreds of thousands of samples, and the difference between 16
    unboxed bytes and a ~90-byte tuple object per sample is the
    difference between a collector that rides in cache and one whose
    working set degrades the whole simulation (measured as tens of
    percent of wall clock).  Rows are decoded back to tuples only on
    the (rare) query path.
    """

    __slots__ = ("tiers", "appended", "factor", "capacity", "stride")

    def __init__(self, capacity: int, factor: int, resolutions: int):
        self.tiers = [array("d") for _ in range(resolutions)]
        self.appended = [0] * resolutions
        self.factor = factor
        self.capacity = capacity
        #: doubles per row: 2 for scalars, 3 + len(buckets) for histograms
        #: (fixed per series; set by the first append).
        self.stride = 0

    def append(self, t: float, value) -> None:
        if not isinstance(value, tuple):
            self.append_scalar(t, value)
            return
        count, total, buckets = value
        row = array("d", (t, count, total) + buckets)
        if self.stride == 0:
            self.stride = len(row)
        capacity = self.capacity
        stride = self.stride
        for i, tier in enumerate(self.tiers):
            n = self.appended[i]
            if n < capacity:
                tier.extend(row)
            else:
                base = (n % capacity) * stride
                tier[base : base + stride] = row
            n += 1
            self.appended[i] = n
            if n % self.factor != 0:
                break  # no cascade: coarser tiers keep their stride

    def append_scalar(self, t: float, value: float) -> None:
        """Counter/gauge hot path: tier 0 inline, the 1-in-``factor``
        cascade to coarser tiers delegated.  The collector calls this
        once per scalar series per scrape — it is the single most
        executed statement in a telemetry-on fleet run."""
        if self.stride == 0:
            self.stride = 2
        n = self.appended[0]
        tier = self.tiers[0]
        if n < self.capacity:
            tier.append(t)
            tier.append(value)
        else:
            base = (n % self.capacity) * 2
            tier[base] = t
            tier[base + 1] = value
        n += 1
        self.appended[0] = n
        if n % self.factor == 0:
            self._cascade_scalar(t, value)

    def _cascade_scalar(self, t: float, value: float) -> None:
        capacity = self.capacity
        for i in range(1, len(self.tiers)):
            tier = self.tiers[i]
            n = self.appended[i]
            if n < capacity:
                tier.append(t)
                tier.append(value)
            else:
                base = (n % capacity) * 2
                tier[base] = t
                tier[base + 1] = value
            n += 1
            self.appended[i] = n
            if n % self.factor != 0:
                break

    # -- decoding ------------------------------------------------------
    def _order(self, i: int):
        """(physical row index of the oldest sample, retained count)."""
        n = self.appended[i]
        if n <= self.capacity:
            return 0, n
        return n % self.capacity, self.capacity

    def _decode(self, tier, k: int):
        base = k * self.stride
        if self.stride == 2:
            return (tier[base], tier[base + 1])
        return (
            tier[base],
            (
                tier[base + 1],
                tier[base + 2],
                tuple(tier[base + 3 : base + self.stride]),
            ),
        )

    def first_t(self, i: int):
        first, count = self._order(i)
        return self.tiers[i][first * self.stride] if count else None

    def last_value(self):
        n = self.appended[0]
        if not n:
            return None
        return self._decode(self.tiers[0], (n - 1) % self.capacity)[1]

    def rows(self, i: int):
        """Tier *i*'s retained samples, oldest first, as (t, value)."""
        tier = self.tiers[i]
        first, count = self._order(i)
        return [
            self._decode(tier, (first + k) % self.capacity) for k in range(count)
        ]

    def window(self, window: float, now: float):
        """Samples of the finest tier whose history covers the window.

        When no tier reaches back to the window edge, fall back to the
        tier retaining the *oldest* sample (ties go to the finer tier):
        before eviction that is the raw tier — coarse tiers start later
        because of the cascade stride — and after eviction it is the
        coarsest, so coverage is maximal either way.
        """
        edge = now - window
        best_i, best_t = -1, None
        for i in range(len(self.tiers)):
            t0 = self.first_t(i)
            if t0 is None:
                continue
            if t0 <= edge:
                return self.rows(i)
            if best_t is None or t0 < best_t:
                best_t, best_i = t0, i
        return self.rows(best_i) if best_i >= 0 else []


def _anchor(samples, edge: float):
    """Latest sample at or before ``edge`` (else the oldest kept)."""
    anchor = samples[0]
    for sample in samples:
        if sample[0] <= edge:
            anchor = sample
        else:
            break
    return anchor


class TimeSeriesStore:
    """Bounded multi-resolution time-series storage with windowed queries.

    Series are keyed ``(metric name, canonical label key)``.  Counter and
    gauge samples are ``(t, value)``; histogram samples are
    ``(t, (count, sum, cumulative_buckets))`` snapshots.  Query label
    filters match *subsets*: ``rate("fleet_routed_total", 60.0,
    device="hub-0")`` sums every series carrying that label pair.
    """

    def __init__(self, config: Optional[TelemetryConfig] = None):
        self.config = config if config is not None else TelemetryConfig()
        #: name -> label_key -> ring
        self._series: Dict[str, Dict[tuple, _SeriesRing]] = {}
        self._kinds: Dict[str, str] = {}
        self._bounds: Dict[str, tuple] = {}

    # -- writes --------------------------------------------------------
    def _ring(self, name: str, kind: str, label_key: tuple) -> _SeriesRing:
        known = self._kinds.setdefault(name, kind)
        if known != kind:
            raise ConfigurationError(
                "series %s already stored as %s, appended as %s" % (name, known, kind)
            )
        by_label = self._series.setdefault(name, {})
        ring = by_label.get(label_key)
        if ring is None:
            cfg = self.config
            ring = _SeriesRing(cfg.ring_capacity, cfg.downsample_factor, cfg.resolutions)
            by_label[label_key] = ring
        return ring

    def append(self, name: str, kind: str, label_key: tuple, t: float, value: float) -> None:
        self._ring(name, kind, label_key).append(t, float(value))

    def append_histogram(
        self, name: str, label_key: tuple, t: float,
        count: int, total: float, buckets: tuple, bounds: tuple,
    ) -> None:
        self._bounds.setdefault(name, tuple(bounds))
        self._ring(name, "histogram", label_key).append(t, (count, total, tuple(buckets)))

    # -- selection -----------------------------------------------------
    def _matching(self, name: str, labels: Dict[str, object]):
        by_label = self._series.get(name)
        if not by_label:
            return []
        want = set(_label_key(labels)) if labels else set()
        return [
            ring
            for key in sorted(by_label)
            if want <= set(key)
            for ring in (by_label[key],)
        ]

    # -- queries -------------------------------------------------------
    def latest(self, name: str, **labels) -> float:
        """Most recent raw value summed over matching series (0 if none)."""
        total = 0.0
        for ring in self._matching(name, labels):
            value = ring.last_value()
            if value is not None:
                total += value
        return total

    def rate(self, name: str, window: float, now: float, **labels) -> float:
        """Per-second increase over ``[now - window, now]``.

        Computed per series as ``(last - anchor) / (t_last - t_anchor)``
        from cumulative samples (the Prometheus ``rate()`` shape), then
        summed across the matching series.
        """
        edge = now - window
        total = 0.0
        for ring in self._matching(name, labels):
            samples = ring.window(window, now)
            if len(samples) < 2:
                continue
            t0, v0 = _anchor(samples, edge)
            t1, v1 = samples[-1]
            if t1 > t0:
                total += (v1 - v0) / (t1 - t0)
        return total

    def delta(self, name: str, window: float, now: float, **labels) -> float:
        """Total increase over the window, summed across matching series."""
        edge = now - window
        total = 0.0
        for ring in self._matching(name, labels):
            samples = ring.window(window, now)
            if len(samples) < 2:
                continue
            total += samples[-1][1] - _anchor(samples, edge)[1]
        return total

    def avg(self, name: str, window: float, now: float, **labels) -> float:
        """Mean of in-window gauge samples across matching series."""
        edge = now - window
        values = []
        for ring in self._matching(name, labels):
            for t, v in ring.window(window, now):
                if t > edge:
                    values.append(v)
        return sum(values) / len(values) if values else 0.0

    def quantile(self, name: str, q: float, window: float, now: float, **labels) -> float:
        """Histogram quantile from windowed cumulative-bucket deltas.

        Prometheus ``histogram_quantile`` semantics: the per-bucket
        increase over the window is summed across matching series, the
        target rank is located in the cumulative distribution, and the
        result is linearly interpolated inside the winning bucket (the
        ``+Inf`` bucket degrades to the highest finite bound).
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError("quantile must be in [0, 1]")
        bounds = self._bounds.get(name)
        if bounds is None:
            return 0.0
        edge = now - window
        deltas = [0] * len(bounds)
        count = 0
        for ring in self._matching(name, labels):
            samples = ring.window(window, now)
            if len(samples) < 2:
                continue
            _, (c0, _s0, b0) = _anchor(samples, edge)
            _, (c1, _s1, b1) = samples[-1]
            count += c1 - c0
            for i in range(len(bounds)):
                deltas[i] += b1[i] - b0[i]
        if count <= 0:
            return 0.0
        rank = q * count
        prev_bound, prev_cum = 0.0, 0
        for bound, cum in zip(bounds, deltas):
            if cum >= rank:
                in_bucket = cum - prev_cum
                if in_bucket <= 0:
                    return bound
                frac = (rank - prev_cum) / in_bucket
                return prev_bound + (bound - prev_bound) * frac
            prev_bound, prev_cum = bound, cum
        return bounds[-1]  # rank fell in +Inf: clamp to the last edge

    # -- introspection / export ----------------------------------------
    def series_count(self) -> int:
        return sum(len(by_label) for by_label in self._series.values())

    def samples(self, name: str, tier: int = 0, **labels) -> List[tuple]:
        """Raw (or coarser) samples of one exact series, for tests."""
        by_label = self._series.get(name, {})
        ring = by_label.get(_label_key(labels))
        return ring.rows(tier) if ring is not None else []

    def to_dict(self) -> Dict:
        """JSON-stable export of every series at every resolution."""
        out: Dict = {}
        for name in sorted(self._series):
            series = []
            for key in sorted(self._series[name]):
                ring = self._series[name][key]
                tiers = []
                for i in range(len(ring.tiers)):
                    tiers.append(
                        [
                            [t, list(v) if isinstance(v, tuple) else v]
                            for t, v in ring.rows(i)
                        ]
                    )
                series.append({"labels": dict(key), "tiers": tiers})
            entry = {"kind": self._kinds[name], "series": series}
            if name in self._bounds:
                entry["buckets"] = list(self._bounds[name])
            out[name] = entry
        return out


class TelemetryCollector:
    """Scrapes a :class:`~repro.obs.registry.MetricsRegistry` (not a
    child view) into the store, on the virtual clock."""

    def __init__(
        self,
        sim,
        registry,
        store: TimeSeriesStore,
        config: Optional[TelemetryConfig] = None,
        recorder=None,
    ):
        self.sim = sim
        self.registry = registry
        self.store = store
        self.config = config if config is not None else store.config
        self.recorder = recorder
        #: callables run before each scrape: refresh gauges derived from
        #: live state so a scrape can never observe a stale value.
        self.pre_scrape: List[Callable[[], None]] = []
        self.scrapes = 0
        self.samples_total = 0
        #: cached scrape plan — (values_dict, key, ring, is_histogram)
        #: per live series.  Series only ever appear (label sets and
        #: instruments are never deleted), so the plan is valid until
        #: the live-series count changes; caching it turns each scrape
        #: into a flat walk with no dict lookups or per-scrape sorting.
        self._plan: Optional[list] = None
        self._plan_series = -1
        self._values_list: Optional[list] = None
        self._inst_count = -1
        #: host (wall-clock) seconds spent inside scrapes — the
        #: collector's own cost, measurable independently of whatever
        #: else shares the machine with the benchmark.
        self.host_seconds = 0.0

    def scrape(self) -> int:
        """One scrape pass: every live series gains one sample at now.

        The hot loop is deliberately flat: plan rows carry the series
        dict, the ring, and the ring's tier-0 array directly, and the
        scalar append is inlined (capacity/factor are uniform across
        rings, hoisted once).  At fleet scale this loop runs hundreds of
        samples per scrape, thousands of scrapes per run — every
        attribute lookup and call removed here is measurable against
        the <=5% overhead budget.
        """
        host_start = time.perf_counter()
        for hook in self.pre_scrape:
            hook()
        now = self.sim.now
        registry_map = self.registry._instruments
        if self._values_list is None or len(registry_map) != self._inst_count:
            self._inst_count = len(registry_map)
            self._values_list = [inst._values for inst in self.registry.instruments()]
            self._plan = None
        live = 0
        for values in self._values_list:
            live += len(values)
        if self._plan is None or live != self._plan_series:
            self._rebuild_plan(self.registry.instruments(), live)
        capacity = self.config.ring_capacity
        factor = self.config.downsample_factor
        for values, key, ring, tier, appended in self._plan:
            value = values[key]
            if tier is None:  # histogram: snapshot the bucket vector
                ring.append(
                    now, (value["count"], value["sum"], tuple(value["buckets"]))
                )
                continue
            n = appended[0]
            if n < capacity:
                tier.append(now)
                tier.append(value)
            else:
                base = (n % capacity) * 2
                tier[base] = now
                tier[base + 1] = value
            n += 1
            appended[0] = n
            if n % factor == 0:
                ring._cascade_scalar(now, value)
        appended = len(self._plan)
        self.scrapes += 1
        self.samples_total += appended
        self.host_seconds += time.perf_counter() - host_start
        return appended

    def _rebuild_plan(self, instruments, live: int) -> None:
        plan = []
        store = self.store
        for inst in instruments:
            is_hist = isinstance(inst, Histogram)
            for key in sorted(inst._values):
                # Route ring creation through the store so kind-conflict
                # checks and bucket-bound registration stay in one place.
                if is_hist:
                    store._bounds.setdefault(inst.name, tuple(inst.buckets))
                    ring = store._ring(inst.name, "histogram", key)
                    plan.append((inst._values, key, ring, None, None))
                else:
                    ring = store._ring(inst.name, inst.kind, key)
                    if ring.stride == 0:
                        ring.stride = 2
                    # Tier-0 array and append counter ride in the plan
                    # row so the scrape loop appends without attribute
                    # lookups or a method call.
                    plan.append(
                        (inst._values, key, ring, ring.tiers[0], ring.appended)
                    )
        self._plan = plan
        self._plan_series = live

    def start(self, until: float) -> None:
        """Spawn the scrape loop (bounded, so ``sim.run()`` still drains)."""
        self.sim.process(self._loop(until), name="telemetry-collector")

    def _loop(self, until: float):
        while self.sim.now + self.config.scrape_interval <= until:
            yield self.sim.timeout(self.config.scrape_interval)
            self.scrape()


class _TenantUsage:
    """One ``tenant × device`` row of the usage ledger."""

    __slots__ = (
        "requests", "tokens_in", "tokens_out", "kv_byte_seconds",
        "residency_seconds", "hedge_spend", "sheds", "failed",
    )

    def __init__(self):
        self.requests = 0
        self.tokens_in = 0
        self.tokens_out = 0
        self.kv_byte_seconds = 0.0
        self.residency_seconds = 0.0
        self.hedge_spend = 0
        self.sheds = 0
        self.failed = 0

    def to_dict(self) -> Dict:
        return {
            "requests": self.requests,
            "tokens_in": self.tokens_in,
            "tokens_out": self.tokens_out,
            "kv_byte_seconds": round(self.kv_byte_seconds, 6),
            "residency_seconds": round(self.residency_seconds, 6),
            "hedge_spend": self.hedge_spend,
            "sheds": self.sheds,
            "failed": self.failed,
        }


#: accountant metric -> Prometheus series name, in export order.
_TENANT_EXPORTS = (
    ("requests", "fleet_tenant_requests_total"),
    ("tokens_in", "fleet_tenant_tokens_in_total"),
    ("tokens_out", "fleet_tenant_tokens_out_total"),
    ("kv_byte_seconds", "fleet_tenant_kv_byte_seconds_total"),
    ("residency_seconds", "fleet_tenant_residency_seconds_total"),
    ("hedge_spend", "fleet_tenant_hedge_spend_total"),
    ("sheds", "fleet_tenant_shed_total"),
    ("failed", "fleet_tenant_failed_total"),
)

#: the device column used when no device ever handled the work (sheds,
#: budget denials before placement).
NO_DEVICE = "-"


class TenantAccountant:
    """Meters per-tenant, per-device resource usage from ticket outcomes.

    Fed by the router's terminal hooks (done / failed / shed) and hedge
    sites; every number is derived from simulated timestamps and token
    counts, so two replays of the same seed export identical bytes.
    KV byte-seconds price the *final* KV footprint (effective prompt +
    generated tokens, at the model's ``kv_bytes_per_token``) over the
    attempt's secure residency — a deliberate upper bound that tracks
    what the TZASC region actually had to hold at release time.
    """

    def __init__(self, kv_bytes_per_token: Optional[Dict[str, int]] = None):
        #: model_id -> KV bytes per token (0 for unknown models).
        self.kv_bytes_per_token = dict(kv_bytes_per_token or {})
        self._usage: Dict[Tuple[str, str], _TenantUsage] = {}

    def _row(self, tenant: str, device: Optional[str]) -> _TenantUsage:
        key = (tenant, device or NO_DEVICE)
        row = self._usage.get(key)
        if row is None:
            row = self._usage[key] = _TenantUsage()
        return row

    # -- hooks (the router / FleetTelemetry call these) ----------------
    def note_done(self, ticket) -> None:
        """A ticket completed: meter the winner, bill every attempt's
        residency (hedge losers occupied secure memory too)."""
        winner = ticket.winner
        tenant = ticket.request.tenant
        row = self._row(tenant, winner.device_id)
        row.requests += 1
        row.tokens_in += winner.prompt_tokens
        row.tokens_out += winner.tokens_generated
        kv_per_token = self.kv_bytes_per_token.get(ticket.request.model_id, 0)
        for attempt in ticket.attempts:
            residency = self._residency(attempt)
            if residency <= 0:
                continue
            arow = self._row(tenant, attempt.device_id)
            arow.residency_seconds += residency
            tokens = attempt.prompt_tokens + (
                winner.tokens_generated if attempt is winner else 0
            )
            arow.kv_byte_seconds += tokens * kv_per_token * residency

    @staticmethod
    def _residency(attempt) -> float:
        if attempt.dispatched_at is None:
            return 0.0
        end = attempt.finished_at
        if end is None:
            end = attempt.cancelled_at
        if end is None:
            end = attempt.failed_at
        return 0.0 if end is None else max(0.0, end - attempt.dispatched_at)

    def note_failed(self, ticket) -> None:
        device = ticket.device_id
        self._row(ticket.request.tenant, device).failed += 1

    def note_shed(self, ticket) -> None:
        self._row(ticket.request.tenant, NO_DEVICE).sheds += 1

    def note_budget_spend(self, tenant: str, device: Optional[str]) -> None:
        """One hedge-budget token burned (a hedge or a paid failover)."""
        self._row(tenant, device).hedge_spend += 1

    # -- rollups -------------------------------------------------------
    def totals(self, metric: str) -> Dict[str, float]:
        """Per-tenant totals of one metric, summed across devices."""
        out: Dict[str, float] = {}
        for (tenant, _device), row in self._usage.items():
            out[tenant] = out.get(tenant, 0) + getattr(row, metric)
        return out

    def top_k(self, metric: str, k: Optional[int] = None) -> List[Tuple[str, float]]:
        """Top tenants by one metric (descending, name-tiebroken)."""
        k = 5 if k is None else k
        ranked = sorted(self.totals(metric).items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:k]

    # -- exports -------------------------------------------------------
    def to_dict(self) -> Dict:
        tenants: Dict[str, Dict] = {}
        for (tenant, device) in sorted(self._usage):
            tenants.setdefault(tenant, {})[device] = self._usage[(tenant, device)].to_dict()
        totals = {
            tenant: {
                metric: (round(value, 6) if isinstance(value, float) else value)
                for metric, value in (
                    (m, self.totals(m)[tenant]) for m, _name in _TENANT_EXPORTS
                )
            }
            for tenant in sorted({t for t, _d in self._usage})
        }
        return {"tenants": tenants, "totals": totals}

    def render_prometheus(self) -> str:
        """Deterministic Prometheus text exposition of the ledger."""
        lines = []
        for metric, series_name in _TENANT_EXPORTS:
            lines.append("# TYPE %s counter" % series_name)
            for (tenant, device) in sorted(self._usage):
                value = getattr(self._usage[(tenant, device)], metric)
                if not value:
                    continue
                lines.append(
                    '%s{device="%s",tenant="%s"} %s'
                    % (series_name, device, tenant, _fmt(float(value)))
                )
        return "\n".join(lines) + "\n"


#: reasons a ticket's trace is always kept, in classification order.
_KEEP_REASONS = ("failed", "shed", "hedged", "slo-violated")


class TailSampler:
    """Keeps whole-ticket Chrome traces for the tail, samples the rest.

    The decision runs at ticket completion: anomalous tickets (failed,
    shed, hedged, SLO-violating) always keep their trace; fast tickets
    keep theirs with probability ``tail_sample_rate`` decided by a pure
    hash of ``(seed, ticket_id)`` — independent of completion order, so
    replays sample the identical set.  Dropped tickets never build a
    single span dict.  Kept winners also pin a trace-id *exemplar* onto
    the TTFT histogram bucket their latency landed in.
    """

    def __init__(self, config: Optional[TelemetryConfig] = None, buckets=DEFAULT_BUCKETS):
        self.config = config if config is not None else TelemetryConfig()
        self.buckets = tuple(buckets)
        self.offered = 0
        self.dropped = 0
        self.kept: Dict[str, int] = {}
        #: kept ticket traces, oldest evicted first.
        self.traces = deque(maxlen=self.config.trace_capacity)
        #: histogram bucket bound -> latest exemplar for that bucket.
        self.exemplars: Dict[float, Dict] = {}

    # -- the decision --------------------------------------------------
    def classify(self, ticket) -> Optional[str]:
        if ticket.state == "failed":
            return "failed"
        if ticket.state == "shed":
            return "shed"
        if ticket.hedges:
            return "hedged"
        if ticket.slo_attained is False:
            return "slo-violated"
        return None

    def _keep_fast(self, ticket_id: int) -> bool:
        h = (ticket_id * 2654435761 + self.config.tail_seed * 40503) & 0xFFFFFFFF
        return h / 4294967296.0 < self.config.tail_sample_rate

    def offer(self, ticket) -> Optional[str]:
        """Decide one completed ticket; returns the keep reason or None."""
        self.offered += 1
        reason = self.classify(ticket)
        if reason is None:
            if not self._keep_fast(ticket.ticket_id):
                self.dropped += 1
                return None
            reason = "sampled"
        self.kept[reason] = self.kept.get(reason, 0) + 1
        self.traces.append(self._build_trace(ticket, reason))
        if ticket.winner is not None and ticket.winner.first_token_at is not None:
            self._note_exemplar(ticket)
        return reason

    # -- trace construction (kept tickets only) ------------------------
    def _build_trace(self, ticket, reason: str) -> Dict:
        events = []
        ticket_id = ticket.ticket_id
        tenant = ticket.request.tenant
        # Tickets complete when their winner does; a hedge loser may still
        # be standing down.  Its serve span is drawn to the latest known
        # instant so per-attempt attribution survives in the kept trace.
        horizon = ticket.arrived_at
        for attempt in ticket.attempts:
            for at in (attempt.finished_at, attempt.cancelled_at, attempt.failed_at):
                if at is not None and at > horizon:
                    horizon = at
        for i, attempt in enumerate(ticket.attempts):
            lane = "device:%s" % (attempt.device_id or "?")
            flow_id = ticket_id * 1000 + i
            flow_name = "ticket t%d attempt %d" % (ticket_id, i)
            args = {
                "attempt": i,
                "device": attempt.device_id,
                "hedge": attempt.hedge,
                "state": attempt.state,
                "tenant": tenant,
                "winner": attempt is ticket.winner,
            }
            end = attempt.finished_at
            if end is None:
                end = attempt.cancelled_at
            if end is None:
                end = attempt.failed_at
            events.append(
                {
                    "ph": "s", "cat": "ticket", "name": flow_name,
                    "id": flow_id, "lane": "router", "ts": attempt.arrived_at,
                }
            )
            if attempt.dispatched_at is not None:
                events.append(
                    {
                        "ph": "X", "cat": "queue",
                        "name": "t%d/a%d queue" % (ticket_id, i),
                        "lane": lane, "ts": attempt.arrived_at,
                        "dur": attempt.dispatched_at - attempt.arrived_at,
                        "args": args,
                    }
                )
                serve_end = end if end is not None else max(
                    horizon, attempt.dispatched_at
                )
                events.append(
                    {
                        "ph": "X", "cat": "serve",
                        "name": "t%d/a%d serve" % (ticket_id, i),
                        "lane": lane, "ts": attempt.dispatched_at,
                        "dur": serve_end - attempt.dispatched_at,
                        "args": args,
                    }
                )
            if end is not None:
                events.append(
                    {
                        "ph": "f", "cat": "ticket", "name": flow_name,
                        "id": flow_id, "lane": lane, "ts": end, "bp": "e",
                    }
                )
        for at, kind, detail in ticket.failures:
            events.append(
                {
                    "ph": "i", "cat": "failure",
                    "name": "%s (%s)" % (kind, detail),
                    "lane": "router", "ts": at, "s": "t",
                }
            )
        return {
            "ticket_id": ticket_id,
            "tenant": tenant,
            "reason": reason,
            "events": events,
        }

    def _note_exemplar(self, ticket) -> None:
        ttft = ticket.winner.first_token_at - ticket.arrived_at
        bound = None
        for edge in self.buckets:
            if ttft <= edge:
                bound = edge
                break
        key = bound if bound is not None else float("inf")
        self.exemplars[key] = {
            "trace_id": ticket.ticket_id,
            "value": round(ttft, 9),
            "at": ticket.winner.first_token_at,
            "tenant": ticket.request.tenant,
        }

    # -- read side -----------------------------------------------------
    @property
    def kept_total(self) -> int:
        return sum(self.kept.values())

    def keep_ratio_fast(self) -> float:
        """Fraction of non-anomalous tickets whose trace was kept."""
        sampled = self.kept.get("sampled", 0)
        fast = sampled + self.dropped
        return sampled / fast if fast else 0.0

    def to_chrome_trace(self) -> str:
        """All kept traces merged into one Chrome trace-event JSON."""
        lanes = sorted(
            {e["lane"] for trace in self.traces for e in trace["events"]}
        )
        lane_ids = {lane: i + 1 for i, lane in enumerate(lanes)}
        events = [
            metadata_event(tid, "thread_name", {"name": lane})
            for lane, tid in lane_ids.items()
        ]
        for trace in self.traces:
            for e in trace["events"]:
                event = dict(e)
                event["pid"] = 1
                event["tid"] = lane_ids[event.pop("lane")]
                event["ts"] = event["ts"] * 1e6
                if "dur" in event:
                    event["dur"] = max(0.001, event["dur"] * 1e6)
                events.append(event)
        return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})

    def to_dict(self) -> Dict:
        exemplars = {
            ("+Inf" if bound == float("inf") else _fmt(bound)): dict(info)
            for bound, info in self.exemplars.items()
        }
        return {
            "offered": self.offered,
            "kept": dict(sorted(self.kept.items())),
            "kept_total": self.kept_total,
            "dropped": self.dropped,
            "fast_keep_ratio": round(self.keep_ratio_fast(), 9),
            "retained_traces": len(self.traces),
            "exemplars": {k: exemplars[k] for k in sorted(exemplars)},
        }


class FleetTelemetry:
    """The assembled pipeline over one fleet router.

    Owns the store, the collector (with an ``up``-gauge pre-scrape hook
    per device), the tenant accountant and the tail sampler, and renders
    the "fleet top" operator snapshot.  Attaching sets
    ``router.telemetry``, which arms the router's terminal-ticket hooks.
    """

    def __init__(
        self,
        router,
        config: Optional[TelemetryConfig] = None,
        kv_bytes_per_token: Optional[Dict[str, int]] = None,
    ):
        self.router = router
        self.sim = router.sim
        self.config = config if config is not None else TelemetryConfig()
        self.store = TimeSeriesStore(self.config)
        self.collector = TelemetryCollector(
            self.sim, router.registry, self.store, self.config
        )
        self.collector.pre_scrape.append(self._refresh_up_gauges)
        self.accountant = TenantAccountant(kv_bytes_per_token)
        self.sampler = TailSampler(self.config)
        self.started = False
        #: host seconds spent inside the per-ticket hooks (accounting +
        #: tail-sampling); see :attr:`host_seconds`.
        self.hook_seconds = 0.0
        self._up_cache: Optional[list] = None
        router.telemetry = self

    # -- wiring --------------------------------------------------------
    def _refresh_up_gauges(self) -> None:
        """Recompute per-device up-ness from the live lifecycle at the
        scrape instant — a crashed device can never leave a stale UP.

        Runs on every scrape, so the gauge object, the canonical label
        keys, and each device's lifecycle are resolved once and cached
        (rebuilt if the device set changes).
        """
        cache = self._up_cache
        if cache is None or len(cache) != len(self.router.devices):
            gauge = self.router.registry.gauge(
                "fleet_device_up", "1 while the device lifecycle is UP, else 0."
            )
            cache = self._up_cache = [
                (
                    self.router.devices[device_id].lifecycle,
                    (("device", device_id),),
                    gauge._values,
                )
                for device_id in sorted(self.router.devices)
            ]
        for lifecycle, key, values in cache:
            values[key] = 1.0 if lifecycle.state == "up" else 0.0

    def start(self, until: float) -> "FleetTelemetry":
        if self.started:
            raise ConfigurationError("telemetry collector already started")
        self.started = True
        self.collector.start(until)
        return self

    # -- router hook surface -------------------------------------------
    def note_ticket_done(self, ticket) -> None:
        host_start = time.perf_counter()
        self.accountant.note_done(ticket)
        self.sampler.offer(ticket)
        self.hook_seconds += time.perf_counter() - host_start

    def note_ticket_failed(self, ticket) -> None:
        host_start = time.perf_counter()
        self.accountant.note_failed(ticket)
        self.sampler.offer(ticket)
        self.hook_seconds += time.perf_counter() - host_start

    def note_ticket_shed(self, ticket) -> None:
        host_start = time.perf_counter()
        self.accountant.note_shed(ticket)
        self.sampler.offer(ticket)
        self.hook_seconds += time.perf_counter() - host_start

    def note_budget_spend(self, tenant: str, device: Optional[str]) -> None:
        self.accountant.note_budget_spend(tenant, device)

    @property
    def host_seconds(self) -> float:
        """Host seconds the pipeline itself consumed: scrape loop plus
        the per-ticket accounting/sampling hooks.  The direct cost of
        observing — what the overhead budget is charged against."""
        return self.collector.host_seconds + self.hook_seconds

    # -- queries -------------------------------------------------------
    def fleet_rates(self, window: Optional[float] = None) -> Dict[str, float]:
        """Windowed fleet-level rates (req/s) from the store — what
        ``Fleet.health()`` reports instead of raw instant counters."""
        window = self.config.rate_window if window is None else window
        now = self.sim.now
        return {
            "window_s": window,
            "request_rate": round(self.store.rate("fleet_requests_total", window, now), 9),
            "served_rate": round(self.store.rate("serve_completed_total", window, now), 9),
            "shed_rate": round(self.store.rate("fleet_shed_total", window, now), 9),
            "hedge_rate": round(self.store.rate("fleet_hedges_total", window, now), 9),
            "failed_rate": round(self.store.rate("fleet_failed_total", window, now), 9),
        }

    def snapshot(self, window: Optional[float] = None, k: Optional[int] = None) -> Dict:
        """One JSON-stable operator snapshot: fleet rates, per-device
        state/throughput/tail latency, tenant top-k, sampler stats."""
        window = self.config.rate_window if window is None else window
        k = self.config.top_k if k is None else k
        now = self.sim.now
        store = self.store
        devices = {}
        for device_id in sorted(self.router.devices):
            device = self.router.devices[device_id]
            devices[device_id] = {
                "state": device.lifecycle.state,
                "up": store.latest("fleet_device_up", device=device_id),
                "outstanding": device.outstanding(),
                "served_rate": round(
                    store.rate("serve_completed_total", window, now, device=device_id), 9
                ),
                "ttft_p50": round(
                    store.quantile("serve_ttft_seconds", 0.50, window, now, device=device_id), 9
                ),
                "ttft_p99": round(
                    store.quantile("serve_ttft_seconds", 0.99, window, now, device=device_id), 9
                ),
                "sessions_resident": len(device.sessions),
            }
        top = {
            metric: [[tenant, value] for tenant, value in self.accountant.top_k(metric, k)]
            for metric in (
                "requests", "tokens_out", "tokens_in", "kv_byte_seconds",
                "residency_seconds", "hedge_spend",
            )
        }
        out = {
            "at": now,
            "window_s": window,
            "scrapes": self.collector.scrapes,
            "series": store.series_count(),
            "fleet": self.fleet_rates(window),
            "devices": devices,
            "tenants": {"top_k": top, "totals": self.accountant.to_dict()["totals"]},
            "sampler": self.sampler.to_dict(),
        }
        memory_view = getattr(self.router, "memory_view", None)
        if memory_view is not None:
            out["memory"] = memory_view.to_dict()
        return out

    def render_top(self, window: Optional[float] = None, k: Optional[int] = None) -> str:
        """The "fleet top" text table an operator would watch."""
        from ..analysis import render_table

        snap = self.snapshot(window, k)
        device_rows = [
            [
                device_id, info["state"],
                info["outstanding"],
                "%.3f" % info["served_rate"],
                "%.3f" % info["ttft_p50"],
                "%.3f" % info["ttft_p99"],
                info["sessions_resident"],
            ]
            for device_id, info in snap["devices"].items()
        ]
        blocks = [
            render_table(
                ["device", "state", "outst", "served/s", "ttft p50", "ttft p99", "sessions"],
                device_rows,
                title="fleet top @ %.1fs (window %.0fs, %d series, %d scrapes)"
                % (snap["at"], snap["window_s"], snap["series"], snap["scrapes"]),
            )
        ]
        tenant_rows = [
            [tenant, int(tokens),
             int(dict(snap["tenants"]["top_k"]["tokens_in"]).get(tenant, 0)),
             "%.0f" % dict(snap["tenants"]["top_k"]["kv_byte_seconds"]).get(tenant, 0.0),
             "%.1f" % dict(snap["tenants"]["top_k"]["residency_seconds"]).get(tenant, 0.0),
             int(dict(snap["tenants"]["top_k"]["hedge_spend"]).get(tenant, 0))]
            for tenant, tokens in snap["tenants"]["top_k"]["tokens_out"]
        ]
        blocks.append(
            render_table(
                ["tenant", "tok out", "tok in", "kvB*s", "res s", "hedges"],
                tenant_rows,
                title="top-%d tenants by tokens out" % (k or self.config.top_k),
            )
        )
        sampler = snap["sampler"]
        blocks.append(
            "traces: kept %d (%s) / dropped %d / fast keep %.3f"
            % (
                sampler["kept_total"],
                ", ".join("%s=%d" % kv for kv in sorted(sampler["kept"].items())),
                sampler["dropped"],
                sampler["fast_keep_ratio"],
            )
        )
        return "\n\n".join(blocks)
