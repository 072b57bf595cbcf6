"""The secure-memory & KV observatory: where do the secure bytes go?

The two top ROADMAP items — shared-prefix KV reuse and FlexServe-style
elastic secure-memory isolation — are both *memory* projects, but
nothing in the stack could say where secure bytes actually sit: TZASC
regions grow end-only and shrink silently at drain, the
:class:`~repro.llm.kv_cache.KVBlockPool` knows used/free counts but not
who holds which block or for how long.  This module closes that gap
with two observers:

* :class:`MemoryTimeline` — the full-fidelity, event-sourced record.
  Every TZASC region configure/resize/disable and every block-pool
  reserve/alloc/release/park/restore lands in a bounded ring with block
  ids and owner attribution (``tenant/rNNN``).  The timeline reads its
  byte and block counts from the pools and the TZASC, integrates
  per-tenant secure **byte-seconds** and the **stranded** byte-seconds
  exactly at event granularity, refreshes ``mem_*`` gauges as a
  telemetry ``pre_scrape`` hook (which is how the series reach the
  :class:`~repro.obs.telemetry.TimeSeriesStore`), and exports a Chrome
  trace ``memory`` counter lane.

* :class:`FleetMemoryView` — the surrogate-tier rollup.  Fleet devices
  model timing analytically and have no real pool or TZASC, so the view
  derives the same accounting from what the surrogate *does* track:
  resident parameter bytes, the KV footprint of running requests, and
  the parked session cache — with a per-device backing high-water
  standing in for the end-only-growth configured size.

**Stranded capacity** is the headline series: ``configured - live``,
where *live* counts resident parameter bytes, activation scratch and KV
blocks holding content (active + parked + cached).  It is exactly the capacity an elastic
isolation mechanism would hand back to the REE — measured here before
anyone builds the mechanism.

Instrumentation contract (same as :data:`~repro.sim.trace.NULL_TRACER`):
every hook site in the hot path is an attribute defaulting to ``None``
guarded by ``if timeline is not None``, so an un-attached run allocates
nothing from this module (tracemalloc-proven in
``tests/obs/test_memory_timeline.py``).
"""

from __future__ import annotations

import json
import time
from collections import Counter, deque
from typing import Dict, List, Optional, Tuple

from ..sim.trace import metadata_event
from ..stack import set_hook
from .alerts import BurnRateRule, ThresholdRule

__all__ = [
    "MemoryTimeline",
    "FleetMemoryView",
    "memory_pressure_rules",
]

#: tid of the ``memory`` counter lane in exported Chrome traces (the
#: span lanes of :class:`~repro.sim.trace.Tracer` start at 1).
_MEM_TID = 90

#: region ops a :class:`~repro.tee.secure_memory.SecureRegion` reports by
#: name right after the TZASC reported the same change by slot.
_NAMED_OPS = ("protect", "shrink")

#: the Chrome counter lane's series, in sample order.
_COUNTERS = ("configured", "kv_live", "kv_parked", "kv_reserved", "shared", "stranded")

#: (export key, op) of the per-pool event counts in :meth:`MemoryTimeline.to_dict`.
_OP_COUNTS = (
    ("allocs", "alloc"), ("releases", "release"), ("parks", "park"),
    ("restores", "restore"), ("refs_taken", "ref"), ("cows", "cow"),
    ("caches", "cache"), ("uncaches", "uncache"),
)


class _TrackedPool:
    """What the timeline knows about one KVBlockPool that the pool does
    not: its name, the TZASC slot backing it, the fixed activation bytes
    in that slot, and how many events of each op it reported."""

    __slots__ = ("pool", "name", "slot", "fixed_bytes", "ops")

    def __init__(self, pool, name: str, slot: Optional[int], fixed_bytes: int):
        self.pool = pool
        self.name = name
        self.slot = slot
        self.fixed_bytes = fixed_bytes
        self.ops: Counter = Counter()


def _tenant_of(owner: str) -> str:
    """``tenant/rNNN`` owner strings attribute to their tenant; bare
    request owners (no tenant context) pool under ``-``."""
    if not owner:
        return "-"
    head, sep, _rest = owner.partition("/")
    return head if sep else "-"


class MemoryTimeline:
    """Event-sourced secure-memory record for one instrumented stack.

    Attach with :meth:`attach` (sets the ``timeline`` hook attribute on
    the TZASC, the TAs' secure regions and their block pools), then
    optionally :meth:`install` on a telemetry collector to derive the
    per-scrape ``mem_*`` series.  Byte and block counts are read from
    the attached pools and the TZASC; the timeline itself keeps only
    owner attribution, the byte-second integrals, per-op event counts
    and the event ring.
    """

    SCHEMA = "repro.obs.memory/1"

    def __init__(self, sim, capacity: int = 8192):
        self.sim = sim
        self.capacity = capacity
        #: bounded event ring: (at, kind, op, source, amount, owner,
        #: extra, sample), where ``sample`` is the counter-lane tuple
        #: (``_COUNTERS`` order) taken right after the event, or None for
        #: the named protect/shrink events.
        self._events: deque = deque(maxlen=capacity)
        self.recorded = 0
        #: the TZASC whose regions are the configured bytes (set by attach).
        self._tzasc = None
        self._slot_names: Dict[int, str] = {}
        self._param_slots: set = set()
        self._pools: Dict[int, _TrackedPool] = {}
        #: tenant -> [held_bytes_now, byte_seconds_integral]
        self._tenants: Dict[str, List[float]] = {}
        self.stranded_byte_seconds = 0.0
        #: stranded bytes as of the last event: the value that has held
        #: since ``_last_t``.
        self._stranded = 0
        self._last_t = sim.now
        #: host seconds spent in the pre-scrape gauge refresh (the
        #: timeline's self-attributed sampling cost).
        self.host_seconds = 0.0
        self._gauges = None
        #: the system :meth:`attach` hooked, for :meth:`detach`.
        self._target = None

    # ------------------------------------------------------------------
    # attach / detach
    # ------------------------------------------------------------------
    def attach(self, target) -> "MemoryTimeline":
        """Wire the timeline hook into ``target`` (a TZLLM-like system):
        every hook site that declares ``timeline`` — the TZASC, the TAs'
        secure regions and their block pools — then learn the slot names
        and pools the events will refer to, and the blocks each tenant's
        live caches already hold."""
        set_hook(target, "timeline", self)
        self._target = target
        self._tzasc = getattr(target, "stack", target).board.tzasc
        for ta in getattr(target, "tas", {}).values():
            for region in (ta.params_region, ta.data_region):
                self._slot_names[region.tzasc_slot] = region.name
            self._param_slots.add(ta.params_region.tzasc_slot)
            engine = ta.batch_engine
            if engine is not None:
                self.register_pool(
                    engine.pool,
                    name=ta.model.model_id,
                    slot=ta.data_region.tzasc_slot,
                    fixed_bytes=engine.fixed_bytes,
                )
        # Credit the blocks already held (one per holder reference, as
        # alloc and ref do), so their later releases debit what was held.
        for tracked in self._pools.values():
            pool = tracked.pool
            for kv in pool.caches:
                if kv.block_ids:
                    self._tenant_add(kv.owner, len(kv.block_ids) * pool.block_bytes)
        self._stranded = self.stranded_bytes
        self._last_t = self.sim.now
        return self

    def detach(self) -> None:
        """Unhook the timeline from the attached target (data kept)."""
        if self._target is not None:
            set_hook(self._target, "timeline", None)
            self._target = None

    def register_pool(
        self, pool, name: str, slot: Optional[int] = None, fixed_bytes: int = 0
    ) -> None:
        """Track ``pool`` under ``name`` (its model id), optionally bound
        to the TZASC slot whose bytes back it.  The pool's ``timeline``
        hook is set by :meth:`attach`."""
        self._pools[id(pool)] = _TrackedPool(pool, name, slot, fixed_bytes)

    # ------------------------------------------------------------------
    # derived quantities (read from the pools and the TZASC)
    # ------------------------------------------------------------------
    def _slot_sizes(self) -> Dict[int, int]:
        """Programmed bytes per TZASC slot, in slot order."""
        if self._tzasc is None:
            return {}
        return {region.slot: region.size for region in self._tzasc.regions()}

    def _slot_name(self, slot: int) -> str:
        return self._slot_names.get(slot, "slot%d" % slot)

    def _kv_bytes(self, blocks: str) -> int:
        """``blocks`` (a pool count attribute) in bytes, over every pool."""
        return sum(
            getattr(t.pool, blocks) * t.pool.block_bytes for t in self._pools.values()
        )

    @property
    def configured_bytes(self) -> int:
        """Bytes behind every programmed TZASC region."""
        return sum(self._slot_sizes().values())

    @property
    def kv_live_bytes(self) -> int:
        return self._kv_bytes("active_blocks")

    @property
    def kv_parked_bytes(self) -> int:
        return self._kv_bytes("parked_blocks")

    @property
    def kv_reserved_bytes(self) -> int:
        return self._kv_bytes("reserved")

    @property
    def kv_cached_bytes(self) -> int:
        """Unreferenced blocks the prefix tree keeps resident."""
        return self._kv_bytes("cached_blocks")

    @property
    def shared_bytes(self) -> int:
        """Block allocations avoided by sharing right now: holder
        references in excess of the physical blocks backing them."""
        return self._kv_bytes("shared_saved_blocks")

    @property
    def live_bytes(self) -> int:
        """Bytes whose content is actually in use: resident parameters,
        activation scratch (while its slot is configured), and KV blocks
        holding content (active, parked, or cached for reuse)."""
        sizes = self._slot_sizes()
        live = sum(sizes.get(slot, 0) for slot in self._param_slots)
        for t in self._pools.values():
            live += t.pool.used_blocks * t.pool.block_bytes
            if t.slot is None or sizes.get(t.slot, 0) > 0:
                live += t.fixed_bytes
        return live

    @property
    def stranded_bytes(self) -> int:
        """Configured minus live: what elastic isolation would return."""
        return max(0, self.configured_bytes - self.live_bytes)

    @property
    def stranded_ratio(self) -> float:
        configured = self.configured_bytes
        return self.stranded_bytes / configured if configured else 0.0

    @property
    def events(self) -> Tuple[tuple, ...]:
        """The retained events as ``(at, kind, op, source, amount, owner,
        extra)``."""
        return tuple(event[:7] for event in self._events)

    @property
    def dropped(self) -> int:
        return self.recorded - len(self._events)

    def tenant_byte_seconds(self) -> Dict[str, float]:
        self._advance(self.sim.now)
        return {t: cell[1] for t, cell in sorted(self._tenants.items())}

    # ------------------------------------------------------------------
    # integration
    # ------------------------------------------------------------------
    def _advance(self, now: float) -> None:
        """Bring the byte-second integrals forward to ``now`` using the
        values that held since the last event (exact: state is piecewise
        constant between events)."""
        dt = now - self._last_t
        if dt > 0.0:
            self.stranded_byte_seconds += self._stranded * dt
            for cell in self._tenants.values():
                if cell[0]:
                    cell[1] += cell[0] * dt
            self._last_t = now

    def _tenant_add(self, owner: str, delta: float) -> None:
        tenant = _tenant_of(owner)
        cell = self._tenants.get(tenant)
        if cell is None:
            cell = self._tenants[tenant] = [0.0, 0.0]
        cell[0] += delta

    # ------------------------------------------------------------------
    # the hook
    # ------------------------------------------------------------------
    def note(self, kind: str, op: str, source, amount, owner: str, extra) -> None:
        """Record one event; every hook site calls this right after the
        change it reports.

        ``kind`` is ``"kv"`` (``source`` is the :class:`~repro.llm
        .kv_cache.KVBlockPool`) or ``"region"``: a TZASC configure,
        resize or disable (``source`` is the slot), or a secure region's
        protect or shrink (``source`` is its name, ``extra`` its slot),
        which names the change the TZASC reported just before.

        ==========================  ===============  ======================
        op                          amount           extra
        ==========================  ===============  ======================
        reserve, cancel             blocks           ``()``
        alloc                       block id         1 if from a reservation
        release (block freed)       block id         bucket it left
        ref                         block id         bucket it came from
        unref (block kept)          block id         (from, to) bucket
        cow (after dst's alloc)     tokens copied    (src, dst)
        cache, uncache              1                block id
        park, restore               blocks moved     block ids
        configure, resize, disable  new bytes        old bytes
        protect, shrink             protected bytes  slot
        ==========================  ===============  ======================
        """
        now = self.sim.now
        if op in _NAMED_OPS:
            self._slot_names[extra] = source
            sample = None
        else:
            self._advance(now)
            if kind == "kv":
                tracked = self._pools[id(source)]
                tracked.ops[op] += 1
                # A holder gains a block on alloc/ref and loses one on
                # unref/release; a cached block freed by eviction has no
                # holder to debit.
                if op == "alloc" or op == "ref":
                    self._tenant_add(owner, source.block_bytes)
                elif op == "unref" or (op == "release" and extra != "cached"):
                    self._tenant_add(owner, -source.block_bytes)
                source = tracked.name
            else:
                source = self._slot_name(source)
            sample = (
                self.configured_bytes,
                self.kv_live_bytes,
                self.kv_parked_bytes,
                self.kv_reserved_bytes,
                self.shared_bytes,
                self.stranded_bytes,
            )
            self._stranded = sample[-1]
        self.recorded += 1
        self._events.append((now, kind, op, source, amount, owner, extra, sample))

    # ------------------------------------------------------------------
    # telemetry derivation (pre-scrape hook)
    # ------------------------------------------------------------------
    def install(self, collector) -> "MemoryTimeline":
        """Derive the ``mem_*`` series on ``collector``'s registry every
        scrape (and therefore into its :class:`TimeSeriesStore`)."""
        registry = collector.registry
        self._gauges = {
            "configured": registry.gauge(
                "mem_secure_configured_bytes", "Bytes behind secure TZASC regions"
            ),
            "kv_live": registry.gauge(
                "mem_kv_live_bytes", "KV bytes held by active sequences"
            ),
            "kv_parked": registry.gauge(
                "mem_kv_parked_bytes", "KV bytes held by parked (preempted) sequences"
            ),
            "kv_reserved": registry.gauge(
                "mem_kv_reserved_bytes", "KV bytes promised to admitted requests"
            ),
            "kv_cached": registry.gauge(
                "mem_kv_cached_bytes",
                "KV bytes kept resident by the prefix tree for reuse",
            ),
            "shared": registry.gauge(
                "mem_shared_bytes",
                "KV bytes saved right now by shared-prefix block reuse",
            ),
            "stranded": registry.gauge(
                "mem_stranded_bytes",
                "Configured minus live: capacity elastic isolation would free",
            ),
            "stranded_ratio": registry.gauge(
                "mem_stranded_ratio", "Stranded bytes over configured bytes"
            ),
            "occupancy": registry.gauge(
                "mem_pool_occupancy", "Block-pool blocks in use over total"
            ),
            "high_water": registry.gauge(
                "mem_pool_high_water_blocks",
                "Backing high-water mark of the block pool (end-only growth)",
            ),
            "stranded_bs": registry.counter(
                "mem_stranded_byte_seconds_total",
                "Time integral of stranded secure bytes",
            ),
            "tenant_bs": registry.counter(
                "mem_tenant_byte_seconds_total",
                "Per-tenant time integral of held secure KV bytes",
            ),
        }
        collector.pre_scrape.append(self._refresh_gauges)
        return self

    def _refresh_gauges(self) -> None:
        start = time.perf_counter()
        self._advance(self.sim.now)
        g = self._gauges
        g["configured"].set(float(self.configured_bytes))
        g["kv_live"].set(float(self.kv_live_bytes))
        g["kv_parked"].set(float(self.kv_parked_bytes))
        g["kv_reserved"].set(float(self.kv_reserved_bytes))
        g["kv_cached"].set(float(self.kv_cached_bytes))
        g["shared"].set(float(self.shared_bytes))
        g["stranded"].set(float(self.stranded_bytes))
        g["stranded_ratio"].set(self.stranded_ratio)
        for t in self._pools.values():
            pool = t.pool
            g["occupancy"].set(
                (pool.active_blocks + pool.parked_blocks) / pool.total_blocks,
                pool=t.name,
            )
            g["high_water"].set(float(pool.backing_blocks), pool=t.name)
        g["stranded_bs"]._values[()] = self.stranded_byte_seconds
        tenant_values = g["tenant_bs"]._values
        for tenant, cell in self._tenants.items():
            tenant_values[(("tenant", tenant),)] = cell[1]
        self.host_seconds += time.perf_counter() - start

    # ------------------------------------------------------------------
    # exports
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """The memory-timeline artifact (validated in CI)."""
        self._advance(self.sim.now)
        events = [
            {
                "at": at,
                "kind": kind,
                "op": op,
                "source": source,
                "amount": amount,
                "owner": owner,
                "extra": list(extra) if isinstance(extra, tuple) else extra,
            }
            for at, kind, op, source, amount, owner, extra, _sample in self._events
        ]
        pools = {}
        for t in self._pools.values():
            pool = t.pool
            entry = {
                "total_blocks": pool.total_blocks,
                "block_bytes": pool.block_bytes,
                "fixed_bytes": t.fixed_bytes,
                "active_blocks": pool.active_blocks,
                "parked_blocks": pool.parked_blocks,
                "cached_blocks": pool.cached_blocks,
                "refs": pool.total_refs,
                "shared_saved_blocks": pool.shared_saved_blocks,
                "reserved_blocks": pool.reserved,
                "free_blocks": pool.free_blocks,
                "high_water_blocks": pool.backing_blocks,
                "occupancy": pool.used_blocks / pool.total_blocks,
            }
            for key, op in _OP_COUNTS:
                entry[key] = t.ops[op]
            pools[t.name] = entry
        return {
            "schema": self.SCHEMA,
            "events": events,
            "recorded": self.recorded,
            "dropped": self.dropped,
            "regions": {
                self._slot_name(slot): size for slot, size in self._slot_sizes().items()
            },
            "pools": pools,
            "totals": {
                "configured_bytes": self.configured_bytes,
                "kv_live_bytes": self.kv_live_bytes,
                "kv_parked_bytes": self.kv_parked_bytes,
                "kv_reserved_bytes": self.kv_reserved_bytes,
                "kv_cached_bytes": self.kv_cached_bytes,
                "shared_bytes": self.shared_bytes,
                "live_bytes": self.live_bytes,
                "stranded_bytes": self.stranded_bytes,
                "stranded_byte_seconds": self.stranded_byte_seconds,
            },
            "tenants": {t: cell[1] for t, cell in sorted(self._tenants.items())},
        }

    def to_chrome_trace(self) -> str:
        """A Chrome trace with a ``memory`` counter lane ("C" events):
        load in chrome://tracing or Perfetto alongside the span trace.

        One sample per retained event except the named protect/shrink
        ones, each the values right after that event, so the lane is
        exact even when the ring dropped older events or the timeline
        was attached mid-run.
        """
        events: List[dict] = [
            metadata_event(_MEM_TID, "thread_name", {"name": "memory"}),
            metadata_event(_MEM_TID, "thread_sort_index", {"sort_index": _MEM_TID}),
        ]
        for event in self._events:
            sample = event[7]
            if sample is not None:
                events.append(
                    {
                        "ph": "C", "pid": 1, "tid": _MEM_TID,
                        "name": "secure-memory",
                        "ts": event[0] * 1e6,
                        "args": dict(zip(_COUNTERS, sample)),
                    }
                )
        return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})


# ----------------------------------------------------------------------
# pressure alerting
# ----------------------------------------------------------------------
def memory_pressure_rules(
    stranded_ratio: float = 0.5,
    for_duration: float = 60.0,
    objective: float = 0.95,
    long_window: float = 300.0,
    short_window: float = 30.0,
):
    """The two memory-pressure alerts the observatory feeds.

    * ``mem-stranded-ratio`` — more than ``stranded_ratio`` of the
      configured secure bytes held no live content for ``for_duration``
      seconds: the REE is being starved for nothing.
    * ``kv-admission-burn`` — KV-admission head-of-line blocks are
      burning the admission error budget (``1 - objective``) faster
      than sustainable on both windows: the pool is undersized (or a
      tenant is hoarding blocks).
    """
    return [
        ThresholdRule(
            "mem-stranded-ratio",
            "mem_stranded_ratio",
            ">=",
            stranded_ratio,
            for_duration=for_duration,
        ),
        BurnRateRule(
            "kv-admission-burn",
            total_metric="serve_admitted_total",
            bad_metric="serve_kv_admission_blocked_total",
            objective=objective,
            long_window=long_window,
            short_window=short_window,
        ),
    ]


# ----------------------------------------------------------------------
# fleet rollup
# ----------------------------------------------------------------------
class FleetMemoryView:
    """Per-scrape secure-memory rollup over a fleet of surrogate devices.

    Surrogate devices carry no real pool or TZASC, so the view derives
    the same series the single-stack timeline records from the state the
    surrogate does track:

    * **configured** — resident parameter bytes plus the device's KV
      backing *high-water* (end-only growth: the secure region only
      shrinks when the device's secure world drains or dies);
    * **live** — KV footprint of the requests running on the gateway's
      lanes, priced like the tenant accountant at
      ``(prompt + output) x kv_bytes_per_token``;
    * **parked** — the session cache's resident KV (parked between
      turns, waiting for the next request of a sticky session);
    * **shared** — the resident shared-prefix KV (the device's prefix
      LRU), the bytes cross-request block reuse keeps warm;
    * **stranded** — ``configured - params - live - parked - shared``:
      the high-water slack an elastic mechanism would return to the REE.

    Arm it as a collector ``pre_scrape`` hook (``Fleet.
    start_memory_view()``), after which every refresh also advances the
    fleet-wide stranded byte-second integral and the per-tenant secure
    byte-second meters.
    """

    def __init__(self, router, models, registry=None):
        self.router = router
        self.sim = router.sim
        self.registry = registry if registry is not None else router.registry
        self.kv_rate = {m.model_id: m.kv_bytes_per_token() for m in models}
        self.param_bytes = {m.model_id: m.param_bytes for m in models}
        self._default_rate = (
            sum(self.kv_rate.values()) / len(self.kv_rate) if self.kv_rate else 0.0
        )
        self.high_water: Dict[str, float] = {}
        self.stranded_byte_seconds = 0.0
        self.tenant_byte_seconds: Dict[str, float] = {}
        self.refreshes = 0
        self.host_seconds = 0.0
        self._last_t: Optional[float] = None
        #: device -> (configured, params, live, parked, shared, stranded)
        #: at the last refresh (what render_memtop and to_dict read).
        self.last: Dict[str, Tuple[float, float, float, float, float, float]] = {}
        reg = self.registry
        self._g_configured = reg.gauge(
            "fleet_mem_configured_bytes", "Derived secure bytes configured per device"
        )
        self._g_live = reg.gauge(
            "fleet_mem_kv_live_bytes", "KV bytes of requests running per device"
        )
        self._g_parked = reg.gauge(
            "fleet_mem_kv_parked_bytes", "KV bytes parked in session caches per device"
        )
        self._g_shared = reg.gauge(
            "fleet_mem_shared_bytes",
            "Resident shared-prefix KV bytes per device",
        )
        self._g_stranded = reg.gauge(
            "fleet_mem_stranded_bytes", "Stranded secure bytes per device"
        )
        self._g_ratio = reg.gauge(
            "fleet_mem_stranded_ratio", "Fleet-wide stranded over configured bytes"
        )
        self._c_stranded_bs = reg.counter(
            "fleet_mem_stranded_byte_seconds_total",
            "Time integral of fleet-wide stranded secure bytes",
        )
        self._c_tenant_bs = reg.counter(
            "fleet_mem_tenant_byte_seconds_total",
            "Per-tenant time integral of resident secure KV bytes",
        )

    # ------------------------------------------------------------------
    def refresh(self) -> None:
        """One rollup pass (runs as a collector ``pre_scrape`` hook, so
        its cost lands inside the collector's self-attributed host time
        as well as in :attr:`host_seconds`)."""
        start = time.perf_counter()
        now = self.sim.now
        dt = 0.0 if self._last_t is None else now - self._last_t
        tenant_now: Dict[str, float] = {}
        fleet_configured = fleet_live = fleet_parked = fleet_stranded = 0.0
        g_configured = self._g_configured._values
        g_live = self._g_live._values
        g_parked = self._g_parked._values
        g_shared = self._g_shared._values
        g_stranded = self._g_stranded._values
        for device_id, device in self.router.devices.items():
            params = 0.0
            for ta in device.system.tas.values():
                if ta.resident:
                    params += self.param_bytes.get(
                        ta.model.model_id, ta.model.param_bytes
                    )
            live = 0.0
            for lane in device.gateway.lanes.values():
                rate = self.kv_rate.get(lane.model_id, self._default_rate)
                for request in lane.running:
                    held = (request.prompt_tokens + request.output_tokens) * rate
                    live += held
                    tenant_now[request.tenant] = (
                        tenant_now.get(request.tenant, 0.0) + held
                    )
            parked = 0.0
            session_model = device.session_model
            for session_id, tokens in device.sessions.items():
                rate = self.kv_rate.get(
                    session_model.get(session_id, ""), self._default_rate
                )
                held = tokens * rate
                parked += held
                tenant = session_id.partition("/")[0]
                tenant_now[tenant] = tenant_now.get(tenant, 0.0) + held
            shared = 0.0
            for prefix_id, tokens in device.prefixes.items():
                held = tokens * self._default_rate
                shared += held
                tenant = prefix_id.partition("/")[0]
                tenant_now[tenant] = tenant_now.get(tenant, 0.0) + held
            high = self.high_water.get(device_id, 0.0)
            if device.lifecycle.state == "down":
                high = 0.0  # the secure world died; its backing is gone
            high = max(high, live + parked + shared)
            self.high_water[device_id] = high
            configured = params + high
            stranded = max(0.0, high - live - parked - shared)
            self.last[device_id] = (configured, params, live, parked, shared, stranded)
            key = (("device", device_id),)
            g_configured[key] = configured
            g_live[key] = live
            g_parked[key] = parked
            g_shared[key] = shared
            g_stranded[key] = stranded
            fleet_configured += configured
            fleet_live += live
            fleet_parked += parked
            fleet_stranded += stranded
        if dt > 0.0:
            self.stranded_byte_seconds += fleet_stranded * dt
            integrals = self.tenant_byte_seconds
            for tenant, held in tenant_now.items():
                integrals[tenant] = integrals.get(tenant, 0.0) + held * dt
        self._last_t = now
        self._g_ratio._values[()] = (
            fleet_stranded / fleet_configured if fleet_configured else 0.0
        )
        self._c_stranded_bs._values[()] = self.stranded_byte_seconds
        tenant_values = self._c_tenant_bs._values
        for tenant, total in self.tenant_byte_seconds.items():
            tenant_values[(("tenant", tenant),)] = total
        self.refreshes += 1
        self.host_seconds += time.perf_counter() - start

    # ------------------------------------------------------------------
    def render_memtop(self, top_k: int = 5) -> str:
        """The ``mem top`` operator table: per-device secure-memory
        breakdown plus the fleet stranded integral and the tenants
        paying the most byte-seconds."""
        from ..analysis import render_table

        mib = 1024.0 * 1024.0
        rows = []
        totals = [0.0] * 6
        for device_id in sorted(self.last):
            configured, params, live, parked, shared, stranded = self.last[device_id]
            for i, v in enumerate((configured, params, live, parked, shared, stranded)):
                totals[i] += v
            rows.append(
                [
                    device_id,
                    "%.1f" % (configured / mib),
                    "%.1f" % (params / mib),
                    "%.1f" % (live / mib),
                    "%.1f" % (parked / mib),
                    "%.1f" % (shared / mib),
                    "%.1f" % (stranded / mib),
                    "%.0f%%" % (100.0 * stranded / configured if configured else 0.0),
                ]
            )
        rows.append(
            [
                "fleet",
                "%.1f" % (totals[0] / mib),
                "%.1f" % (totals[1] / mib),
                "%.1f" % (totals[2] / mib),
                "%.1f" % (totals[3] / mib),
                "%.1f" % (totals[4] / mib),
                "%.1f" % (totals[5] / mib),
                "%.0f%%" % (100.0 * totals[5] / totals[0] if totals[0] else 0.0),
            ]
        )
        table = render_table(
            ["device", "cfg MiB", "params", "kv live", "parked", "shared",
             "stranded", "str%"],
            rows,
            title="mem top @ t=%.0fs (stranded integral %.1f GiB*s)"
            % (self.sim.now, self.stranded_byte_seconds / (1024.0 ** 3)),
        )
        top = sorted(
            self.tenant_byte_seconds.items(), key=lambda kv: (-kv[1], kv[0])
        )[:top_k]
        if top:
            table += "\ntenant byte-seconds: " + ", ".join(
                "%s=%.1f MiB*s" % (tenant, bs / mib) for tenant, bs in top
            )
        return table

    def to_dict(self) -> dict:
        return {
            "schema": "repro.obs.memory.fleet/1",
            "devices": {
                device_id: {
                    "configured_bytes": configured,
                    "param_bytes": params,
                    "kv_live_bytes": live,
                    "kv_parked_bytes": parked,
                    "kv_shared_bytes": shared,
                    "stranded_bytes": stranded,
                    "high_water_bytes": self.high_water.get(device_id, 0.0),
                }
                for device_id, (configured, params, live, parked, shared, stranded)
                in sorted(self.last.items())
            },
            "stranded_byte_seconds": self.stranded_byte_seconds,
            "tenant_byte_seconds": dict(sorted(self.tenant_byte_seconds.items())),
            "refreshes": self.refreshes,
        }
