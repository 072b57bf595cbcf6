"""The secure-memory observatory (repro.obs.memory).

Covers the event-sourced MemoryTimeline on a real batching stack, the
derived ``mem_*`` telemetry series, the Chrome counter lane, pressure
rules, the flight-recorder memory postmortem (satellite of the same
PR), and the two contracts everything else leans on: zero allocations
with no timeline attached, and fingerprint parity when one is.
"""

import json
import tracemalloc

import pytest

from repro.core import BatchConfig, TZLLM
from repro.llm import TINYLLAMA
from repro.obs import MemoryTimeline, instrument, memory_pressure_rules
from repro.obs.memory import _tenant_of
from repro.obs.telemetry import TelemetryCollector, TelemetryConfig, TimeSeriesStore
from repro.serve import GatewayConfig, ServeGateway


def make_stack(budget_blocks=None, **gateway_overrides):
    batch = BatchConfig(
        max_batch_size=2,
        block_tokens=16,
        **({} if budget_blocks is None else {"budget_blocks": budget_blocks})
    )
    system = TZLLM(TINYLLAMA, batch_config=batch)
    obs = instrument(system)
    gateway_overrides.setdefault("batching", True)
    gateway_overrides.setdefault("shedding", False)
    gateway = ServeGateway(system, GatewayConfig(**gateway_overrides))
    return system, obs, gateway


def drive(gateway, tenants=("a", "b", "a", "c")):
    done = [
        gateway.submit(32, 24, priority="batch", tenant=t) for t in tenants
    ]
    for request in done:
        gateway.sim.run_until(request.completion)
    return done


# ----------------------------------------------------------------------
# event sourcing and aggregates
# ----------------------------------------------------------------------
def test_timeline_records_regions_and_blocks_with_owners():
    system, obs, gateway = make_stack()
    timeline = MemoryTimeline(system.sim).attach(system)
    drive(gateway)
    export = timeline.to_dict()
    assert export["schema"] == "repro.obs.memory/1"
    assert export["recorded"] > 0 and export["dropped"] == 0
    kinds = {e["kind"] for e in export["events"]}
    assert kinds == {"region", "kv"}
    # Regions exist before attach (built with the stack), so the ops
    # seen live are the demand-driven resizes, not the initial configure.
    ops = {e["op"] for e in export["events"]}
    assert {"resize", "reserve", "alloc", "release"} <= ops
    # Owner attribution reached the block events: tenant/rNNN.
    owners = {e["owner"] for e in export["events"] if e["op"] == "alloc"}
    assert owners and all("/" in o for o in owners)
    assert {o.split("/")[0] for o in owners} == {"a", "b", "c"}
    # Events are time-ordered (the ring appends in sim order).
    ats = [e["at"] for e in export["events"]]
    assert ats == sorted(ats)


def test_timeline_integrates_stranded_and_tenant_byte_seconds():
    system, obs, gateway = make_stack()
    timeline = MemoryTimeline(system.sim).attach(system)
    drive(gateway)
    totals = timeline.to_dict()["totals"]
    # Everything drained: configured collapsed back to zero, but the
    # history integral kept what was stranded while regions were up.
    assert totals["configured_bytes"] == 0
    assert totals["stranded_byte_seconds"] > 0
    tenants = timeline.tenant_byte_seconds()
    assert set(tenants) == {"a", "b", "c"}
    assert all(v > 0 for v in tenants.values())


def test_pool_conservation_in_export():
    system, obs, gateway = make_stack()
    timeline = MemoryTimeline(system.sim).attach(system)
    drive(gateway)
    for pool in timeline.to_dict()["pools"].values():
        assert (
            pool["free_blocks"] + pool["active_blocks"] + pool["parked_blocks"]
            + pool["cached_blocks"]
            == pool["total_blocks"]
        )
        assert pool["allocs"] == pool["releases"]  # fully drained


def test_tenant_of_owner_parsing():
    assert _tenant_of("") == "-"
    assert _tenant_of("r17") == "-"
    assert _tenant_of("acme/r17") == "acme"


# ----------------------------------------------------------------------
# telemetry derivation
# ----------------------------------------------------------------------
def test_install_derives_mem_series_into_store():
    system, obs, gateway = make_stack()
    timeline = MemoryTimeline(system.sim).attach(system)
    store = TimeSeriesStore(TelemetryConfig())
    collector = TelemetryCollector(
        system.sim, obs.registry, store, TelemetryConfig()
    )
    timeline.install(collector)

    seen = {"stranded": 0.0}

    def probe():
        # Sample mid-run (pre_scrape runs before the gauges are read).
        seen["stranded"] = max(seen["stranded"], timeline.stranded_bytes)

    collector.pre_scrape.append(probe)
    requests = [gateway.submit(32, 24, priority="batch", tenant="a")]

    def scraper():
        for _ in range(40):
            yield system.sim.timeout(0.25)
            collector.scrape()

    system.sim.process(scraper())
    for request in requests:
        system.sim.run_until(request.completion)
    system.sim.run(until=system.sim.now + 10.0)
    assert collector.scrapes > 0
    assert store.latest("mem_secure_configured_bytes") is not None
    assert store.latest("mem_stranded_byte_seconds_total") > 0
    assert store.latest("mem_pool_occupancy", pool=TINYLLAMA.model_id) is not None
    assert store.latest("mem_tenant_byte_seconds_total", tenant="a") > 0
    # Stranding was visible live: activation scratch + block rounding
    # keep configured above live while the batch runs.
    assert seen["stranded"] >= 0


# ----------------------------------------------------------------------
# chrome counter lane
# ----------------------------------------------------------------------
def test_chrome_trace_memory_counter_lane():
    system, obs, gateway = make_stack()
    timeline = MemoryTimeline(system.sim).attach(system)
    drive(gateway)
    doc = json.loads(timeline.to_chrome_trace())
    events = doc["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    counters = [e for e in events if e["ph"] == "C"]
    assert {m["name"] for m in meta} == {"thread_name", "thread_sort_index"}
    assert counters and all(e["name"] == "secure-memory" for e in counters)
    assert all(e["tid"] == 90 for e in counters)
    ts = [e["ts"] for e in counters]
    assert ts == sorted(ts)
    keys = {"configured", "kv_live", "kv_parked", "kv_reserved", "shared",
            "stranded"}
    assert all(set(e["args"]) == keys for e in counters)
    # The lane agrees with the live aggregates at the end.
    final = counters[-1]["args"]
    assert final["configured"] == timeline.configured_bytes
    assert final["kv_live"] == timeline.kv_live_bytes


def _submit_and_run_until_blocks_held(system, gateway):
    """Submit a burst and run until the first dispatch holds KV blocks."""
    requests = [gateway.submit(32, 24, priority="batch", tenant=t) for t in "abac"]
    pool = system.ta.batch_engine.pool
    while pool.active_blocks == 0:
        assert system.sim.now < 60.0, "no dispatch allocated a block"
        system.sim.run(until=system.sim.now + 0.01)
    return requests


def _attach_mid_run(system, gateway):
    """Attach once the first dispatch holds KV blocks: the blocks
    allocated so far are released with no alloc event in the ring."""
    requests = _submit_and_run_until_blocks_held(system, gateway)
    return MemoryTimeline(system.sim).attach(system), requests


def _attach_small_ring(system, gateway):
    """A 16-event ring: the retained history starts mid-run."""
    timeline = MemoryTimeline(system.sim, capacity=16).attach(system)
    requests = [gateway.submit(32, 24, priority="batch", tenant=t) for t in "abac"]
    return timeline, requests


@pytest.mark.parametrize(
    "start", [_attach_mid_run, _attach_small_ring], ids=["mid-run-attach", "ring-overflow"]
)
def test_counter_lane_is_exact_without_the_full_history(start):
    system, obs, gateway = make_stack()
    timeline, requests = start(system, gateway)
    for request in requests:
        system.sim.run_until(request.completion)
    if start is _attach_small_ring:
        assert timeline.dropped > 0
    doc = json.loads(timeline.to_chrome_trace())
    samples = [e["args"] for e in doc["traceEvents"] if e["ph"] == "C"]
    assert samples
    assert all(value >= 0 for sample in samples for value in sample.values())
    totals = timeline.to_dict()["totals"]
    assert samples[-1] == {
        "configured": totals["configured_bytes"],
        "kv_live": totals["kv_live_bytes"],
        "kv_parked": totals["kv_parked_bytes"],
        "kv_reserved": totals["kv_reserved_bytes"],
        "shared": totals["shared_bytes"],
        "stranded": totals["stranded_bytes"],
    }


def test_mid_run_attach_integrates_tenants_like_a_from_start_attach():
    """Blocks held at a mid-run attach are credited to their tenants, so
    each tenant's byte-seconds equal what a from-start timeline adds
    over the same window (undercredited, each release of a pre-attach
    block would cancel one of the tenant's later allocations)."""
    late_system, _obs, late_gateway = make_stack()
    late, late_requests = _attach_mid_run(late_system, late_gateway)
    early_system, _obs, early_gateway = make_stack()
    early = MemoryTimeline(early_system.sim).attach(early_system)
    early_requests = _submit_and_run_until_blocks_held(early_system, early_gateway)
    assert early_system.sim.now == late_system.sim.now
    before = early.tenant_byte_seconds()
    for system, requests in (
        (late_system, late_requests), (early_system, early_requests)
    ):
        for request in requests:
            system.sim.run_until(request.completion)
    assert early_system.sim.now == late_system.sim.now
    after = early.tenant_byte_seconds()
    window = {tenant: after[tenant] - before.get(tenant, 0.0) for tenant in after}
    assert window["a"] > 0.0
    got = late.tenant_byte_seconds()
    for tenant in set(window) | set(got):
        assert got.get(tenant, 0.0) == pytest.approx(window.get(tenant, 0.0), rel=1e-9)


# ----------------------------------------------------------------------
# pressure rules + admission-block accounting
# ----------------------------------------------------------------------
def test_memory_pressure_rules_shape():
    rules = memory_pressure_rules(stranded_ratio=0.7, objective=0.9)
    assert [r.name for r in rules] == ["mem-stranded-ratio", "kv-admission-burn"]
    threshold, burn = rules
    assert threshold.metric == "mem_stranded_ratio"
    assert threshold.threshold == 0.7
    assert burn.total_metric == "serve_admitted_total"
    assert burn.bad_metric == "serve_kv_admission_blocked_total"


def test_kv_admission_block_counts_once_and_flags_request():
    # 6-block budget, 4 blocks per request: the second queues blocked.
    system, obs, gateway = make_stack(budget_blocks=6)
    requests = drive(gateway, tenants=("a", "b"))
    assert any(r.kv_blocked for r in requests)
    blocked = obs.registry.counter(
        "serve_kv_admission_blocked_total", ""
    ).value(model=TINYLLAMA.model_id)
    # Head-of-line dedup: one blocked head, many dispatch polls.
    assert blocked == 1
    sites = [e.site for e in obs.recorder.events if e.category == "memory"]
    assert "gateway.kv_admission_block" in sites


def test_failed_kv_blocked_request_gets_memory_postmortem():
    from repro.faults.plan import FaultPlan, FaultSpec

    system = TZLLM(
        TINYLLAMA,
        batch_config=BatchConfig(max_batch_size=2, block_tokens=16, budget_blocks=6),
        cache_fraction=0.0,
    )
    system.run_infer(8, 0)
    obs = instrument(system)
    timeline = MemoryTimeline(system.sim).attach(system)
    plan = FaultPlan(
        11, [FaultSpec(site="flash.read_error", probability=1.0)]
    )
    plan.injector(system.sim).arm(system)
    gateway = ServeGateway(
        system,
        GatewayConfig(batching=True, shedding=False, max_retries=1),
    )
    first = gateway.submit(32, 24, priority="batch", tenant="a")
    second = gateway.submit(32, 24, priority="batch", tenant="b")
    for request in (first, second):
        system.sim.run_until(request.completion)
    failed = [r for r in (first, second) if r.failed]
    assert failed  # every read faults, retries exhaust
    flagged = [r for r in failed if r.kv_blocked]
    assert flagged  # the queued head blocked while the first held blocks
    for request in flagged:
        assert request.postmortem_memory  # memory-category tail attached
        assert all(e.category == "memory" for e in request.postmortem_memory)
    # Non-KV-blocked failures carry only the generic postmortem.
    for request in failed:
        if not request.kv_blocked:
            assert request.postmortem_memory is None


# ----------------------------------------------------------------------
# cost contracts
# ----------------------------------------------------------------------
def test_unattached_stack_allocates_nothing_in_memory_module():
    system, obs, gateway = make_stack()
    drive(gateway)  # warm every code path first
    tracemalloc.start(1)
    try:
        drive(gateway)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    memory_py = MemoryTimeline.note.__code__.co_filename
    blocks = sum(
        stat.count
        for stat in snapshot.filter_traces(
            [tracemalloc.Filter(True, memory_py)]
        ).statistics("filename")
    )
    assert blocks == 0


def _fingerprint(gateway, requests):
    return [
        (
            r.request_id,
            r.state,
            r.attempts,
            round(r.dispatched_at, 9),
            round(r.finished_at, 9) if r.finished_at is not None else None,
            r.tokens_generated,
        )
        for r in requests
    ] + list(gateway.log)


def test_attaching_timeline_does_not_perturb_the_run():
    runs = []
    for with_timeline in (False, True):
        system, obs, gateway = make_stack()
        if with_timeline:
            timeline = MemoryTimeline(system.sim).attach(system)
        runs.append(_fingerprint(gateway, drive(gateway)))
    assert runs[0] == runs[1]
    assert timeline.recorded > 0  # the guards gate cost, not coverage


def test_detach_unwires_every_hook():
    system, obs, gateway = make_stack()
    timeline = MemoryTimeline(system.sim).attach(system)
    drive(gateway)
    recorded = timeline.recorded
    timeline.detach()
    assert system.stack.board.tzasc.timeline is None
    assert system.ta.batch_engine.pool.timeline is None
    drive(gateway)
    assert timeline.recorded == recorded  # silent after detach
