"""The fleet memory rollup (repro.obs.memory.FleetMemoryView)."""

import pytest

from repro.config import RK3588
from repro.errors import ConfigurationError
from repro.fleet import Fleet
from repro.llm import TINYLLAMA
from repro.obs import TelemetryConfig
from repro.workloads.fleet import FleetRequest, FleetTenantSpec, generate_fleet_trace


def _fleet(n=2, **kwargs):
    platforms = [("dev%d" % i, RK3588) for i in range(n)]
    return Fleet(platforms, [TINYLLAMA], policy="cache-aware", warm=True, **kwargs)


def _request(at=0.0, tenant="t", session="t/s1", new=32, out=8):
    return FleetRequest(
        at=at, tenant=tenant, session_id=session, turn=1,
        model_id=TINYLLAMA.model_id, priority="interactive", prefix_id="",
        prefix_tokens=0, context_tokens=0, new_tokens=new, output_tokens=out,
    )


def _drive(fleet, horizon=120.0):
    tenants = [
        FleetTenantSpec("alpha", TINYLLAMA.model_id, "interactive",
                        sessions_per_hour=240, output_tokens=(4, 12)),
        FleetTenantSpec("beta", TINYLLAMA.model_id, "batch",
                        sessions_per_hour=120, output_tokens=(8, 24)),
    ]
    trace = generate_fleet_trace(horizon, tenants, seed=9)

    def feeder():
        for request in trace:
            yield fleet.sim.timeout(max(0.0, request.at - fleet.sim.now))
            fleet.route(request)

    fleet.sim.process(feeder())
    fleet.sim.run(until=horizon)
    return trace


def test_memory_view_requires_telemetry_and_starts_once():
    fleet = _fleet(1)
    with pytest.raises(ConfigurationError):
        fleet.start_memory_view()
    fleet.start_telemetry(until=10.0)
    fleet.start_memory_view()
    with pytest.raises(ConfigurationError):
        fleet.start_memory_view()


def test_memory_view_series_and_stranded_integral():
    # A small session LRU forces evictions: the backing high-water stays
    # where the peak put it while the parked content drops — which is
    # exactly the end-only-growth stranding the observatory measures.
    fleet = _fleet(2, session_capacity=3)
    fleet.start_telemetry(
        until=120.0, config=TelemetryConfig(scrape_interval=1.0, ring_capacity=256)
    )
    view = fleet.start_memory_view()
    _drive(fleet)
    store = fleet.telemetry.store
    assert view.refreshes > 0
    for device_id in fleet.devices:
        configured = store.latest("fleet_mem_configured_bytes", device=device_id)
        # Warm devices always hold resident params: configured > 0.
        assert configured and configured >= TINYLLAMA.param_bytes
    # The acceptance series: a nonzero stranded byte-second integral
    # (params sit configured while KV churns below the high-water mark).
    assert store.latest("fleet_mem_stranded_byte_seconds_total") > 0
    assert view.stranded_byte_seconds > 0
    # Parked sessions priced per tenant.
    assert view.tenant_byte_seconds
    assert all(v >= 0 for v in view.tenant_byte_seconds.values())


def test_memory_view_snapshot_and_memtop_render():
    fleet = _fleet(2)
    fleet.start_telemetry(until=120.0)
    fleet.start_memory_view()
    _drive(fleet)
    snap = fleet.telemetry_snapshot()
    assert snap["memory"]["schema"] == "repro.obs.memory.fleet/1"
    assert set(snap["memory"]["devices"]) == set(fleet.devices)
    for info in snap["memory"]["devices"].values():
        assert info["configured_bytes"] >= info["kv_live_bytes"]
    top = fleet.memory.render_memtop()
    assert "mem top" in top and "dev0" in top and "fleet" in top
    assert "tenant byte-seconds" in top


def test_session_model_map_tracks_lru_and_crash():
    fleet = _fleet(1, session_capacity=2)
    device = fleet.device("dev0")
    done = []
    for i, session in enumerate(("t/s1", "t/s2", "t/s3")):
        request = _request(at=float(i), session=session, out=2)
        done.append(fleet.route(request))
    for ticket in done:
        fleet.sim.run_until(ticket.completion)
    # LRU capacity 2: s1 evicted, map stays parallel to sessions.
    assert set(device.session_model) == set(device.sessions)
    assert all(m == TINYLLAMA.model_id for m in device.session_model.values())
    device.crash()
    assert not device.session_model and not device.sessions
