"""Routing-tier behaviour: policies, spillover, shedding, rebalance."""

import pytest

from repro.config import RK3588
from repro.fleet import (
    CacheAwarePolicy,
    DeviceNode,
    Fleet,
    FleetLoadGenerator,
    FleetRouter,
    FleetSaturated,
    make_policy,
    scale_platform,
)
from repro.errors import ConfigurationError
from repro.llm import TINYLLAMA
from repro.obs import MetricsRegistry
from repro.sim import Simulator
from repro.workloads import FleetTenantSpec, generate_fleet_trace
from repro.workloads.fleet import FleetRequest


def replace_model(request, model_id):
    import dataclasses

    return dataclasses.replace(request, model_id=model_id)


def _request(at=0.0, session="t/s1", prefix="", prefix_tokens=0, context=0, new=32, out=4):
    return FleetRequest(
        at=at,
        tenant="t",
        session_id=session,
        turn=1,
        model_id=TINYLLAMA.model_id,
        priority="interactive",
        prefix_id=prefix,
        prefix_tokens=prefix_tokens,
        context_tokens=context,
        new_tokens=new,
        output_tokens=out,
    )


def _fleet(n=2, policy="cache-aware", **kwargs):
    platforms = [("dev%d" % i, RK3588) for i in range(n)]
    return Fleet(platforms, [TINYLLAMA], policy=policy, warm=True, **kwargs)


def test_session_affinity_returns_turns_to_kv_holder():
    fleet = _fleet(3, policy="session-affinity")
    first = fleet.route(_request(session="t/s1"))
    fleet.sim.run_until(first.completion)
    holder = first.device_id
    assert fleet.router.pins["t/s1"] == holder
    second = fleet.route(_request(session="t/s1", context=200))
    assert second.device_id == holder
    # The KV discount shrank the effective prompt the gateway saw.
    assert second.prompt_tokens < 200 + 32


def test_cache_aware_prefers_prefix_holder():
    fleet = _fleet(3, policy="cache-aware")
    seed = _request(session="t/s1", prefix="t/p0", prefix_tokens=400, new=8)
    first = fleet.route(seed)
    fleet.sim.run_until(first.completion)
    holder = first.device_id
    # A *different* session sharing the prefix follows it.
    other = _request(session="t/s2", prefix="t/p0", prefix_tokens=400, new=8)
    second = fleet.route(other)
    assert second.device_id == holder
    assert second.prompt_tokens == 8  # 400 prefix tokens discounted


def test_spillover_falls_through_to_next_ranked_device():
    fleet = _fleet(2, policy="least-outstanding")
    # Fill device queues: interactive capacity is 8 per lane, one runs.
    served = [fleet.route(_request(session="t/s%d" % i)) for i in range(9)]
    first_device = served[0].device_id
    others = {r.device_id for r in served[1:]}
    assert len(others.union({first_device})) == 2  # both devices used
    spillover = fleet.registry.counter("fleet_spillover_total")
    total_spill = sum(v for _k, v in spillover.samples())
    # least-outstanding balances instead of spilling; force saturation:
    with pytest.raises(FleetSaturated):
        for i in range(30):
            fleet.route(_request(session="t/x%d" % i))
    assert fleet.router.shed_reasons.get("fleet-saturated", 0) >= 1
    assert fleet.registry.counter("fleet_shed_total").value() >= 1
    assert (
        sum(v for _k, v in spillover.samples()) > total_spill
    )  # saturation implies earlier choices rejected


def test_no_eligible_device_sheds():
    fleet = _fleet(2)
    bad = replace_model(_request(), "missing-model")
    with pytest.raises(FleetSaturated):
        fleet.route(bad)
    assert fleet.router.shed_reasons == {"no-eligible-device": 1}


def test_shed_tickets_take_their_own_ids():
    # The tail sampler keys traces and flows by ticket id, so a shed
    # ticket must not share its id with the next admitted one.
    fleet = _fleet(1)
    first = fleet.route(_request(session="t/s1"))
    with pytest.raises(FleetSaturated) as shed:
        fleet.route(replace_model(_request(session="t/s2"), "missing-model"))
    second = fleet.route(_request(session="t/s3"))
    ids = [first.ticket_id, shed.value.ticket.ticket_id, second.ticket_id]
    assert len(set(ids)) == 3
    assert [t.ticket_id for t in fleet.router.tickets] == [ids[0], ids[2]]


def test_breaker_open_rebalances_pinned_sessions():
    fleet = _fleet(2, policy="session-affinity")
    first = fleet.route(_request(session="t/s1"))
    fleet.sim.run_until(first.completion)
    holder = fleet.router.pins["t/s1"]
    sick = fleet.device(holder)
    # Open the holder's breaker with consecutive injected faults.
    for _ in range(sick.gateway.config.breaker_threshold):
        sick.system.inject_fault(TINYLLAMA.model_id, RuntimeError("flaky npu"))
        req = sick.gateway.submit(8, 0, model_id=TINYLLAMA.model_id, priority="background")
        fleet.sim.run_until(req.completion)
    assert sick.breaker_open(TINYLLAMA.model_id)
    # The session's next turn re-routes to the healthy device.
    second = fleet.route(_request(session="t/s1", context=100))
    assert second.device_id != holder
    assert fleet.router.rebalanced_sessions == 1
    assert (
        fleet.registry.counter("fleet_sessions_rebalanced").value(reason="breaker-open")
        == 1
    )
    assert fleet.router.pins["t/s1"] == second.device_id
    assert not fleet.health()["healthy"]


def test_rebalance_sweep_cuts_pins_of_sick_devices():
    fleet = _fleet(2, policy="session-affinity")
    first = fleet.route(_request(session="t/s1"))
    fleet.sim.run_until(first.completion)
    holder = fleet.device(fleet.router.pins["t/s1"])
    for _ in range(holder.gateway.config.breaker_threshold):
        holder.system.inject_fault(TINYLLAMA.model_id, RuntimeError("boom"))
        req = holder.gateway.submit(8, 0, model_id=TINYLLAMA.model_id, priority="background")
        fleet.sim.run_until(req.completion)
    assert fleet.router.rebalance() == 1
    assert fleet.router.pins == {}


def test_health_rolls_up_devices_and_metrics_are_device_labeled():
    fleet = _fleet(2)
    done = fleet.route(_request())
    fleet.sim.run_until(done.completion)
    health = fleet.health()
    assert set(health["devices"]) == {"dev0", "dev1"}
    assert health["completed"] == 1
    assert health["devices"][done.device_id]["gateway_id"] == done.device_id
    assert health["healthy"]
    # Per-device serving series carry the device label on the shared registry.
    served = fleet.registry.counter("serve_admitted_total")
    assert served.value(**{"class": "interactive", "device": done.device_id}) == 1


def test_policy_validation_and_registry():
    with pytest.raises(ConfigurationError):
        make_policy("nope")
    sim = Simulator()
    devices = [
        DeviceNode("a", [TINYLLAMA], sim=sim),
        DeviceNode("a", [TINYLLAMA], sim=sim),
    ]
    with pytest.raises(ConfigurationError):
        FleetRouter(devices)
    with pytest.raises(ConfigurationError):
        FleetRouter([])
    with pytest.raises(ConfigurationError):
        FleetRouter(
            [DeviceNode("a", [TINYLLAMA]), DeviceNode("b", [TINYLLAMA])]
        )  # different simulators


def _replay(policy, seed=13):
    platforms = [
        ("dev%d" % i, scale_platform(RK3588, "v%d" % i, cpu=1.0 + 0.15 * i))
        for i in range(4)
    ]
    fleet = Fleet(platforms, [TINYLLAMA], policy=policy, warm=True)
    trace = generate_fleet_trace(
        300.0,
        [
            FleetTenantSpec(
                "chat",
                TINYLLAMA.model_id,
                "interactive",
                sessions_per_hour=600.0,
                prefix_tokens=64,
                prefix_pool=2,
            )
        ],
        seed=seed,
    )
    gen = FleetLoadGenerator(fleet.router, trace).run_blocking()
    return gen.summary()


def test_fleet_replay_is_seed_deterministic():
    assert _replay("cache-aware") == _replay("cache-aware")
    assert _replay("random") == _replay("random")
    assert _replay("cache-aware", seed=13) != _replay("cache-aware", seed=14)


def test_slo_counters_feed_burn_rate_rules():
    fleet = _fleet(2)
    fleet.start_alerts(until=60.0)
    done = fleet.route(_request())
    fleet.sim.run_until(done.completion)
    fleet.sim.run(until=60.0)
    assert fleet.registry.counter("fleet_slo_requests_total").value() == 1
    assert fleet.registry.counter("fleet_slo_total").value(outcome="attained") == 1
    assert fleet.alert_engine.ticks > 0
    assert fleet.health()["alerts_firing"] == []
