"""Chaos at the fleet tier: crashes and gray failure under live traffic.

The three chaos invariants, one layer above the serving gateway:

1. liveness — every offered request reaches a terminal state (ticket
   done, failed, or shed at admission); no session is silently lost;
2. determinism — two runs under the same seed agree on every winner
   device, every hedge/failover count, and the full metrics export,
   byte for byte — hedging races included, because losers are decided
   by deterministic event order, not wall-clock;
3. accounting — ticket-level SLO math admits no double-charging: SLO
   verdicts equal completed tickets with a deadline, exactly once each,
   however many attempts raced underneath.
"""

import json

from repro.config import RK3588
from repro.faults import FaultPlan
from repro.fleet import Fleet, FleetLoadGenerator, ResilienceConfig, scale_platform
from repro.llm import TINYLLAMA
from repro.workloads import (
    FleetTenantSpec,
    generate_fault_schedule,
    generate_fleet_trace,
)

DURATION = 300.0
TENANTS = [
    FleetTenantSpec(
        "chat",
        TINYLLAMA.model_id,
        "interactive",
        sessions_per_hour=360.0,
        output_tokens=(2, 8),
        prefix_tokens=64,
        prefix_pool=2,
    ),
    FleetTenantSpec(
        "indexer",
        TINYLLAMA.model_id,
        "background",
        sessions_per_hour=120.0,
        workload="droidtask",
        output_tokens=(16, 48),
        mean_turns=2.0,
    ),
]


def _platforms(n=4):
    return [
        ("dev%d" % i, scale_platform(RK3588, "v%d" % i, cpu=1.0 + 0.1 * i))
        for i in range(n)
    ]


def run_fleet_chaos(seed, on_fleet=None):
    """One full chaos replay: 4 devices, 1 crash + 1 gray, hedging on.

    ``on_fleet`` sees the fleet once it is built, before any traffic.
    """
    fleet = Fleet(
        _platforms(),
        [TINYLLAMA],
        policy="cache-aware",
        warm=True,
        resilience=ResilienceConfig(),
    )
    if on_fleet is not None:
        on_fleet(fleet)
    plan = FaultPlan(
        seed,
        generate_fault_schedule(
            DURATION, list(fleet.devices), seed=seed, crashes=1, grays=1
        ),
    )
    fleet.start_resilience(until=4 * DURATION, plan=plan)
    trace = generate_fleet_trace(DURATION, TENANTS, seed=3)
    gen = FleetLoadGenerator(fleet.router, trace).run_blocking()
    fingerprint = {
        "winners": [t.device_id for t in gen.admitted],
        "states": [t.state for t in gen.admitted],
        "summary": gen.summary(),
        "metrics": fleet.render_metrics(),
    }
    return fleet, gen, json.dumps(fingerprint, sort_keys=True)


def test_fleet_chaos_liveness_and_no_lost_sessions(seed):
    fleet, gen, _ = run_fleet_chaos(seed)
    assert gen.offered > 20
    # Liveness: every offered request reached exactly one terminal state.
    terminal = sum(1 for t in gen.admitted if t.state in ("done", "failed"))
    assert terminal + len(gen.rejected) == gen.offered
    for ticket in gen.admitted:
        assert ticket.completion.triggered
    # The seeded crash actually happened and was survived.
    assert sum(d.lifecycle.crashes for d in fleet.devices.values()) == 1
    crashed = [d for d in fleet.devices.values() if d.lifecycle.crashes]
    assert crashed[0].lifecycle.drains == 1
    # No lost sessions: every session that lost its device either
    # finished all its turns or was re-routed — no ticket is stranded
    # pending, and no pin points at a vanished holder.
    for session_id, device_id in fleet.router.pins.items():
        assert device_id in fleet.devices
    # Failed tickets (if any) carry full provenance for the postmortem.
    for ticket in gen.admitted:
        if ticket.failed:
            assert ticket.failures


def test_fleet_chaos_hedging_is_seed_deterministic(seed):
    _fleet_a, gen_a, fp_a = run_fleet_chaos(seed)
    _fleet_b, gen_b, fp_b = run_fleet_chaos(seed)
    # Same seed, same trace: identical winner devices, hedge counts, and
    # the entire metrics export — byte for byte.
    assert fp_a == fp_b
    assert gen_a.router.hedges == gen_b.router.hedges
    assert gen_a.router.hedge_wins == gen_b.router.hedge_wins
    assert gen_a.router.failovers == gen_b.router.failovers


def test_fleet_chaos_slo_accounting_never_double_charges(seed):
    fleet, gen, _ = run_fleet_chaos(seed)
    with_verdict = [
        t for t in gen.admitted if t.done and t.deadline is not None
    ]
    attained = fleet.registry.counter("fleet_slo_total").value(outcome="attained")
    violated = fleet.registry.counter("fleet_slo_total").value(outcome="violated")
    # One verdict per completed deadline-bearing ticket — a ticket that
    # hedged (two attempts) still counts exactly once.
    assert attained + violated == len(with_verdict)
    assert fleet.registry.counter("fleet_slo_requests_total").value() == len(
        with_verdict
    )
    assert sum(1 for t in with_verdict if t.slo_attained) == attained


def _recounted_outstanding(device):
    """Queued plus running, recomputed from the gateway's queues and lanes."""
    gateway = device.gateway
    return sum(len(q) for q in gateway.admission.queues.values()) + sum(
        len(lane.running) for lane in gateway.lanes.values()
    )


def test_fleet_chaos_load_signal_never_drifts(seed):
    """The router's load signal is kept by each gateway as requests
    queue, dispatch and finish.  At every placement (first routes,
    failovers, hedges and device-down relaunches all rank through the
    policy) it equals queued + running recomputed from the queues and
    lanes — through the crash, the gray failure and hedge-loser cancels
    — and every device drains to zero."""
    placements = []

    def check_every_placement(fleet):
        policy = fleet.router.policy
        rank = policy.rank

        def checked_rank(devices, request, router):
            for device in fleet.devices.values():
                assert device.outstanding() == _recounted_outstanding(device)
            placements.append(request)
            return rank(devices, request, router)

        policy.rank = checked_rank

    fleet, gen, _ = run_fleet_chaos(seed, on_fleet=check_every_placement)
    assert len(placements) >= len(gen.admitted) > 20
    for device in fleet.devices.values():
        assert device.outstanding() == _recounted_outstanding(device) == 0
