"""Chaos: a multi-tenant serving trace with every fault site armed.

The three chaos invariants, at the outermost layer of the stack:

1. liveness — every offered request reaches a terminal state (done,
   failed, or rejected); the sim clock never hangs;
2. determinism — two full runs under the same seed agree to the last
   byte in both the request log and the JSON metrics export;
3. accounting — the SLO export carries the failure-provenance lanes
   (per-class ``failures`` / ``retries`` / ``failed`` counters).
"""

import json

import pytest

from repro import TINYLLAMA
from repro.faults import FaultPlan, FaultSpec, RecoveryPolicy
from repro.serve import GatewayConfig, LoadGenerator, ServeGateway
from repro.workloads import TenantSpec, generate_multitenant_trace

TENANTS = [
    TenantSpec(
        "chat",
        TINYLLAMA.model_id,
        "interactive",
        rate_per_hour=240,
        output_tokens=(2, 8),
    ),
    TenantSpec(
        "indexer",
        TINYLLAMA.model_id,
        "background",
        rate_per_hour=90,
        workload="droidtask",
        output_tokens=(48, 96),
    ),
]


def run_trace(seed, hardened_system, full_plan):
    system = hardened_system(cache_fraction=1.0)
    injector = full_plan(seed).injector(system.sim).arm(system)
    gateway = ServeGateway(system, GatewayConfig(scheduling="priority"))
    trace = generate_multitenant_trace(300.0, TENANTS, seed=3)
    loadgen = LoadGenerator(gateway, trace).run_blocking()
    metrics = json.dumps(gateway.accountant.to_dict(), sort_keys=True)
    return gateway, loadgen, metrics, injector


def test_chaos_trace_liveness_and_accounting(seed, hardened_system, full_plan):
    gateway, loadgen, metrics, injector = run_trace(seed, hardened_system, full_plan)
    assert loadgen.offered > 5
    # Liveness: every offered request reached exactly one terminal state.
    completed = [r for stats in gateway.accountant.classes.values() for r in stats.observed]
    terminal = len(completed) + len(gateway.failed) + len(loadgen.rejected)
    assert terminal == loadgen.offered
    for request in completed:
        assert request.state == "done"
    for request in gateway.failed:
        assert request.state == "failed" and request.failures
    # Accounting: the export carries the failure-provenance lanes.
    classes = json.loads(metrics)["classes"]
    for stats in classes.values():
        assert "failures" in stats and "retries" in stats and "failed" in stats
    # The plan genuinely exercised the stack.
    assert sum(s["checked"] for s in injector.summary().values()) > 0


def test_chaos_trace_is_byte_identical_per_seed(seed, hardened_system, full_plan):
    a_gateway, a_loadgen, a_metrics, _ = run_trace(seed, hardened_system, full_plan)
    b_gateway, b_loadgen, b_metrics, _ = run_trace(seed, hardened_system, full_plan)
    assert a_loadgen.offered == b_loadgen.offered
    assert a_gateway.request_log() == b_gateway.request_log()
    assert a_metrics == b_metrics
