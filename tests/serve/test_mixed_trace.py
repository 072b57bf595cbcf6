"""Acceptance tests on a mixed multi-tenant trace (the ISSUE criteria).

Priority-preemptive dispatch must beat FIFO on interactive p95 TTFT
while giving up at most 10% of batch/background token throughput, and a
saturating burst must shed load with typed errors instead of queueing
without bound.
"""

import pytest

from repro.core import TZLLM
from repro.llm import TINYLLAMA
from repro.serve import (
    AdmissionRejected,
    GatewayConfig,
    LoadGenerator,
    PriorityClass,
    QueueFull,
    ServeGateway,
)
from repro.workloads import TenantSpec, generate_multitenant_trace

TENANTS = [
    TenantSpec(
        "voice",
        TINYLLAMA.model_id,
        "interactive",
        rate_per_hour=40,
        output_tokens=(4, 12),
        burst_factor=6.0,
        burst_period=300.0,
        burst_duration=60.0,
    ),
    TenantSpec(
        "mail",
        TINYLLAMA.model_id,
        "batch",
        rate_per_hour=60,
        workload="personachat",
        output_tokens=(16, 32),
    ),
    TenantSpec(
        "indexer",
        TINYLLAMA.model_id,
        "background",
        rate_per_hour=24,
        workload="droidtask",
        output_tokens=(96, 160),
    ),
]

TRACE = generate_multitenant_trace(1200.0, TENANTS, seed=11)


def run_mode(scheduling, preemption):
    system = TZLLM(TINYLLAMA, cache_fraction=1.0)
    system.run_infer(8, 0)
    # Shedding off: both modes must serve the identical request set for a
    # fair latency/throughput comparison.
    config = GatewayConfig(scheduling=scheduling, preemption=preemption, shedding=False)
    gateway = ServeGateway(system, config)
    LoadGenerator(gateway, TRACE).run_blocking()
    return gateway


@pytest.fixture(scope="module")
def fifo():
    return run_mode("fifo", preemption=False)


@pytest.fixture(scope="module")
def priority():
    return run_mode("priority", preemption=True)


def low_priority_throughput(gateway):
    """Completed batch+background tokens per second of serving wall-clock."""
    return sum(
        gateway.accountant.throughput_tokens_per_second(cls)
        for cls in (PriorityClass.BATCH, PriorityClass.BACKGROUND)
    )


def test_trace_is_substantial():
    classes = {e.priority for e in TRACE}
    assert classes == {"interactive", "batch", "background"}
    assert len(TRACE) >= 40


def test_both_modes_serve_every_request(fifo, priority):
    assert fifo.health()["completed"] == len(TRACE)
    assert priority.health()["completed"] == len(TRACE)


def test_priority_preemption_beats_fifo_on_interactive_p95_ttft(fifo, priority):
    p95_fifo = fifo.accountant.summary(PriorityClass.INTERACTIVE, "ttft").p95
    p95_priority = priority.accountant.summary(PriorityClass.INTERACTIVE, "ttft").p95
    assert priority.preemption_signals > 0  # the mechanism actually fired
    assert p95_priority < p95_fifo  # the headline claim
    assert p95_priority < 0.5 * p95_fifo  # and not by a hair


def test_batch_throughput_degrades_at_most_10_percent(fifo, priority):
    base = low_priority_throughput(fifo)
    contended = low_priority_throughput(priority)
    assert base > 0
    assert contended >= 0.9 * base


def test_saturating_burst_sheds_load_with_typed_errors():
    system = TZLLM(TINYLLAMA, cache_fraction=1.0)
    system.run_infer(8, 0)
    gateway = ServeGateway(system, GatewayConfig())  # shedding on
    capacity = gateway.config.policies[PriorityClass.INTERACTIVE].queue_capacity
    # Pin the lane, then slam the interactive queue past its bound.
    blocker = gateway.submit(prompt_tokens=32, output_tokens=64, priority="background")
    outcomes = {"admitted": 0, "rejected": []}
    for _ in range(capacity + 4):
        try:
            gateway.submit(prompt_tokens=16, output_tokens=1, priority="interactive")
            outcomes["admitted"] += 1
        except AdmissionRejected as exc:
            outcomes["rejected"].append(exc)
    assert outcomes["admitted"] <= capacity + 1  # bounded queue held
    assert len(outcomes["rejected"]) >= 3
    assert all(isinstance(exc, QueueFull) for exc in outcomes["rejected"])
    stats = gateway.accountant.classes[PriorityClass.INTERACTIVE]
    assert stats.rejected.get("queue-full", 0) == len(outcomes["rejected"])
    system.sim.run_until(blocker.completion)
