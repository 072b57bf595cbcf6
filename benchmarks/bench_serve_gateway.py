"""Serving gateway: FIFO vs priority-preemptive dispatch under load.

A two-model deployment (assistant + summarizer TAs) serves a mixed
multi-tenant trace — bursty interactive chat, steady batch
summarization, long background indexing — twice: once with global FIFO
dispatch and once with priority scheduling plus token-boundary
preemption.  The claim mirrors Fig. 13 lifted to request granularity:
preemption collapses interactive tail latency (the p95 TTFT an actual
user feels) while costing the preempted classes almost nothing, because
preempted requests retry against still-cached parameters.
"""

import time

import pytest

from dataclasses import replace

from repro.analysis import render_table
from repro.core import TZLLM
from repro.llm import TINYLLAMA
from repro.serve import (
    GatewayConfig,
    LoadGenerator,
    PriorityClass,
    ServeGateway,
)
from repro.workloads import TenantSpec, generate_multitenant_trace

from _common import emit_summary, once

ASSISTANT = replace(TINYLLAMA, model_id="assistant-1.1b")
SUMMARIZER = replace(TINYLLAMA, model_id="summarizer-1.1b")

DURATION = 1800.0
TENANTS = [
    TenantSpec(
        "voice",
        ASSISTANT.model_id,
        "interactive",
        rate_per_hour=40,
        output_tokens=(4, 12),
        burst_factor=6.0,
        burst_period=300.0,
        burst_duration=60.0,
    ),
    TenantSpec(
        "keyboard",
        ASSISTANT.model_id,
        "interactive",
        rate_per_hour=30,
        output_tokens=(2, 6),
    ),
    TenantSpec(
        "mail",
        SUMMARIZER.model_id,
        "batch",
        rate_per_hour=60,
        workload="personachat",
        output_tokens=(16, 32),
    ),
    TenantSpec(
        "indexer",
        ASSISTANT.model_id,
        "background",
        rate_per_hour=24,
        workload="droidtask",
        output_tokens=(96, 160),
    ),
    TenantSpec(
        "embedder",
        SUMMARIZER.model_id,
        "background",
        rate_per_hour=20,
        workload="droidtask",
        output_tokens=(64, 128),
    ),
]
TRACE = generate_multitenant_trace(DURATION, TENANTS, seed=11)

MODES = {
    "fifo": GatewayConfig(scheduling="fifo", preemption=False, shedding=False),
    "priority+preempt": GatewayConfig(
        scheduling="priority", preemption=True, shedding=False
    ),
}


def run_serve_gateway():
    results = {}
    for mode, config in MODES.items():
        system = TZLLM([ASSISTANT, SUMMARIZER], cache_fraction=1.0)
        for model_id in system.tas:
            system.run_infer(8, 0, model_id=model_id)  # cold start off the trace
        gateway = ServeGateway(system, config)
        loadgen = LoadGenerator(gateway, TRACE).run_blocking()
        results[mode] = (gateway, loadgen)
    return results


def low_priority_throughput(gateway):
    return sum(
        gateway.accountant.throughput_tokens_per_second(cls)
        for cls in (PriorityClass.BATCH, PriorityClass.BACKGROUND)
    )


def test_serve_gateway(benchmark):
    wall_start = time.monotonic()
    results = once(benchmark, run_serve_gateway)
    wall_time = time.monotonic() - wall_start

    rows = []
    for mode, (gateway, _loadgen) in results.items():
        for cls in PriorityClass:
            summary = gateway.accountant.summary(cls, "ttft")
            if summary is None:
                continue
            rows.append([mode, cls.label, summary.count] + summary.row())
    print()
    print(
        render_table(
            ["mode", "class", "n", "p50", "p95", "p99", "max"],
            rows,
            title="Serving gateway: per-class TTFT (s), %d requests over %.0f min"
            % (len(TRACE), DURATION / 60),
        )
    )
    fifo, _ = results["fifo"]
    prio, _ = results["priority+preempt"]
    rows2 = [
        [
            mode,
            "%.3f" % low_priority_throughput(gw),
            gw.preemption_signals,
            "%.1f" % gw.wasted_time,
            "%.3f" % max(
                gw.accountant.utilization(model) for model in gw.lanes
            ),
        ]
        for mode, (gw, _lg) in results.items()
    ]
    print(
        render_table(
            ["mode", "batch+bg tok/s", "preemptions", "wasted s", "max util"],
            rows2,
            title="Cost of preemption",
        )
    )

    # Everyone got served (shedding is off for a like-for-like comparison).
    for _mode, (gateway, loadgen) in results.items():
        completed = sum(len(stats.observed) for stats in gateway.accountant.classes.values())
        assert completed == loadgen.offered == len(TRACE)

    p95_fifo = fifo.accountant.summary(PriorityClass.INTERACTIVE, "ttft").p95
    p95_prio = prio.accountant.summary(PriorityClass.INTERACTIVE, "ttft").p95
    # The headline: priority preemption collapses the interactive tail...
    assert prio.preemption_signals > 0
    assert p95_prio < 0.5 * p95_fifo
    # ...without giving up batch/background throughput (<= 10% loss).
    assert low_priority_throughput(prio) >= 0.9 * low_priority_throughput(fifo)

    emit_summary(
        "serve_gateway",
        {
            "requests": len(TRACE),
            "duration_s": DURATION,
            "interactive_ttft_p95_s": {"fifo": p95_fifo, "priority+preempt": p95_prio},
            "low_priority_tokens_per_s": {
                mode: low_priority_throughput(gw) for mode, (gw, _lg) in results.items()
            },
            "preemption_signals": {
                mode: gw.preemption_signals for mode, (gw, _lg) in results.items()
            },
            "slo": {
                mode: gw.accountant.to_dict() for mode, (gw, _lg) in results.items()
            },
        },
        wall_time_s=wall_time,
    )
