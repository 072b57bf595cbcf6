"""Cost of recovery: serving under fault injection vs fault-free.

One model TA serves the same two-tenant trace three times with the
hardened recovery policy: fault-free, with 1% flash read errors (plus
occasional silent bit-flips), and with NPU scheduler stalls plus
dropped take-over hand-offs.  The claim: recovery keeps the failure
count at zero and the interactive p95 TTFT degrades by a bounded
factor — retries cost backoff time, never correctness.
"""

import pytest

from repro import TINYLLAMA, TZLLM
from repro.analysis import render_table
from repro.faults import FaultPlan, FaultSpec, RecoveryPolicy
from repro.serve import GatewayConfig, LoadGenerator, PriorityClass, ServeGateway
from repro.workloads import TenantSpec, generate_multitenant_trace

from _common import emit_summary, once

DURATION = 600.0
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
TRACE = generate_multitenant_trace(DURATION, TENANTS, seed=11)

PLANS = {
    "fault-free": None,
    "flash-err-1%": FaultPlan(
        21,
        [
            FaultSpec("flash.read_error", probability=0.01),
            FaultSpec("flash.bit_flip", probability=0.002),
        ],
    ),
    "npu-stall": FaultPlan(
        21,
        [
            FaultSpec("ree.npu_stall", probability=0.3, delay=1e-3, jitter=1e-3),
            FaultSpec("ree.smc_drop", probability=0.05, max_fires=50),
            FaultSpec("tee.job_hang", probability=0.1, delay=2e-3, jitter=2e-3),
        ],
    ),
}


def run_fault_recovery():
    results = {}
    for mode, plan in PLANS.items():
        # cache_fraction=0 keeps every request on the flash-restore path,
        # so storage faults genuinely hit the measured window.
        system = TZLLM(
            TINYLLAMA, cache_fraction=0.0, recovery=RecoveryPolicy.hardened()
        )
        system.run_infer(8, 0)  # cold start off the trace
        injector = plan.injector(system.sim).arm(system) if plan else None
        gateway = ServeGateway(system, GatewayConfig(scheduling="priority"))
        loadgen = LoadGenerator(gateway, TRACE).run_blocking()
        results[mode] = (system, gateway, loadgen, injector)
    return results


def completed(gateway) -> int:
    """Requests the gateway completed: those its SLO accountant observed."""
    return sum(len(stats.observed) for stats in gateway.accountant.classes.values())


def test_fault_recovery(benchmark):
    results = once(benchmark, run_fault_recovery)

    rows = []
    for mode, (_system, gateway, _loadgen, _injector) in results.items():
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
            title="TTFT (s) by fault mode",
        )
    )

    recovery_rows = []
    for mode, (system, gateway, loadgen, _injector) in results.items():
        flash = system.stack.kernel.fs.flash
        export = gateway.accountant.to_dict()["classes"]
        retries = sum(stats["retries"] for stats in export.values())
        recovery_rows.append(
            [
                mode,
                loadgen.offered,
                completed(gateway),
                len(gateway.failed),
                flash.read_errors,
                system.ta.backend.refetched_groups,
                system.stack.ree_npu.shadow_jobs_dropped,
                system.stack.tee_npu.reissues,
                retries,
            ]
        )
    print(
        render_table(
            [
                "mode",
                "offered",
                "done",
                "failed",
                "flash-errs",
                "refetches",
                "smc-drops",
                "reissues",
                "gw-retries",
            ],
            recovery_rows,
            title="Recovery counters",
        )
    )

    # The hardened policy absorbs every injected fault: no request fails.
    for mode, (_system, gateway, loadgen, _injector) in results.items():
        assert len(gateway.failed) == 0, mode
        assert completed(gateway) + len(loadgen.rejected) == loadgen.offered

    # The faulted modes really were faulted...
    flash_mode = results["flash-err-1%"]
    assert flash_mode[0].stack.kernel.fs.flash.read_errors > 0
    npu_mode = results["npu-stall"]
    assert npu_mode[0].stack.ree_npu.shadow_jobs_dropped > 0

    # ...and degradation stays bounded: recovery costs backoff time, not
    # a qualitative collapse of interactive latency.
    def p95(gateway):
        return gateway.accountant.summary(PriorityClass.INTERACTIVE, "ttft").p95

    baseline = p95(results["fault-free"][1])
    for mode in ("flash-err-1%", "npu-stall"):
        assert p95(results[mode][1]) <= 2.0 * baseline, mode

    emit_summary(
        "fault_recovery",
        {
            "modes": {
                mode: {
                    "offered": loadgen.offered,
                    "completed": completed(gateway),
                    "failed": len(gateway.failed),
                    "interactive_p95_ttft_s": p95(gateway),
                }
                for mode, (_system, gateway, loadgen, _injector) in sorted(
                    results.items()
                )
            },
        },
    )
