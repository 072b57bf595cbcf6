#!/usr/bin/env python3
"""A day of multi-tenant serving on one TrustZone-protected device.

Two protected models (an assistant and a summarizer TA) serve five
tenants for a simulated day: bursty interactive voice/keyboard turns, a
steady batch mail summarizer, and background indexing/embedding jobs.
The gateway dispatches by priority, preempts background decodes at token
boundaries when a user is waiting, and sheds requests whose TTFT SLO is
already unattainable — printing the per-class report card at the end.

Run:  python examples/serving_gateway.py
"""

from dataclasses import replace

from repro import TINYLLAMA, TZLLM
from repro.analysis import render_table
from repro.serve import GatewayConfig, LoadGenerator, PriorityClass, ServeGateway
from repro.workloads import TenantSpec, generate_multitenant_trace

HORIZON = 6 * 3600.0  # a quarter day, simulated

ASSISTANT = replace(TINYLLAMA, model_id="assistant-1.1b")
SUMMARIZER = replace(TINYLLAMA, model_id="summarizer-1.1b")

TENANTS = [
    TenantSpec("voice", ASSISTANT.model_id, "interactive", rate_per_hour=30,
               output_tokens=(4, 12),
               burst_factor=8.0, burst_period=1800.0, burst_duration=120.0),
    TenantSpec("keyboard", ASSISTANT.model_id, "interactive", rate_per_hour=20,
               output_tokens=(2, 6)),
    TenantSpec("mail", SUMMARIZER.model_id, "batch", rate_per_hour=30,
               workload="personachat", output_tokens=(16, 32)),
    TenantSpec("indexer", ASSISTANT.model_id, "background", rate_per_hour=12,
               workload="droidtask", output_tokens=(96, 160)),
    TenantSpec("embedder", SUMMARIZER.model_id, "background", rate_per_hour=10,
               workload="droidtask", output_tokens=(64, 128)),
]


def main() -> None:
    system = TZLLM([ASSISTANT, SUMMARIZER], cache_fraction=1.0)
    for model_id in system.tas:
        system.run_infer(8, 0, model_id=model_id)  # cold starts off the trace

    trace = generate_multitenant_trace(HORIZON, TENANTS, seed=42)
    print("Trace: %d requests from %d tenants over %.0f simulated hours"
          % (len(trace), len(TENANTS), HORIZON / 3600))

    gateway = ServeGateway(system, GatewayConfig(scheduling="priority",
                                                 preemption=True, shedding=True))
    loadgen = LoadGenerator(gateway, trace).run_blocking()

    acct = gateway.accountant
    rows = []
    for cls in PriorityClass:
        stats = acct.classes[cls]
        summary = acct.summary(cls, "ttft")
        rows.append([
            cls.label,
            stats.completed,
            sum(stats.rejected.values()),
            stats.preemptions,
            "-" if summary is None else "%.2f" % summary.p50,
            "-" if summary is None else "%.2f" % summary.p95,
            "-" if summary is None else "%.2f" % summary.p99,
            ("%d/%d" % (stats.slo_attained, stats.slo_attained + stats.slo_violated))
            if stats.slo_attained + stats.slo_violated else "-",
            "%.2f" % acct.throughput_tokens_per_second(cls),
        ])
    print()
    print(render_table(
        ["class", "served", "shed", "preempted",
         "TTFT p50", "p95", "p99", "SLO met", "tok/s"],
        rows, title="A day at the gateway (per priority class)"))

    print()
    print("Utilization: " + ", ".join(
        "%s %.1f%%" % (m, 100 * acct.utilization(m)) for m in sorted(gateway.lanes)))
    if loadgen.rejected:
        print("Shed %d of %d offered requests: %s"
              % (len(loadgen.rejected), loadgen.offered, loadgen.rejection_reasons()))
    print("Preemption signals: %d (wasted %.1fs of simulated TA time)"
          % (gateway.preemption_signals, gateway.wasted_time))
    print()
    print("Last lines of the (deterministic) request log:")
    for line in gateway.log[-5:]:
        print("  " + line)


if __name__ == "__main__":
    main()
