"""repro.serve — the multi-tenant serving gateway over TZ-LLM.

The scaling layer between client tenants and the protected models: many
sessions, several models, priority classes with token-boundary
preemption (the §5.2/Fig. 13 effect at serving scale), bounded admission
with deadline-based load shedding, and per-class SLO accounting — the
foundation later batching / multi-backend / sharding PRs plug into.

Failure handling (see :mod:`repro.faults` and ``docs/robustness.md``):
a dispatch that dies inside the TA is classified retryable/fatal
(:func:`~repro.serve.breaker.classify_failure`), retryable faults
re-queue the request at the head of its class up to
``GatewayConfig.max_retries`` times, and a per-model-TA
:class:`~repro.serve.breaker.CircuitBreaker` stops dispatching to a lane
that keeps failing.  Per-exception-type failure and retry counters land
in the SLO export.

Quick start::

    from repro import TZLLM, TINYLLAMA
    from repro.serve import GatewayConfig, ServeGateway

    system = TZLLM(TINYLLAMA, cache_fraction=1.0)
    system.run_infer(8, 0)                      # cold start
    gateway = ServeGateway(system, GatewayConfig(scheduling="priority"))
    request = gateway.submit_blocking(prompt_tokens=64, output_tokens=16,
                                      priority="interactive")
    print(request.ttft, request.e2e_latency)

See ``docs/serving.md`` for the architecture and
``benchmarks/bench_serve_gateway.py`` for FIFO vs priority-preemptive
dispatch under a mixed multi-tenant trace.
"""

from .admission import AdmissionController, ServiceTimePredictor
from .breaker import CircuitBreaker, classify_failure
from .classes import ClassPolicy, PriorityClass, default_policies
from .errors import AdmissionRejected, CircuitOpen, ContextTooLong, QueueFull, SLOUnattainable
from .gateway import GatewayConfig, ServeGateway
from .loadgen import LoadGenerator
from .request import ServeRequest
from .slo import GaugeSeries, LatencyHistogram, SLOAccountant

__all__ = [
    "AdmissionController",
    "AdmissionRejected",
    "CircuitBreaker",
    "CircuitOpen",
    "ContextTooLong",
    "ClassPolicy",
    "GatewayConfig",
    "GaugeSeries",
    "LatencyHistogram",
    "LoadGenerator",
    "PriorityClass",
    "QueueFull",
    "SLOAccountant",
    "SLOUnattainable",
    "ServeGateway",
    "ServeRequest",
    "ServiceTimePredictor",
    "classify_failure",
    "default_policies",
]
