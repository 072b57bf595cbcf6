"""End-to-end instrumentation: one registry spans every subsystem, and
flow events link the gateway to the TEE lane that served each request."""

import json

import pytest

from repro import TINYLLAMA, TZLLM
from repro.obs import Observability, instrument
from repro.serve import GatewayConfig, ServeGateway


def test_instrument_wires_every_attach_point():
    system = TZLLM(TINYLLAMA)
    obs = instrument(system)
    stack = system.stack
    for component in (
        stack.kernel.fs.flash,
        stack.board.tzasc,
        stack.board.monitor,
        stack.tz_driver,
        stack.ree_npu,
        stack.tee_npu,
        system.ta,
    ):
        assert component.metrics is obs.registry
        assert component.recorder is obs.recorder
    for region in stack.kernel.cma_regions.values():
        assert region.metrics is obs.registry
    assert stack.observability is obs
    assert system.observability is obs


def test_detach_restores_null_attach_points():
    system = TZLLM(TINYLLAMA)
    obs = instrument(system)
    obs.detach(system)
    assert system.stack.kernel.fs.flash.metrics is None
    assert system.stack.board.monitor.recorder is None
    assert system.ta.metrics is None


def test_single_system_run_exports_cross_layer_metrics():
    system = TZLLM(TINYLLAMA)
    obs = instrument(system)
    system.run_infer(64, 0)
    reg = obs.registry
    assert reg.counter("flash_reads_total").value() > 0
    assert reg.counter("smc_calls_total").value(func="ree.cma_alloc") > 0
    assert reg.counter("pipeline_loaded_bytes_total").value() > 0
    assert reg.counter("tee_npu_jobs_total").value(outcome="completed") > 0
    cma = reg.counter("cma_allocations_total")
    assert sum(v for _k, v in cma.samples()) > 0
    # SMC latency histogram observed something.
    assert reg.get("smc_latency_seconds").value(func="ree.cma_alloc") > 0


def test_multi_tenant_serving_covers_five_subsystems_and_links_flows():
    """A model-list TZLLM + gateway under one registry."""
    system = TZLLM([TINYLLAMA], cache_fraction=1.0, trace=True)
    obs = instrument(system)
    system.run_infer(8, 0, model_id=TINYLLAMA.model_id)  # cold start
    gateway = ServeGateway(system, GatewayConfig(shedding=False))
    assert gateway.registry is obs.registry
    assert gateway.recorder is obs.recorder
    for request_id in range(3):
        gateway.submit_blocking(
            32, 4, model_id=TINYLLAMA.model_id, tenant="t%d" % request_id
        )

    text = obs.registry.render()
    prefixes = ("flash_", "cma_", "smc_", "tee_npu_", "serve_")
    for prefix in prefixes:
        samples = [
            line
            for line in text.splitlines()
            if line.startswith(prefix) and not line.startswith("#")
        ]
        assert samples, "no %s* samples in the unified export" % prefix

    # Flow legs: s (gateway admission) -> t (TEE CPU/NPU lanes) ->
    # f (gateway completion), all bound by one flow id per request.
    tracer = system.tracer
    by_id = {}
    for flow in tracer.flows:
        by_id.setdefault(flow.flow_id, []).append(flow)
    served = [fid for fid, legs in by_id.items() if {l.phase for l in legs} == {"s", "t", "f"}]
    assert len(served) >= 3
    for fid in served:
        legs = by_id[fid]
        assert all(l.name == legs[0].name for l in legs)
        starts = [l for l in legs if l.phase == "s"]
        steps = [l for l in legs if l.phase == "t"]
        finishes = [l for l in legs if l.phase == "f"]
        assert [l.lane for l in starts] == ["gateway"]
        assert [l.lane for l in finishes] == ["gateway"]
        # The step legs land in the TEE: prefill start on the CPU lane
        # and the first secure NPU job on the NPU lane.
        assert {l.lane for l in steps} == {"CPU", "NPU"}
        assert starts[0].at <= min(s.at for s in steps)
        assert finishes[0].at >= max(s.at for s in steps)

    # The export embeds the flow legs with valid Chrome phases.
    doc = json.loads(tracer.to_chrome_trace())
    flow_events = [e for e in doc["traceEvents"] if e["ph"] in ("s", "t", "f")]
    assert len(flow_events) == len(tracer.flows)
    for event in flow_events:
        assert set(("pid", "tid", "id", "ts", "name", "cat")) <= set(event)
    assert all(e["bp"] == "e" for e in flow_events if e["ph"] == "f")


def test_accountant_reads_through_to_the_shared_registry():
    system = TZLLM(TINYLLAMA, cache_fraction=1.0)
    obs = instrument(system)
    system.run_infer(8, 0)
    gateway = ServeGateway(system, GatewayConfig(shedding=False))
    gateway.submit_blocking(16, 2)
    reg = obs.registry
    assert reg.counter("serve_admitted_total").value(**{"class": "interactive"}) == 1
    assert reg.counter("serve_completed_total").value(**{"class": "interactive"}) == 1
    # The accountant's export and the registry agree by construction.
    stats = gateway.accountant.to_dict()["classes"]["interactive"]
    assert stats["completed"] == 1


def test_observability_accepts_shared_registry():
    system_a = TZLLM(TINYLLAMA)
    obs_a = instrument(system_a)
    system_b = TZLLM(TINYLLAMA)
    obs_b = Observability(system_b.sim, registry=obs_a.registry).attach(system_b)
    assert obs_b.registry is obs_a.registry
    system_a.run_infer(8, 0)
    system_b.run_infer(8, 0)
    # Both systems landed on one namespace.
    assert obs_a.registry.counter("flash_reads_total").value() > 0
