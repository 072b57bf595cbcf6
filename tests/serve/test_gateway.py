"""Behavioral tests for the serving gateway: dispatch, preemption, errors."""

import pytest

from repro.core import TZLLM
from repro.errors import ConfigurationError
from repro.fleet import SurrogateLLM
from repro.llm import TINYLLAMA
from repro.serve import (
    GatewayConfig,
    PriorityClass,
    SLOUnattainable,
    ServeGateway,
)

from dataclasses import replace


@pytest.fixture(scope="module")
def system():
    system = TZLLM(TINYLLAMA, cache_fraction=1.0)
    system.run_infer(8, 0)  # cold start off the measured path
    return system


def make_gateway(system, **overrides):
    return ServeGateway(system, GatewayConfig(**overrides))


# ----------------------------------------------------------------------
# basics
# ----------------------------------------------------------------------
def test_submit_blocking_serves_a_request(system):
    gateway = make_gateway(system)
    request = gateway.submit_blocking(prompt_tokens=64, output_tokens=8, priority="interactive")
    assert request.done
    assert request.tokens_generated == 8
    assert request.arrived_at <= request.dispatched_at <= request.first_token_at
    assert request.first_token_at <= request.finished_at
    assert request.ttft > 0
    assert request.e2e_latency >= request.ttft
    assert request.attempts == 1 and request.preemptions == 0
    assert request.slo_attained is True
    assert gateway.accountant.classes[request.priority].observed == [request]
    assert gateway.health()["completed"] == 1


def test_request_log_records_lifecycle(system):
    gateway = make_gateway(system)
    gateway.submit_blocking(prompt_tokens=32, output_tokens=2, tenant="chat")
    verbs = [line.split()[1] for line in gateway.log]
    assert verbs == ["admit", "dispatch", "complete"]
    assert "chat" in gateway.log[0]


def test_validation_errors(system):
    gateway = make_gateway(system)
    with pytest.raises(ConfigurationError):
        gateway.submit(prompt_tokens=0)
    with pytest.raises(ConfigurationError):
        gateway.submit(prompt_tokens=8, output_tokens=-1)
    with pytest.raises(ConfigurationError):
        gateway.submit(prompt_tokens=8, model_id="no-such-model")
    with pytest.raises(ConfigurationError):
        gateway.submit(prompt_tokens=8, priority="urgent")
    with pytest.raises(ConfigurationError):
        GatewayConfig(scheduling="round-robin")


# ----------------------------------------------------------------------
# scheduling order
# ----------------------------------------------------------------------
def queue_three_classes(gateway):
    """Occupy the lane, then queue one request of each class."""
    running = gateway.submit(prompt_tokens=64, output_tokens=8, priority="background")
    queued = {
        "background": gateway.submit(prompt_tokens=16, output_tokens=1, priority="background"),
        "batch": gateway.submit(prompt_tokens=16, output_tokens=1, priority="batch"),
        "interactive": gateway.submit(prompt_tokens=16, output_tokens=1, priority="interactive"),
    }
    everyone = [running] + list(queued.values())
    gateway.sim.run_until(gateway.sim.all_of([r.completion for r in everyone]))
    return queued


def test_priority_scheduling_dispatches_most_urgent_first(system):
    gateway = make_gateway(system, scheduling="priority", preemption=False)
    queued = queue_three_classes(gateway)
    assert (
        queued["interactive"].dispatched_at
        < queued["batch"].dispatched_at
        < queued["background"].dispatched_at
    )


def test_fifo_scheduling_preserves_arrival_order(system):
    gateway = make_gateway(system, scheduling="fifo")
    queued = queue_three_classes(gateway)
    assert (
        queued["background"].dispatched_at
        < queued["batch"].dispatched_at
        < queued["interactive"].dispatched_at
    )
    # Each waited behind the running request, and the wait is visible.
    assert all(r.queue_wait > 0 for r in queued.values())


# ----------------------------------------------------------------------
# preemption
# ----------------------------------------------------------------------
def test_interactive_preempts_running_background(system):
    sim = system.sim
    gateway = make_gateway(system)  # priority + preemption (the default)
    victim = gateway.submit(prompt_tokens=32, output_tokens=64, priority="background")
    sim.run(until=sim.now + 1.0)  # let the victim get into its decode
    urgent = gateway.submit(prompt_tokens=32, output_tokens=4, priority="interactive")
    sim.run_until(sim.all_of([victim.completion, urgent.completion]))

    assert gateway.preemption_signals == 1
    assert victim.done and victim.preemptions == 1 and victim.attempts == 2
    assert urgent.done and urgent.preemptions == 0
    # The urgent request's first token lands long before the victim's
    # ~7s decode would have finished.
    assert urgent.ttft < 2.0
    assert urgent.first_token_at < victim.finished_at
    assert gateway.wasted_time > 0
    verbs = [line.split()[1] for line in gateway.log]
    assert "preempt" in verbs and "requeue" in verbs
    # The victim's retry found its parameters still cached (fraction=1.0),
    # so the wasted work is bounded by the partial decode, not a restore.
    assert victim.record.cached_bytes > 0


def test_preemption_disabled_runs_to_completion(system):
    sim = system.sim
    gateway = make_gateway(system, preemption=False)
    victim = gateway.submit(prompt_tokens=32, output_tokens=32, priority="background")
    sim.run(until=sim.now + 1.0)
    urgent = gateway.submit(prompt_tokens=32, output_tokens=2, priority="interactive")
    sim.run_until(sim.all_of([victim.completion, urgent.completion]))
    assert gateway.preemption_signals == 0
    assert victim.preemptions == 0 and victim.attempts == 1
    assert urgent.dispatched_at >= victim.finished_at


def test_interactive_never_preempts_interactive(system):
    sim = system.sim
    gateway = make_gateway(system)
    first = gateway.submit(prompt_tokens=32, output_tokens=16, priority="interactive")
    sim.run(until=sim.now + 0.5)
    second = gateway.submit(prompt_tokens=16, output_tokens=2, priority="interactive")
    sim.run_until(sim.all_of([first.completion, second.completion]))
    assert gateway.preemption_signals == 0
    assert first.preemptions == 0


def test_accountant_sees_completions_and_utilization(system):
    gateway = make_gateway(system)
    gateway.submit_blocking(prompt_tokens=32, output_tokens=4, priority="batch")
    stats = gateway.accountant.classes[PriorityClass.BATCH]
    assert stats.completed == 1
    assert stats.tokens_out == 4
    assert 0 < gateway.accountant.utilization(TINYLLAMA.model_id) <= 1.0
    exported = gateway.accountant.to_dict()
    assert exported["classes"]["batch"]["completed"] == 1


def test_predictor_learns_from_completions(system):
    gateway = make_gateway(system)
    assert gateway.predictor.predicted_ttft(TINYLLAMA.model_id) == 0.0
    gateway.submit_blocking(prompt_tokens=64, output_tokens=4)
    assert gateway.predictor.predicted_ttft(TINYLLAMA.model_id) > 0.0
    assert gateway.predictor.predicted_service(TINYLLAMA.model_id) > 0.0


def test_slo_shedding_when_lane_is_saturated(system):
    sim = system.sim
    gateway = make_gateway(system)
    # Teach the predictor that requests take far longer than the 5s SLO.
    gateway.predictor.observe(TINYLLAMA.model_id, ttft=4.0, service_time=30.0)
    blocker = gateway.submit(prompt_tokens=32, output_tokens=16, priority="background")
    with pytest.raises(SLOUnattainable):
        gateway.submit(prompt_tokens=16, output_tokens=1, priority="interactive")
    stats = gateway.accountant.classes[PriorityClass.INTERACTIVE]
    assert stats.rejected == {"slo-unattainable": 1}
    sim.run_until(blocker.completion)


# ----------------------------------------------------------------------
# multi-model routing
# ----------------------------------------------------------------------
def test_gateway_routes_across_models():
    model_a = replace(TINYLLAMA, model_id="tinyllama-a")
    model_b = replace(TINYLLAMA, model_id="tinyllama-b")
    system = TZLLM([model_a, model_b], cache_fraction=1.0)
    gateway = ServeGateway(system)
    with pytest.raises(ConfigurationError):
        gateway.submit(prompt_tokens=8)  # model_id required with 2 lanes
    ra = gateway.submit(prompt_tokens=16, output_tokens=2, model_id="tinyllama-a")
    rb = gateway.submit(prompt_tokens=16, output_tokens=2, model_id="tinyllama-b")
    system.sim.run_until(system.sim.all_of([ra.completion, rb.completion]))
    assert ra.done and rb.done
    # Both lanes ran concurrently: b never waited for a's lane.
    assert rb.dispatched_at == rb.arrived_at


def test_queue_depth_gauge_is_the_class_total_over_models():
    """serve_queue_depth{class} (and the accountant's per-class peak)
    counts the class over every model the gateway hosts, not the depth
    of whichever model was touched last; the admit log line stays per
    (model, class)."""
    model_a = replace(TINYLLAMA, model_id="tinyllama-a")
    model_b = replace(TINYLLAMA, model_id="tinyllama-b")
    gateway = ServeGateway(SurrogateLLM([model_a, model_b]))
    for model in (model_a, model_b):  # busy both lanes
        gateway.submit(16, 64, model_id=model.model_id, priority="batch")
    queued = [
        gateway.submit(16, 4, model_id=model.model_id, priority="batch")
        for model in (model_a, model_a, model_b)
    ]
    assert all(r.state == "queued" and r.dispatched_at is None for r in queued)
    gauge = gateway.registry.gauge("serve_queue_depth")
    assert gauge.value(**{"class": "batch"}) == 3.0
    admits = [line.split()[-1] for line in gateway.log if line.split()[1] == "admit"]
    assert admits[2:] == ["depth=1", "depth=2", "depth=1"]
    gateway.sim.run()
    assert gauge.value(**{"class": "batch"}) == 0.0
    assert gateway.accountant.to_dict()["classes"]["batch"]["queue_depth_max"] == 3.0
