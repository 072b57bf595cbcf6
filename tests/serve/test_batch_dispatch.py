"""Batch-aware gateway dispatch: fill, KV budget, park/resume."""

import pytest

from repro.core import BatchConfig, TZLLM
from repro.llm import TINYLLAMA, PromptSpec
from repro.serve import ContextTooLong, GatewayConfig, ServeGateway


def make_system(max_batch_size=2, **kwargs):
    kwargs.setdefault(
        "batch_config", BatchConfig(max_batch_size=max_batch_size, block_tokens=16)
    )
    return TZLLM(TINYLLAMA, **kwargs)


def make_gateway(system, **overrides):
    overrides.setdefault("batching", True)
    overrides.setdefault("shedding", False)
    return ServeGateway(system, GatewayConfig(**overrides))


def drain(gateway, requests):
    for request in requests:
        gateway.sim.run_until(request.completion)


def completed(gateway):
    """The requests the gateway completed, as its SLO accountant observed them."""
    return [r for stats in gateway.accountant.classes.values() for r in stats.observed]


# ----------------------------------------------------------------------
# wiring
# ----------------------------------------------------------------------
def test_lane_capacity_is_the_batch_size():
    system = make_system(max_batch_size=3)
    gateway = make_gateway(system)
    lane = next(iter(gateway.lanes.values()))
    assert lane.capacity == 3


# ----------------------------------------------------------------------
# batch fill
# ----------------------------------------------------------------------
def test_dispatch_fills_the_batch():
    system = make_system(max_batch_size=2)
    gateway = make_gateway(system)
    r1 = gateway.submit(32, 24, priority="batch", tenant="a")
    r2 = gateway.submit(32, 24, priority="batch", tenant="b")
    lane = next(iter(gateway.lanes.values()))
    assert len(lane.running) == 2  # both seated, neither queued
    drain(gateway, [r1, r2])
    assert {r.tenant for r in completed(gateway)} == {"a", "b"}
    assert system.ta.batch_engine.occupancy_mean() > 1.0


def test_kv_budget_blocks_head_of_line():
    """A head request that does not fit the block budget queues instead
    of dispatching — and seats once capacity drains."""
    # Budget: 6 blocks of 16 tokens; each request needs 4 blocks (56 tok).
    system = make_system(
        batch_config=BatchConfig(max_batch_size=2, block_tokens=16, budget_blocks=6)
    )
    gateway = make_gateway(system)
    r1 = gateway.submit(32, 24, priority="batch", tenant="a")
    r2 = gateway.submit(32, 24, priority="batch", tenant="b")
    lane = next(iter(gateway.lanes.values()))
    assert len(lane.running) == 1  # the second does not fit: 4+4 > 6
    assert gateway.queue_depth == 1
    drain(gateway, [r1, r2])
    assert gateway.health()["completed"] == 2
    assert system.ta.batch_engine.pool.reserved == 0


def test_rejected_request_returns_its_kv_hold():
    """Turns whose prompt spec contradicts their token count pass
    admission, are reserved at dispatch and then rejected by the TA;
    their blocks come back, so the queue behind them does not deadlock
    on leaked holds."""
    system = make_system(max_batch_size=4, max_tokens=1024)  # 256 blocks
    gateway = make_gateway(system)
    pool = system.ta.batch_engine.pool
    wrong_spec = PromptSpec(session_id="s", new_tokens=16)  # covers 16, not 1000
    mismatched = [
        gateway.submit(1000, 24, priority="batch", prompt_spec=wrong_spec)
        for _ in range(4)
    ]
    short = gateway.submit(64, 8, priority="batch", tenant="short")
    # All four seat (4 x 64 = 256 blocks held); the short turn behind
    # them waits for blocks only the rejections can free.
    assert pool.reserved == 256 and gateway.queue_depth == 1
    drain(gateway, mismatched + [short])
    assert all(r.failed for r in mismatched)
    assert pool.reserved == 0
    pool.check_conservation()
    assert short.done


def test_over_long_turn_is_rejected_at_admission():
    """A turn longer than the TA's max_tokens is turned away at the door:
    it costs no SMC and no KV hold, and it does not count against the
    lane's breaker, so the next tenant's valid turn is served."""
    system = make_system(max_batch_size=4, max_tokens=1024)
    gateway = make_gateway(system)
    pool = system.ta.batch_engine.pool
    monitor = system.stack.board.monitor
    breaker = gateway.lanes[TINYLLAMA.model_id].breaker
    smc0 = monitor.smc_count
    for _ in range(3):
        with pytest.raises(ContextTooLong) as info:
            gateway.submit(1000, 100, priority="batch", tenant="long")
        assert info.value.request.state == "rejected"
        assert info.value.request.rejected_reason == ContextTooLong.reason
    assert monitor.smc_count == smc0
    assert pool.reserved == 0 and gateway.queue_depth == 0
    assert breaker.state == "closed" and breaker.consecutive_failures == 0
    valid = gateway.submit(64, 4, tenant="short")
    drain(gateway, [valid])
    assert valid.done and not valid.failed
    assert breaker.state == "closed"
    assert not gateway.failed


# ----------------------------------------------------------------------
# preemption into a full batch, park, resume
# ----------------------------------------------------------------------
def run_preemption_scenario(out=40, arrive_at=5.0):
    system = make_system(max_batch_size=2)
    gateway = make_gateway(system)
    sim = system.sim
    bg1 = gateway.submit(32, out, priority="background", tenant="bg1")
    bg2 = gateway.submit(32, out, priority="background", tenant="bg2")
    holder = {}

    def later():
        yield sim.timeout(arrive_at)
        holder["rt"] = gateway.submit(16, 8, priority="interactive", tenant="rt")

    sim.process(later())
    drain(gateway, [bg1, bg2])
    drain(gateway, [holder["rt"]])
    return system, gateway


def test_high_priority_preempts_into_full_batch():
    system, gateway = run_preemption_scenario()
    assert gateway.preemption_signals == 1
    victims = [r for r in completed(gateway) if r.preemptions > 0]
    assert len(victims) == 1
    assert victims[0].priority.label == "background"
    assert victims[0].attempts == 2
    rt = next(r for r in completed(gateway) if r.tenant == "rt")
    assert rt.preemptions == 0 and rt.attempts == 1
    assert system.ta.batch_engine.evictions == 1
    assert system.ta.batch_engine.resumes == 1


def test_parked_victim_wastes_nothing():
    _, gateway = run_preemption_scenario()
    assert gateway.wasted_tokens == 0
    assert gateway.wasted_time == 0.0


def test_resume_restores_exact_parked_block_list():
    system = make_system(max_batch_size=2)
    gateway = make_gateway(system)
    sim = system.sim
    bg1 = gateway.submit(32, 40, priority="background", tenant="bg1")
    bg2 = gateway.submit(32, 40, priority="background", tenant="bg2")
    observed = {}

    def later():
        yield sim.timeout(5.0)
        observed["rt"] = gateway.submit(16, 8, priority="interactive", tenant="rt")
        # Capture the parked checkpoint while the victim is off the batch.
        yield sim.timeout(0.5)
        engine = system.ta.batch_engine
        (parked,) = engine.parked.values()
        observed["checkpoint"] = parked.checkpoint
        observed["pool_used"] = engine.pool.used_blocks

    sim.process(later())
    drain(gateway, [bg1, bg2])
    drain(gateway, [observed["rt"]])
    checkpoint = observed["checkpoint"]
    assert checkpoint.tokens > 32  # prompt + some decoded tokens survived
    assert len(checkpoint.block_ids) == len(set(checkpoint.block_ids))
    assert observed["pool_used"] >= len(checkpoint.block_ids)
    victim = next(r for r in completed(gateway) if r.preemptions > 0)
    # The resumed decode continued on the parked blocks: the final token
    # count covers prompt + full output, all grown from that block list.
    assert victim.record.decode.token_ids is not None
    assert len(victim.record.decode.token_ids) == 40
    assert system.ta.batch_engine.pool.used_blocks == 0


def test_preempted_stream_is_identical_to_unpreempted():
    """Determinism across park/resume: the victim's final token stream
    equals an unpreempted run of the same request."""
    system, gateway = run_preemption_scenario(out=40)
    victim = next(r for r in completed(gateway) if r.preemptions > 0)
    reference = make_system(max_batch_size=2).run_infer(32, 40)
    assert victim.record.decode.token_ids == reference.decode.token_ids
    # The resumed record reports the original attempt's first token.
    assert victim.first_token_at < victim.record.started_at


def test_ttft_of_resumed_request_reflects_first_attempt():
    _, gateway = run_preemption_scenario()
    victim = next(r for r in completed(gateway) if r.preemptions > 0)
    # first_token_at precedes the preemption (the resume never re-ran
    # prefill), so TTFT is attributed to the first attempt.
    assert victim.dispatched_at < victim.first_token_at
    assert victim.first_token_at < victim.finished_at


# ----------------------------------------------------------------------
# satellite 3: EWMA cold start
# ----------------------------------------------------------------------
def test_first_observation_seeds_predictor_directly():
    from repro.serve import ServiceTimePredictor

    predictor = ServiceTimePredictor(alpha=0.05)  # tiny alpha
    predictor.observe("m", ttft=4.0, service_time=9.0)
    # Direct seeding: not 0.05 * 4.0 pulled up from an implicit zero.
    assert predictor.predicted_ttft("m") == pytest.approx(4.0)
    assert predictor.predicted_service("m") == pytest.approx(9.0)
    predictor.observe("m", ttft=6.0, service_time=11.0)
    assert predictor.predicted_ttft("m") == pytest.approx(4.0 + 0.05 * 2.0)


def test_cold_gateway_does_not_spuriously_shed():
    """With no observations, early arrivals must not trip
    SLOUnattainable off a garbage prediction."""
    system = make_system(max_batch_size=2)
    gateway = ServeGateway(system, GatewayConfig(batching=True, shedding=True))
    requests = [
        gateway.submit(16, 4, priority="interactive", tenant="t%d" % i)
        for i in range(3)
    ]
    assert gateway.admission.rejected_slo == 0
    drain(gateway, requests)
    assert gateway.health()["completed"] == 3
