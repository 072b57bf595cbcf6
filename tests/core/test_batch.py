"""Continuous-batching decode: throughput, memory model, fault paths."""

import pytest

from repro import TINYLLAMA, TZLLM
from repro.core import BatchConfig
from repro.errors import ConfigurationError, TZLLMError
from repro.faults import FaultPlan, FaultSpec, RecoveryPolicy


def make_batched(**kwargs):
    kwargs.setdefault("batch_config", BatchConfig(max_batch_size=4, block_tokens=16))
    return TZLLM(TINYLLAMA, **kwargs)


def run_concurrent(system, n, prompt=32, out=32):
    sim = system.sim
    records = []

    def one():
        record = yield from system.infer(prompt, out)
        records.append(record)

    procs = [sim.process(one()) for _ in range(n)]
    for proc in procs:
        sim.run_until(proc)
    return records


# ----------------------------------------------------------------------
# config
# ----------------------------------------------------------------------
def test_batch_config_validation():
    with pytest.raises(ConfigurationError):
        BatchConfig(max_batch_size=0)
    with pytest.raises(ConfigurationError):
        BatchConfig(block_tokens=0)
    with pytest.raises(ConfigurationError):
        BatchConfig(budget_blocks=0)


def test_budget_defaults_to_worst_case_batch():
    config = BatchConfig(max_batch_size=4, block_tokens=16)
    assert config.resolved_budget(1024) == 4 * 64


# ----------------------------------------------------------------------
# single stream through the batched path
# ----------------------------------------------------------------------
def test_batched_single_stream_matches_one_request_ta_tokens():
    batched = make_batched().run_infer(32, 8)
    single = TZLLM(TINYLLAMA).run_infer(32, 8)
    assert batched.decode.token_ids == single.decode.token_ids


def test_batched_inference_drains_kv_and_region():
    system = make_batched()
    system.run_infer(32, 8)
    assert system.ta.kv_bytes_in_use == 0
    assert system.ta.data_region.allocated == 0
    pool = system.ta.batch_engine.pool
    assert pool.used_blocks == 0 and pool.reserved == 0


# ----------------------------------------------------------------------
# the tentpole: throughput scales with batch size
# ----------------------------------------------------------------------
def test_batch4_doubles_aggregate_decode_throughput():
    """ISSUE acceptance: >= 2x aggregate decode throughput at batch 4
    versus the serialized single-stream baseline."""
    out = 48
    single = TZLLM(TINYLLAMA)
    serial_records = [single.run_infer(32, out) for _ in range(4)]
    serial_time = sum(sum(r.decode.step_times) for r in serial_records)
    serial_tput = 4 * out / serial_time

    batched = make_batched()
    records = run_concurrent(batched, 4, out=out)
    span = max(sum(r.decode.step_times) for r in records)
    batched_tput = 4 * out / span
    assert batched_tput >= 2.0 * serial_tput

    engine = batched.ta.batch_engine
    assert engine.occupancy_mean() > 2.0
    # Batching must not change what any sequence decodes.
    for record in records:
        assert record.decode.token_ids == serial_records[0].decode.token_ids


def test_batched_step_cost_has_setup_plus_marginal_shape():
    """Per-step cost = setup + per-token marginal: a fused batch-4 step
    costs far less than 4 single steps but more than one."""
    single = make_batched(batch_config=BatchConfig(max_batch_size=1))
    r1 = single.run_infer(32, 16)
    t1 = sorted(r1.decode.step_times)[len(r1.decode.step_times) // 2]

    quad = make_batched()
    records = run_concurrent(quad, 4, out=16)
    full_steps = [
        t for r in records for t in r.decode.step_times
    ]
    t4 = sorted(full_steps)[len(full_steps) // 2]
    assert t4 > t1  # the marginal per-token work is real...
    assert t4 < 2.0 * t1  # ...but far cheaper than replaying the weights


def test_occupancy_metrics_exported():
    from repro.obs import instrument

    system = make_batched()
    instrument(system)
    run_concurrent(system, 3, out=8)
    engine = system.ta.batch_engine
    assert engine.steps > 0
    assert sum(engine.occupancy_steps.values()) == engine.steps
    assert engine.tokens_generated == 3 * 8
    rendered = system.observability.registry.render()
    assert "batch_steps_total" in rendered
    assert "batch_tokens_total" in rendered


# ----------------------------------------------------------------------
# memory model: the data region stays end-grown, end-shrunk
# ----------------------------------------------------------------------
def test_region_grows_to_high_water_and_shrinks_at_drain():
    system = make_batched()
    sim = system.sim
    observed = {}

    def snoop():
        yield sim.timeout(6.0)  # mid-decode
        observed["allocated"] = system.ta.data_region.allocated
        observed["used_blocks"] = system.ta.batch_engine.pool.used_blocks

    sim.process(snoop())
    run_concurrent(system, 4, out=32)
    assert observed["used_blocks"] > 0
    assert observed["allocated"] > 0
    engine = system.ta.batch_engine
    assert observed["allocated"] >= engine.fixed_bytes
    # Fully drained: everything came back.
    assert system.ta.data_region.allocated == 0
    assert system.ta.kv_bytes_in_use == 0


def test_cma_requirements_cover_batched_budget():
    config = BatchConfig(max_batch_size=4, block_tokens=16)
    system = make_batched(batch_config=config)
    engine = system.ta.batch_engine
    # The boot-time CMA sizing must cover the worst-case backing.
    worst = engine.fixed_bytes + engine.pool.total_blocks * engine.pool.block_bytes
    assert system.ta.data_region.capacity >= worst


# ----------------------------------------------------------------------
# satellite 1: no KV leak on failure paths
# ----------------------------------------------------------------------
@pytest.mark.parametrize("batched", [False, True], ids=["legacy", "batched"])
def test_faulted_inference_leaves_no_kv_bytes(batched):
    """A TEE job hang mid-decode surfaces WatchdogTimeout; the block pool
    of the default one-request TA (``legacy``) or of a batching TA must
    drain to zero and the TA must stay serviceable."""
    kwargs = {"batch_config": BatchConfig(max_batch_size=2)} if batched else {}
    system = TZLLM(
        TINYLLAMA,
        decode_use_npu=True,
        recovery=RecoveryPolicy(npu_job_timeout=0.05, npu_max_reissues=0),
        **kwargs,
    )
    plan = FaultPlan(
        7,
        [
            FaultSpec(
                "tee.job_hang", probability=1.0, delay=10.0,
                window=(5.0, 1e9), max_fires=1,
            )
        ],
    )
    plan.injector(system.sim).arm(system)
    with pytest.raises(TZLLMError):
        system.run_infer(32, 64)
    assert system.ta.kv_bytes_in_use == 0
    assert system.ta.data_region.allocated == 0
    # Serviceable again once the wedged device drains.
    system.sim.run_until(system.sim.timeout(15.0))
    record = system.run_infer(16, 4)
    assert len(record.decode.token_ids) == 4
    assert system.ta.kv_bytes_in_use == 0


def test_step_fault_fails_whole_batch_without_stranding_blocks():
    system = make_batched(
        batch_config=BatchConfig(max_batch_size=2),
        decode_use_npu=True,
        recovery=RecoveryPolicy(npu_job_timeout=0.05, npu_max_reissues=0),
    )
    plan = FaultPlan(
        3,
        [
            FaultSpec(
                "tee.job_hang", probability=1.0, delay=10.0,
                window=(5.0, 1e9), max_fires=1,
            )
        ],
    )
    plan.injector(system.sim).arm(system)
    sim = system.sim
    outcomes = []

    def one():
        try:
            yield from system.infer(32, 64)
        except TZLLMError as exc:
            outcomes.append(type(exc).__name__)
        else:
            outcomes.append("ok")

    procs = [sim.process(one()) for _ in range(2)]
    for proc in procs:
        sim.run_until(proc)
    assert outcomes == ["WatchdogTimeout", "WatchdogTimeout"]
    assert system.ta.kv_bytes_in_use == 0
    assert system.ta.batch_engine.pool.reserved == 0
