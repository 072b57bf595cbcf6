"""Prefix sharing through the TA: chunked in-batch prefill, rejoin
atomicity, stream determinism, chaos drain, and offline-analyzer parity.
"""

import pytest

from repro import TINYLLAMA, TZLLM
from repro.analysis.prefix_share import analyze_prefix_sharing
from repro.core import BatchConfig
from repro.errors import ConfigurationError
from repro.faults import FaultPlan, FaultSpec, RecoveryPolicy
from repro.llm import PagedKVCache, PromptSpec
from repro.llm.kv_cache import BlockCheckpoint
from repro.serve import GatewayConfig, ServeGateway
from repro.workloads.fleet import FleetTenantSpec, generate_fleet_trace

B = 16


def make_system(**kwargs):
    kwargs.setdefault(
        "batch_config",
        BatchConfig(
            max_batch_size=4,
            block_tokens=B,
            prefix_sharing=True,
            prefill_chunk_tokens=16,
        ),
    )
    kwargs.setdefault("cache_fraction", 1.0)
    return TZLLM(TINYLLAMA, **kwargs)


def infer(system, prompt_tokens, output_tokens, spec=None):
    proc = system.sim.process(
        system.infer(prompt_tokens, output_tokens, prompt=spec)
    )
    return system.sim.run_until(proc)


# ----------------------------------------------------------------------
# spec validation and the share split on the record
# ----------------------------------------------------------------------
def test_spec_must_match_prompt_tokens():
    system = make_system()
    with pytest.raises(ConfigurationError):
        infer(system, 32, 4, PromptSpec(new_tokens=16))


def test_record_reports_share_split_and_repeat_prefix_cuts_ttft():
    system = make_system()
    spec_a = PromptSpec(prefix_id="t/p0", prefix_tokens=4 * B,
                        session_id="t/s1", new_tokens=2 * B)
    r1 = infer(system, spec_a.prompt_tokens, 4, spec_a)
    assert r1.kv_hit_tokens == 0
    assert r1.kv_miss_tokens == spec_a.prompt_tokens

    spec_b = PromptSpec(prefix_id="t/p0", prefix_tokens=4 * B,
                        session_id="t/s2", new_tokens=2 * B)
    r2 = infer(system, spec_b.prompt_tokens, 4, spec_b)
    assert r2.kv_hit_tokens == 4 * B  # the shared prefix came for free
    assert r2.kv_hit_tokens + r2.kv_cow_tokens + r2.kv_miss_tokens == spec_b.prompt_tokens

    # Same shape, unshared prefix, same warm system: the prefix hit is
    # the only difference, and it pays for itself in TTFT.
    spec_c = PromptSpec(prefix_id="t/p9", prefix_tokens=4 * B,
                        session_id="t/s3", new_tokens=2 * B)
    r3 = infer(system, spec_c.prompt_tokens, 4, spec_c)
    assert r3.kv_hit_tokens == 0
    assert r2.ttft < r3.ttft

    # Sequential requests drain fully between turns; only the cached
    # residency (no live refs) survives in the pool.
    pool = system.ta.batch_engine.pool
    assert system.ta.kv_bytes_in_use == pool.cached_blocks * pool.block_bytes
    pool.check_conservation()


def test_token_streams_identical_with_sharing_on_and_off():
    """Acceptance: sharing must change where KV comes from, never what
    the model decodes."""
    specs = [
        PromptSpec(prefix_id="t/p0", prefix_tokens=4 * B, session_id="t/s1",
                   new_tokens=B + 5),
        PromptSpec(prefix_id="t/p0", prefix_tokens=4 * B, session_id="t/s2",
                   new_tokens=2 * B),
        PromptSpec(prefix_id="t/p0", prefix_tokens=4 * B, session_id="t/s1",
                   context_tokens=B + 5, new_tokens=B),
    ]
    shared = make_system()
    baseline = make_system(
        batch_config=BatchConfig(max_batch_size=4, block_tokens=B)
    )
    for spec in specs:
        on = infer(shared, spec.prompt_tokens, 12, spec)
        off = infer(baseline, spec.prompt_tokens, 12)
        assert on.decode.token_ids == off.decode.token_ids
    assert sum(1 for _ in specs) == 3


# ----------------------------------------------------------------------
# chunked prefill inside the running batch
# ----------------------------------------------------------------------
def test_miss_suffix_prefills_in_chunks_while_batch_decodes():
    system = make_system()
    sim = system.sim
    infer(system, 16, 2)  # warm the parameter cache (legacy path, no spec)
    engine = system.ta.batch_engine
    assert engine.prefill_chunks == 0

    records = {}

    def first():
        spec = PromptSpec(prefix_id="a/p0", prefix_tokens=2 * B,
                          session_id="a/s1", new_tokens=0)
        records["a"] = yield from system.infer(2 * B, 60, prompt=spec)

    def second():
        yield sim.timeout(5.0)  # arrive mid-decode of the first
        spec = PromptSpec(prefix_id="b/p0", prefix_tokens=8 * B,
                          session_id="b/s1", new_tokens=8 * B)
        records["b"] = yield from system.infer(16 * B, 8, prompt=spec)

    p1, p2 = sim.process(first()), sim.process(second())
    sim.run_until(p1)
    sim.run_until(p2)

    # The second request hit the resident-framework path: its 256-token
    # miss suffix ran as 16-token chunks inside the running batch
    # instead of serializing on the prefill lock.
    assert engine.prefill_chunks >= 2
    assert engine.prefill_tokens == 16 * B
    assert engine.prefill_busy_time > 0.0
    assert records["b"].kv_miss_tokens == 16 * B
    assert len(records["b"].decode.token_ids) == 8
    # The first stream was not disturbed by the interleaved prefill.
    assert len(records["a"].decode.token_ids) == 60
    assert system.ta.batch_engine.pool.used_blocks == system.ta.batch_engine.pool.cached_blocks


# ----------------------------------------------------------------------
# rejoin atomicity (satellite)
# ----------------------------------------------------------------------
def test_rejoin_refuses_stale_and_tampered_handles():
    system = make_system()
    engine = system.ta.batch_engine
    kv = PagedKVCache(engine.pool, owner="u/r7")
    kv.init_prompt(32)
    seq = engine.join(kv, 32, 4, request_id=7, prefill_tokens=10)
    engine.waiting.remove(seq)
    parked = engine.park(seq, at=0.0)
    assert parked.prefill_remaining == 10

    # A different object squatting on the id: the handle is stale, the
    # squatter must not be disturbed, the blocks must not move.
    engine.parked[7] = "impostor"
    before = engine.pool.parked_blocks
    with pytest.raises(ConfigurationError):
        engine.rejoin(parked)
    assert engine.parked[7] == "impostor"
    assert engine.pool.parked_blocks == before

    engine.parked[7] = parked
    resumed = engine.rejoin(parked)
    assert 7 not in engine.parked
    assert resumed.prefill_remaining == 10  # unfinished prefill carried over
    assert engine.pool.parked_blocks == 0
    engine.pool.check_conservation()

    # The handle is consumed: a second rejoin of the same park raises.
    with pytest.raises(ConfigurationError):
        engine.rejoin(parked)
    engine.waiting.remove(resumed)
    kv.release()
    engine.pool.check_conservation()


def test_rejoin_terminal_failure_releases_blocks_exactly_once():
    system = make_system()
    engine = system.ta.batch_engine
    kv = PagedKVCache(engine.pool, owner="u/r9")
    kv.init_prompt(48)
    seq = engine.join(kv, 48, 4, request_id=9)
    engine.waiting.remove(seq)
    parked = engine.park(seq, at=0.0)
    # Corrupt the checkpoint: restore can never succeed.
    parked.checkpoint = BlockCheckpoint(block_ids=(10 ** 6,), tokens=1)
    with pytest.raises(ConfigurationError):
        engine.rejoin(parked)
    # Exactly-once teardown: entry gone, blocks back, nothing stranded.
    assert 9 not in engine.parked
    assert engine.pool.used_blocks == 0
    engine.pool.check_conservation()
    with pytest.raises(ConfigurationError):
        engine.rejoin(parked)


def test_park_and_rejoin_keep_one_sequence_object():
    """The parked entry is the evicted sequence itself: no decode state
    is copied out and back, and only ``result()`` snapshots it."""
    system = make_system()
    engine = system.ta.batch_engine
    kv = PagedKVCache(engine.pool, owner="u/r5")
    kv.init_prompt(32)
    seq = engine.join(kv, 32, 4, request_id=5)
    engine.waiting.remove(seq)
    seq.token_ids.append(11)
    first_done = seq.done
    snapshot = seq.result(stopped_early=True)
    assert engine.park(seq, at=1.5) is seq
    assert engine.parked[5] is seq and seq.parked_at == 1.5
    resumed = engine.rejoin(seq, gate="gate")
    assert resumed is seq and 5 not in engine.parked
    assert resumed.state == "waiting" and resumed.gate == "gate"
    assert resumed.done is not first_done and not resumed.done.triggered
    resumed.token_ids.append(12)
    assert snapshot.token_ids == [11]  # the preempted attempt's copy
    engine.waiting.remove(resumed)
    kv.release()
    engine.pool.check_conservation()


# ----------------------------------------------------------------------
# mid-prefill preemption through the gateway
# ----------------------------------------------------------------------
def test_midprefill_park_resumes_and_streams_correctly():
    system = make_system(batch_config=BatchConfig(
        max_batch_size=2, block_tokens=B, prefix_sharing=True,
        prefill_chunk_tokens=16,
    ))
    gateway = ServeGateway(system, GatewayConfig(batching=True, shedding=False))
    sim = system.sim
    warm = gateway.submit(16, 2, priority="batch", tenant="warm")
    sim.run_until(warm.completion)

    anchor = gateway.submit(
        32, 200, priority="batch", tenant="anchor",
        prompt_spec=PromptSpec(prefix_id="a/p0", prefix_tokens=B,
                               session_id="a/s1", new_tokens=B),
    )
    holder = {}
    observed = {}

    def victim_then_rt():
        yield sim.timeout(3.0)  # joins while the anchor decodes
        holder["victim"] = gateway.submit(
            32 * B, 24, priority="background", tenant="victim",
            prompt_spec=PromptSpec(prefix_id="v/p0", prefix_tokens=16 * B,
                                   session_id="v/s1", new_tokens=16 * B),
        )
        yield sim.timeout(1.0)  # mid-prefill of the 512-token miss
        holder["rt"] = gateway.submit(16, 4, priority="interactive", tenant="rt")
        yield sim.timeout(0.5)
        engine = system.ta.batch_engine
        if engine.parked:
            (parked,) = engine.parked.values()
            observed["prefill_remaining"] = parked.prefill_remaining

    sim.process(victim_then_rt())
    sim.run_until(anchor.completion)
    sim.run_until(holder["victim"].completion)
    sim.run_until(holder["rt"].completion)

    victim = holder["victim"]
    assert victim.preemptions >= 1
    # The park happened with prefill still owed, and the resume finished
    # the remaining chunks before decoding.
    assert observed["prefill_remaining"] > 0
    assert len(victim.record.decode.token_ids) == 24
    # Determinism: the interrupted stream equals an undisturbed run.
    reference = make_system(
        batch_config=BatchConfig(max_batch_size=2, block_tokens=B)
    ).run_infer(32 * B, 24)
    assert victim.record.decode.token_ids == reference.decode.token_ids
    pool = system.ta.batch_engine.pool
    assert pool.used_blocks == pool.cached_blocks  # only residency remains
    pool.check_conservation()


# ----------------------------------------------------------------------
# chaos drain (acceptance: invariants through faults + preemption)
# ----------------------------------------------------------------------
def test_chaos_with_sharing_drains_to_zero():
    system = make_system(recovery=RecoveryPolicy.hardened())
    plan = FaultPlan(
        1337,
        [
            FaultSpec("flash.read_error", probability=0.05),
            FaultSpec("flash.bit_flip", probability=0.02),
            FaultSpec("tee.job_hang", probability=0.05, delay=5e-3, jitter=5e-3),
        ],
    )
    plan.injector(system.sim).arm(system)
    gateway = ServeGateway(system, GatewayConfig(batching=True, shedding=False))
    sim = system.sim
    requests = []

    def drive():
        for n in range(12):
            spec = PromptSpec(
                prefix_id="c/p%d" % (n % 2),
                prefix_tokens=4 * B,
                session_id="c/s%d" % (n % 3),
                new_tokens=B + (n % 3) * 7,
            )
            priority = ["interactive", "batch", "background"][n % 3]
            try:
                requests.append(gateway.submit(
                    spec.prompt_tokens, 8 + (n % 4) * 8, priority=priority,
                    tenant="c%d" % n, prompt_spec=spec,
                ))
            except Exception:
                pass  # admission rejections are fine under chaos
            yield sim.timeout(1.5)

    sim.run_until(sim.process(drive()))
    for request in requests:
        sim.run_until(request.completion)

    pool = system.ta.batch_engine.pool
    pool.check_conservation()
    assert pool.active_blocks == 0 and pool.parked_blocks == 0
    assert pool.reserved == 0

    # flush_kv drops the cached residency too: the TA is truly empty and
    # the data region shrinks to zero.
    dropped = sim.run_until(sim.process(system.flush_kv()))
    assert dropped == pool.cached_blocks == 0 or dropped > 0
    assert pool.used_blocks == 0
    assert system.ta.kv_bytes_in_use == 0
    assert system.ta.data_region.allocated == 0
    pool.check_conservation()


# ----------------------------------------------------------------------
# offline-analyzer parity (acceptance: online == analysis.prefix_share)
# ----------------------------------------------------------------------
def test_online_hit_tokens_match_offline_analyzer():
    """The serving path's per-request hit accounting, summed over a
    fleet trace, must equal ``analysis.prefix_share`` replayed on the
    same trace (unbounded cache on both sides: eviction order is the
    one legitimate divergence)."""
    tenants = [
        FleetTenantSpec(
            name="acme", model_id=TINYLLAMA.model_id, priority="interactive",
            sessions_per_hour=40.0, output_tokens=(4, 8), mean_turns=3.0,
            mean_think_time=30.0, stickiness=1.0,
            prefix_tokens=6 * B, prefix_pool=1,
        ),
        FleetTenantSpec(
            name="globex", model_id=TINYLLAMA.model_id, priority="batch",
            sessions_per_hour=25.0, output_tokens=(4, 8), mean_turns=2.0,
            mean_think_time=45.0, stickiness=1.0,
            prefix_tokens=10 * B, prefix_pool=2,
        ),
    ]
    trace = [
        r for r in generate_fleet_trace(600.0, tenants, seed=11)
        if r.prompt_tokens + r.output_tokens <= 1500
    ]
    assert len(trace) >= 8  # the trace must actually exercise sharing

    system = make_system(
        batch_config=BatchConfig(
            max_batch_size=4, block_tokens=B, prefix_sharing=True,
            budget_blocks=2048,
        ),
        max_tokens=2048,
    )
    records = []
    for request in trace:
        spec = PromptSpec.from_fleet_request(request)
        records.append(
            infer(system, spec.prompt_tokens, request.output_tokens, spec)
        )

    report = analyze_prefix_sharing(
        trace, [TINYLLAMA], system.stack.spec,
        block_tokens=B, cache_blocks=None,
    )
    assert sum(r.kv_hit_tokens for r in records) == report.hit_tokens
    assert report.hit_rate > 0.0
    # Per-request conservation of the share split.
    for record, request in zip(records, trace):
        assert (
            record.kv_hit_tokens + record.kv_cow_tokens + record.kv_miss_tokens
            == request.prompt_tokens
        )
    system.ta.batch_engine.pool.check_conservation()
