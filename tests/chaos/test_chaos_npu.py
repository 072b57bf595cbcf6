"""Chaos: the split NPU driver under dropped hand-offs, stalls and hangs."""

import random
from dataclasses import replace

import pytest

from repro import TINYLLAMA, TZLLM
from repro.core import BatchConfig
from repro.errors import IagoViolation
from repro.faults import FaultPlan, FaultSpec, RecoveryPolicy


def test_smc_drops_recovered_by_watchdog(seed, hardened_system):
    """Lost take-over SMCs never launch the secure job; the TEE watchdog
    times out and re-issues the shadow with the same sequence number."""
    system = hardened_system(cache_fraction=0.0, use_checkpoint=False)
    plan = FaultPlan(seed, [FaultSpec("ree.smc_drop", probability=1.0, max_fires=2)])
    injector = plan.injector(system.sim).arm(system)
    record = system.run_infer(64, 2)
    assert record.decode is not None and len(record.decode.token_ids) == 2
    assert injector.fired["ree.smc_drop"] == 2
    assert system.stack.ree_npu.shadow_jobs_dropped == 2
    assert system.stack.tee_npu.reissues == 2


def test_stalls_and_hangs_absorbed(seed, hardened_system):
    """Scheduler stalls and post-IRQ hangs slow the run down but never
    wedge it: the sim clock always reaches a terminal state."""
    system = hardened_system(cache_fraction=0.0, use_checkpoint=False)
    plan = FaultPlan(
        seed,
        [
            FaultSpec("ree.npu_stall", probability=0.3, delay=1e-3, jitter=1e-3),
            FaultSpec("tee.job_hang", probability=0.2, delay=2e-3, jitter=2e-3),
        ],
    )
    injector = plan.injector(system.sim).arm(system)
    record = system.run_infer(64, 4)
    assert record.decode is not None and len(record.decode.token_ids) == 4
    summary = injector.summary()
    assert summary["ree.npu_stall"]["checked"] > 0
    assert summary["tee.job_hang"]["checked"] > 0


def test_npu_chaos_is_deterministic_per_seed(seed, hardened_system):
    """Same seed, same plan: identical timings and fault decisions."""

    def run_once():
        system = hardened_system(cache_fraction=0.0, use_checkpoint=False)
        plan = FaultPlan(
            seed,
            [
                FaultSpec("ree.smc_drop", probability=0.2, max_fires=10),
                FaultSpec("ree.npu_stall", probability=0.3, delay=1e-3, jitter=1e-3),
                FaultSpec("tee.job_hang", probability=0.2, delay=2e-3, jitter=2e-3),
            ],
        )
        injector = plan.injector(system.sim).arm(system)
        record = system.run_infer(64, 4)
        return (
            record.ttft,
            system.sim.now,
            system.stack.tee_npu.reissues,
            injector.summary(),
        )

    assert run_once() == run_once()


def test_replay_attack_still_detected_under_chaos(hardened_system):
    """Fault injection must not blunt the security checks: a replayed
    take-over for a completed job raises IagoViolation even while the
    schedulers run under stall/hang injection."""
    system = hardened_system(cache_fraction=0.0, use_checkpoint=False)
    plan = FaultPlan(
        5,
        [
            FaultSpec("ree.npu_stall", probability=0.3, delay=1e-3, jitter=1e-3),
            FaultSpec("tee.job_hang", probability=0.2, delay=2e-3, jitter=2e-3),
        ],
    )
    plan.injector(system.sim).arm(system)
    system.run_infer(32, 0)
    stack = system.stack
    assert stack.tee_npu.secure_jobs_completed > 0
    done = [r for r in stack.tee_npu._records.values() if r.state.name == "DONE"]
    assert done
    record = done[0]
    sim = system.sim

    def replay():
        yield from stack.ree_npu.attack_replay_take_over(record.shadow_id, record.seq)

    with pytest.raises(IagoViolation, match="replay|state"):
        sim.run_until(sim.process(replay()))

    def forge():
        yield from stack.ree_npu.attack_forge_take_over(999999, 0)

    with pytest.raises(IagoViolation, match="unknown"):
        sim.run_until(sim.process(forge()))


def chaos_mix(seed):
    """A seeded 24-item co-driver mix with every NPU fault site armed."""
    rng = random.Random(seed)
    items = [
        (
            rng.choice(["watched", "watched", "ree"]),
            rng.uniform(0.0, 4e-3),
            rng.choice([0.0, 0.0, rng.uniform(0.0, 3e-3), 0.125]),
        )
        for _ in range(24)
    ]
    return {
        "items": items,
        "contender": (rng.uniform(0.0, 0.01), 0.04),
        "faults": [
            FaultSpec("ree.npu_stall", probability=0.2, delay=1e-3, jitter=2e-3),
            FaultSpec("ree.smc_drop", probability=0.1, max_fires=4),
            FaultSpec("tee.job_hang", probability=0.2, delay=1e-3, jitter=2e-3),
        ],
        "fault_seed": seed,
        "cuts": sorted(rng.uniform(0.0, 0.2) for _ in range(3)),
    }


def run_both_ways(seed, codriver_mix, per_step_stepping, advance_tally):
    with advance_tally() as tally:
        shipped = codriver_mix(**chaos_mix(seed))
    with per_step_stepping():
        reference = codriver_mix(**chaos_mix(seed))
    assert shipped == reference
    assert tally[True] > 0 and tally[False] > 0
    return shipped


def test_in_place_steps_match_per_step_stepping_under_chaos(
    seed, codriver_mix, per_step_stepping, advance_tally
):
    """A seeded co-driver mix under every NPU fault site observes exactly
    what per-step stepping observes (see tests/integration/
    test_codriver_stepping.py), and reaches both sides of advance."""
    run_both_ways(seed, codriver_mix, per_step_stepping, advance_tally)


def test_job_given_up_on_does_not_stop_the_mix(codriver_mix, per_step_stepping, advance_tally):
    """Seed 46: a watched job loses every hand-off and times out before
    it reaches the device.  The next job's take-over still passes the
    sequence check, and the mix runs to its end."""
    observed = run_both_ways(46, codriver_mix, per_step_stepping, advance_tally)
    assert "raised" not in observed
    outcomes = observed["end"]["outcomes"]
    assert "timed out" in outcomes
    assert outcomes[outcomes.index("timed out") + 1 :].count("done") > 0


def test_dropped_hand_off_between_two_models_is_reissued():
    """Two TAs share the co-driver, each with its own job contexts, and
    prefill at once, so their jobs interleave at the REE.  The first
    hand-off drops; the re-issued job keeps its number in its own stream,
    so the other TA's jobs, presented before it, still pass the sequence
    check."""
    models = [TINYLLAMA, replace(TINYLLAMA, model_id="tinyllama-b")]
    system = TZLLM(models, recovery=RecoveryPolicy.hardened(), cache_fraction=1.0)
    for model in models:
        system.run_infer(8, 0, model_id=model.model_id)
    plan = FaultPlan(0, [FaultSpec("ree.smc_drop", probability=1.0, max_fires=1)])
    plan.injector(system.sim).arm(system)
    sim = system.sim
    runs = [sim.process(system.infer(64, 8, model_id=m.model_id)) for m in models]
    sim.run_until(sim.all_of(runs))
    assert [len(run.value.decode.token_ids) for run in runs] == [8, 8]
    assert system.stack.ree_npu.shadow_jobs_dropped == 1
    assert system.stack.tee_npu.reissues == 1


class DropKth:
    """Drops the ``k``-th shadow hand-off the REE scheduler runs."""

    def __init__(self, k):
        self.k = k
        self.checks = 0

    def fires(self, site, target=None):
        self.checks += 1
        return self.checks == self.k

    def stall_delay(self, site, target=None):
        return 0.0


def test_dropped_hand_off_between_prefill_and_decode_is_reissued(hardened_system):
    """``max_batch_size=2``: request B prefills while request A decodes,
    so the TA's prefill and decode streams both have jobs queued at the
    REE.  Whichever hand-off of that overlap drops, the job is re-issued
    in its own stream and both requests complete."""

    def run(k):
        system = hardened_system(
            batch_config=BatchConfig(max_batch_size=2),
            cache_fraction=1.0,
            decode_use_npu=True,
        )
        tee, ree = system.stack.tee_npu, system.stack.ree_npu
        ree.fault_injector = DropKth(k)
        warm = len(tee._records)
        sim = system.sim
        # B waits on the prefill lock until A's prefill is done.
        a, b = sim.process(system.infer(64, 8)), sim.process(system.infer(64, 2))
        sim.run_until(sim.all_of([a, b]))
        assert len(a.value.decode.token_ids) == 8
        assert len(b.value.decode.token_ids) == 2
        assert ree.shadow_jobs_dropped == tee.reissues == (1 if k else 0)
        decode_ctx = system.ta.decode_npu.ctx.base
        return [r.job.commands.base == decode_ctx for r in list(tee._records.values())[warm:]]

    # Without drops, the k-th hand-off is the k-th job issued: sweep from
    # A's first decode job to B's last prefill job.
    decode = run(0)
    first = decode.index(True) + 1
    last = len(decode) - decode[::-1].index(False)
    assert last - first > 20
    for k in range(first, last + 1, max(1, (last - first) // 20)):
        run(k)
