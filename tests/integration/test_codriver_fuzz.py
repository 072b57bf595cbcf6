"""Property-based fuzzing of the co-driver protocol.

Random interleavings of secure and non-secure NPU jobs (with random
durations and submission gaps) must always: complete every job, keep the
sequence counter consistent, leave the device in non-secure mode, and
never fault a legitimate job.  A second property drives random *attack*
schedules and requires every illegitimate take-over to be rejected
without wedging subsequent legitimate traffic.  A third interleaves two
job contexts (two sequence streams) under dropped hand-offs: every job
completes, and a reorder within one context still raises.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MiB, RK3588
from repro.errors import IagoViolation
from repro.faults import FaultPlan, FaultSpec
from repro.hw import AddrRange, NPUJob, World
from repro.stack import build_stack

S = World.SECURE
N = World.NONSECURE


def make_stack():
    stack = build_stack(spec=RK3588.with_memory(64 * MiB), granule=MiB, os_footprint=0)
    stack.board.tzasc.configure(S, 0, 16 * MiB, 4 * MiB)
    stack.tee_npu.allowed_slots = [0]
    return stack


def secure_job(duration):
    base = 16 * MiB
    return NPUJob(
        duration=duration,
        commands=AddrRange(base, 64),
        io_pagetable=AddrRange(base + 4096, 64),
        inputs=[AddrRange(base + 8192, 64)],
        outputs=[AddrRange(base + 12288, 64)],
    )


def nonsecure_job(duration):
    return NPUJob(
        duration=duration,
        commands=AddrRange(0, 64),
        io_pagetable=AddrRange(4096, 64),
        inputs=[AddrRange(8192, 64)],
        outputs=[AddrRange(12288, 64)],
    )


@given(
    schedule=st.lists(
        st.tuples(
            st.booleans(),  # secure?
            st.floats(min_value=0.0005, max_value=0.02),  # duration
            st.floats(min_value=0.0, max_value=0.01),  # gap before submit
        ),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=20, deadline=None)
def test_random_interleavings_all_complete(schedule):
    stack = make_stack()
    sim = stack.sim
    outcomes = []

    def submitter():
        waits = []
        for secure, duration, gap in schedule:
            if gap:
                yield sim.timeout(gap)
            if secure:
                record = stack.tee_npu.init_job(secure_job(duration))
                yield from stack.tee_npu.issue_job(record)
                waits.append(("secure", record.completion))
            else:
                waits.append(("ree", stack.ree_npu.submit(nonsecure_job(duration))))
        for kind, event in waits:
            result = yield event
            outcomes.append(kind)

    done = sim.process(submitter())
    sim.run_until(done)
    n_secure = sum(1 for s, _d, _g in schedule if s)
    assert len(outcomes) == len(schedule)
    assert stack.tee_npu.secure_jobs_completed == n_secure
    assert stack.tee_npu._exec_seq[16 * MiB] == n_secure
    assert stack.board.npu.jobs_faulted == 0
    assert stack.board.npu.jobs_completed == len(schedule)
    # The device always ends non-secure with no dangling grants.
    assert stack.board.tzpc.device_world("npu") is N
    assert stack.board.gic.line_world(stack.board.npu.irq) is N
    assert stack.board.tzasc.region(0).allowed_devices == set()


@given(
    attacks=st.lists(
        st.sampled_from(["replay", "forge", "wrong-seq"]), min_size=1, max_size=5
    )
)
@settings(max_examples=15, deadline=None)
def test_random_attacks_rejected_without_wedging(attacks):
    stack = make_stack()
    sim = stack.sim

    def run_legit():
        yield from stack.tee_npu.submit_secure_job(secure_job(0.002))

    proc = sim.process(run_legit())
    sim.run_until(proc)
    last_record = next(iter(stack.tee_npu._records.values()))

    rejected = 0
    for attack in attacks:
        if attack == "replay":
            gen = stack.ree_npu.attack_replay_take_over(
                last_record.shadow_id, last_record.seq
            )
        elif attack == "forge":
            gen = stack.ree_npu.attack_forge_take_over(999, stack.tee_npu._exec_seq[16 * MiB])
        else:
            gen = stack.ree_npu.attack_forge_take_over(
                last_record.shadow_id, last_record.seq + 7
            )
        attack_proc = sim.process(gen)
        with pytest.raises(IagoViolation):
            sim.run_until(attack_proc)
        rejected += 1
    assert stack.tee_npu.take_over_rejections == rejected
    # Legitimate traffic still flows after every attack.
    proc = sim.process(run_legit())
    sim.run_until(proc)
    assert stack.tee_npu.secure_jobs_completed == 2


def context_job(ctx, duration):
    """A secure job whose execution context is the 2 KiB at ``ctx``."""
    return NPUJob(
        duration=duration,
        commands=AddrRange(ctx, 64),
        io_pagetable=AddrRange(ctx + 512, 64),
        inputs=[AddrRange(ctx + 1024, 64)],
        outputs=[AddrRange(ctx + 1536, 64)],
    )


@given(
    jobs=st.lists(
        st.tuples(
            st.sampled_from([0, 1]),  # context
            st.floats(min_value=0.0005, max_value=0.02),  # duration
            st.floats(min_value=0.0, max_value=0.01),  # gap before submit
        ),
        min_size=2,
        max_size=12,
    ),
    drops=st.integers(min_value=0, max_value=4),
    drop_probability=st.floats(min_value=0.1, max_value=1.0),
    fault_seed=st.integers(min_value=0, max_value=2**16),
    victim=st.sampled_from([0, 1]),
)
@settings(max_examples=20, deadline=None)
def test_two_contexts_interleave_under_dropped_hand_offs(
    jobs, drops, drop_probability, fault_seed, victim
):
    """Each context submits its jobs one at a time, as a TA's prefill
    pipelines and decode stepper do, and the REE interleaves the two
    streams as it schedules them.  A dropped hand-off is re-issued in its
    own stream and every job completes; presenting a context's second job
    before its first still raises."""
    stack = make_stack()
    sim = stack.sim
    tee, ree = stack.tee_npu, stack.ree_npu
    spec = FaultSpec("ree.smc_drop", probability=drop_probability, max_fires=drops)
    FaultPlan(fault_seed, [spec]).injector(sim).arm(stack)
    contexts = (16 * MiB, 16 * MiB + 2048)

    def submitter(ctx, schedule):
        for duration, gap in schedule:
            if gap:
                yield sim.timeout(gap)
            yield from tee.submit_secure_job(
                context_job(ctx, duration), timeout=0.1, max_reissues=drops
            )

    runs = [
        sim.process(submitter(ctx, [(d, g) for c, d, g in jobs if c == i]))
        for i, ctx in enumerate(contexts)
    ]
    sim.run_until(sim.all_of(runs))
    assert tee.secure_jobs_completed == len(jobs)
    for i, ctx in enumerate(contexts):
        assert tee._exec_seq[ctx] == sum(1 for c, _d, _g in jobs if c == i)
    assert tee.reissues == ree.shadow_jobs_dropped
    assert stack.board.npu.jobs_faulted == 0
    assert stack.board.tzpc.device_world("npu") is N

    # Queue both contexts' jobs behind a long REE job, the victim's two
    # first, then reverse the queue: the other context's job runs, the
    # victim's second job is presented before its first and raises.
    tee.fault_injector = ree.fault_injector = None
    first, second = (tee.init_job(context_job(contexts[victim], 0.001)) for _ in range(2))
    other = tee.init_job(context_job(contexts[1 - victim], 0.001))

    def queue_then_reorder():
        ree.submit(nonsecure_job(0.05))
        for record in (first, second, other):
            yield from tee.issue_job(record)
        ree.attack_reorder_queue()

    sim.process(queue_then_reorder())
    with pytest.raises(IagoViolation, match="sequence"):
        sim.run()
    assert other.completion.triggered
    assert not first.completion.triggered
