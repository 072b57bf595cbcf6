"""Tests for TEE-REE NPU time-sharing: the co-driver protocol (§4.3)."""

import pytest

from repro.config import MiB, PAGE_SIZE, RK3588
from repro.errors import IagoViolation, WatchdogTimeout
from repro.faults import FaultPlan, FaultSpec
from repro.hw import AddrRange, NPUJob, World
from repro.stack import build_stack
from repro.tee.npu_driver import TAKE_OVER_DECLINED, SecureJobState

PG = PAGE_SIZE
S = World.SECURE
N = World.NONSECURE


@pytest.fixture
def stack():
    stack = build_stack(spec=RK3588.with_memory(64 * MiB), granule=MiB, os_footprint=0)
    # One secure TZASC region holds the job contexts (slot 0).
    stack.board.tzasc.configure(S, 0, 8 * MiB, 4 * MiB)
    stack.tee_npu.allowed_slots = [0]
    return stack


def secure_job(duration=0.01, base=8 * MiB):
    return NPUJob(
        duration=duration,
        commands=AddrRange(base, 64),
        io_pagetable=AddrRange(base + PG, 64),
        inputs=[AddrRange(base + 2 * PG, 256)],
        outputs=[AddrRange(base + 3 * PG, 64)],
        tag="secure",
    )


def nonsecure_job(duration=0.01, base=0):
    return NPUJob(
        duration=duration,
        commands=AddrRange(base, 64),
        io_pagetable=AddrRange(base + PG, 64),
        inputs=[AddrRange(base + 2 * PG, 128)],
        outputs=[AddrRange(base + 3 * PG, 64)],
        tag="ree",
    )


def test_secure_job_completes_through_shadow_scheduling(stack):
    sim = stack.sim
    stack.board.memory.cpu_write(8 * MiB + 2 * PG, b"secure-input", S)

    def run():
        job = yield from stack.tee_npu.submit_secure_job(secure_job())
        return job

    proc = sim.process(run())
    job = sim.run_until(proc)
    assert job.faulted is None
    assert stack.tee_npu.secure_jobs_completed == 1
    assert stack.ree_npu.shadow_jobs_forwarded == 1
    # Output landed inside the secure region (written via granted DMA).
    out = stack.board.memory.cpu_read(8 * MiB + 3 * PG, 64, S)
    assert out != b"\x00" * 64
    # After completion the grant is revoked and the NPU is non-secure.
    assert stack.board.tzpc.device_world("npu") is N
    assert stack.board.gic.line_world(stack.board.npu.irq) is N
    assert stack.board.tzasc.region(0).allowed_devices == set()


def test_secure_and_nonsecure_jobs_share_one_queue(stack):
    sim = stack.sim
    finished = []

    def ree_app():
        done = stack.ree_npu.submit(nonsecure_job(duration=0.05))
        yield done
        finished.append(("ree", sim.now))

    def tee_app():
        yield sim.timeout(0.001)
        yield from stack.tee_npu.submit_secure_job(secure_job(duration=0.05))
        finished.append(("tee", sim.now))

    sim.process(ree_app())
    sim.process(tee_app())
    sim.run()
    assert [tag for tag, _ in finished] == ["ree", "tee"]
    # The secure job waited for the non-secure one (single NPU).
    assert finished[1][1] > finished[0][1]


def test_replay_attack_rejected(stack):
    sim = stack.sim

    def run_then_replay():
        record = stack.tee_npu.init_job(secure_job())
        yield from stack.tee_npu.issue_job(record)
        yield record.completion
        # Compromised REE replays the completed take-over verbatim.
        yield from stack.ree_npu.attack_replay_take_over(record.shadow_id, record.seq)

    proc = sim.process(run_then_replay())
    with pytest.raises(IagoViolation, match="replay|state"):
        sim.run_until(proc)
    assert stack.tee_npu.take_over_rejections == 1
    assert stack.tee_npu.secure_jobs_completed == 1


def test_forged_take_over_for_unknown_job_rejected(stack):
    sim = stack.sim

    def forge():
        yield from stack.ree_npu.attack_forge_take_over(999, 0)

    proc = sim.process(forge())
    with pytest.raises(IagoViolation, match="unknown"):
        sim.run_until(proc)


def test_premature_take_over_before_issue_rejected(stack):
    sim = stack.sim
    record = stack.tee_npu.init_job(secure_job())

    def premature():
        yield from stack.ree_npu.attack_forge_take_over(record.shadow_id, record.seq)

    proc = sim.process(premature())
    with pytest.raises(IagoViolation, match="state"):
        sim.run_until(proc)


def test_reorder_attack_rejected_by_sequence_numbers(stack):
    sim = stack.sim

    def reorder():
        first = stack.tee_npu.init_job(secure_job())
        second = stack.tee_npu.init_job(secure_job())
        # Issue both shadow jobs while the NPU chews on a long REE job,
        # so they sit in the queue together...
        stack.ree_npu.submit(nonsecure_job(duration=0.1))
        yield from stack.tee_npu.issue_job(first)
        yield from stack.tee_npu.issue_job(second)
        # ...then the compromised kernel swaps them.
        stack.ree_npu.attack_reorder_queue()
        yield first.completion

    proc = sim.process(reorder())
    with pytest.raises(IagoViolation, match="sequence"):
        sim.run()
    assert stack.tee_npu.take_over_rejections == 1


def test_switch_ordering_prevents_inflight_dma_attack(stack):
    """The paper's step-ordering argument, demonstrated both ways.

    A compromised REE kernel MMIO-launches a job (bypassing its own
    driver queue) whose *output* points at secure memory, then schedules
    a secure job.  With the correct switch order the TEE driver waits for
    the in-flight job before granting the NPU TZASC access, so the
    malicious DMA faults.  With the grant issued before the drain
    (unsafe), the malicious write lands in secure memory.
    """
    sim = stack.sim
    secret_addr = 8 * MiB + 512 * PG  # inside the secure region
    evil = NPUJob(
        duration=0.05,
        commands=AddrRange(0, 64),
        io_pagetable=AddrRange(PG, 64),
        inputs=[AddrRange(2 * PG, 64)],
        outputs=[AddrRange(secret_addr, 64)],
        tag="evil",
    )

    def attack():
        stack.board.npu.launch(N, evil)  # direct MMIO, not the queue
        yield sim.timeout(1e-4)  # evil job is now in flight
        yield from stack.tee_npu.submit_secure_job(secure_job(duration=0.01))

    proc = sim.process(attack())
    sim.run_until(proc)
    assert evil.faulted is not None and evil.faulted.startswith("output:")
    assert stack.board.memory.cpu_read(secret_addr, 64, S) == b"\x00" * 64


def test_switch_ordering_violation_enables_the_attack(stack):
    """Negative control: skipping the wait really leaks (model sanity)."""
    sim = stack.sim
    stack.tee_npu.unsafe_skip_wait_idle = True
    secret_addr = 8 * MiB + 512 * PG
    evil = NPUJob(
        duration=0.05,
        commands=AddrRange(0, 64),
        io_pagetable=AddrRange(PG, 64),
        inputs=[AddrRange(2 * PG, 64)],
        outputs=[AddrRange(secret_addr, 64)],
        tag="evil",
    )

    def attack():
        stack.board.npu.launch(N, evil)  # direct MMIO, not the queue
        yield sim.timeout(1e-4)
        yield from stack.tee_npu.submit_secure_job(secure_job(duration=0.2))

    proc = sim.process(attack())
    sim.run_until(proc)
    # The malicious in-flight job completed while the NPU held the TZASC
    # grant: its DMA landed in secure memory.
    assert evil.faulted is None
    assert stack.board.memory.cpu_read(secret_addr, 64, S) != b"\x00" * 64


def test_world_switch_overhead_accounted(stack):
    sim = stack.sim

    def run():
        yield from stack.tee_npu.submit_secure_job(secure_job())

    proc = sim.process(run())
    sim.run_until(proc)
    tz = stack.spec.trustzone
    expected_min = 2 * (tz.tzpc_config_time + tz.gic_config_time + tz.tzasc_config_time)
    assert stack.tee_npu.world_switches == 1
    assert stack.tee_npu.world_switch_time >= expected_min * 0.999


def test_reinit_on_switch_costs_driver_reinit(stack):
    sim = stack.sim
    stack.tee_npu.reinit_on_switch = True

    def run():
        yield from stack.tee_npu.submit_secure_job(secure_job(duration=0.0))

    proc = sim.process(run())
    sim.run_until(proc)
    assert stack.tee_npu.world_switch_time >= 2 * stack.spec.npu.driver_reinit_time


def test_nonsecure_job_after_secure_one_still_works(stack):
    sim = stack.sim
    results = []

    def sequence():
        yield from stack.tee_npu.submit_secure_job(secure_job())
        done = stack.ree_npu.submit(nonsecure_job())
        job = yield done
        results.append(job)

    proc = sim.process(sequence())
    sim.run_until(proc)
    assert results[0].faulted is None
    assert stack.board.npu.jobs_completed == 2


def test_job_abandoned_before_the_device_does_not_wedge_the_sequence_check(stack):
    """Job A loses every shadow hand-off, so the watchdog gives up on it
    before it reaches the device.  Its sequence number is retired: job B
    still passes the sequence check, and A's late take-over is declined,
    while a replayed take-over and one ahead of the execution counter
    still raise."""
    sim = stack.sim
    tee, ree = stack.tee_npu, stack.ree_npu
    plan = FaultPlan(0, [FaultSpec("ree.smc_drop", probability=1.0, max_fires=3)])
    plan.injector(sim).arm(stack)
    outcomes = []

    def a_then_b():
        try:
            yield from tee.submit_secure_job(secure_job(), timeout=0.05, max_reissues=2)
        except WatchdogTimeout:
            outcomes.append("A timed out")
        yield from tee.submit_secure_job(secure_job())
        outcomes.append("B done")

    sim.run_until(sim.process(a_then_b()))
    assert outcomes == ["A timed out", "B done"]
    assert ree.shadow_jobs_dropped == 3
    a = max((r for r in tee._records.values() if r.seq == 0), key=lambda r: r.shadow_id)
    b = next(r for r in tee._records.values() if r.seq == 1)
    assert a.state is SecureJobState.ABANDONED
    assert b.state is SecureJobState.DONE

    def take_over(record):
        return sim.process(ree.attack_replay_take_over(record.shadow_id, record.seq))

    assert sim.run_until(take_over(a)) == TAKE_OVER_DECLINED
    with pytest.raises(IagoViolation, match="state"):
        sim.run_until(take_over(b))
    # Two jobs queued behind a long REE job; presenting the second first
    # is still out of order.
    first, second = tee.init_job(secure_job()), tee.init_job(secure_job())

    def issue_both():
        ree.submit(nonsecure_job(duration=0.1))
        yield from tee.issue_job(first)
        yield from tee.issue_job(second)

    sim.run_until(sim.process(issue_both()))
    with pytest.raises(IagoViolation, match="presented 3, record 3, expected 2"):
        sim.run_until(take_over(second))
    assert tee.secure_jobs_completed == 1


def test_job_abandoned_behind_a_pending_one_is_skipped_once_that_one_runs(stack):
    """Two secure jobs wait behind a long REE job; the later one's
    watchdog gives up on it first.  The earlier job still runs, the
    abandoned one never does, and the next job passes the sequence
    check."""
    sim = stack.sim
    tee, ree = stack.tee_npu, stack.ree_npu
    log = []

    def earlier():
        yield from tee.submit_secure_job(secure_job())
        log.append("earlier")

    def later():
        try:
            yield from tee.submit_secure_job(secure_job(), timeout=0.01, max_reissues=1)
        except WatchdogTimeout:
            log.append("later timed out")

    def run():
        ree.submit(nonsecure_job(duration=0.1))
        yield sim.all_of([sim.process(earlier()), sim.process(later())])
        yield from tee.submit_secure_job(secure_job())
        log.append("next")

    sim.run_until(sim.process(run()))
    assert log == ["later timed out", "earlier", "next"]
    assert tee.secure_jobs_completed == 2
    assert tee.stale_take_over_declines == 2
    assert all(
        r.state is (SecureJobState.ABANDONED if r.seq == 1 else SecureJobState.DONE)
        for r in tee._records.values()
    )
