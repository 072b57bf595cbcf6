"""Fixtures shared across test packages."""

import contextlib
from collections import Counter

import pytest

from repro.config import MiB, PAGE_SIZE, RK3588
from repro.errors import ConfigurationError, TZLLMError, WatchdogTimeout
from repro.faults import FaultPlan
from repro.hw import AddrRange, NPUJob, World
from repro.llm import Engine
from repro.sim import SimulationError, Simulator
from repro.stack import build_stack
from repro.workloads import MOBILENET_V1, NNAppRunner


def per_op_execute(self, graph):
    """``GraphExecutor.execute`` as per-operator stepping (generator).

    Every CPU operator takes the CPU, waits one timeout of its own
    duration and releases; every NPU operator goes through the backend.
    The executor's CPU runs must be indistinguishable from this loop,
    so the differential tests run it as the reference, either called
    directly or patched onto ``GraphExecutor.execute``.
    """
    for op in graph.ops:
        duration = self.op_time(op)
        if op.engine == Engine.CPU:
            request = self.cpu.request()
            yield request
            try:
                yield self.sim.timeout(duration)
                self.cpu_busy_time += duration
            finally:
                self.cpu.release(request)
        else:
            if self.npu_backend is None:
                raise ConfigurationError("graph has NPU ops but no NPU backend")
            start = self.sim.now
            busy0 = self.npu_backend.busy_time
            overhead0 = self.npu_backend.overhead_time
            yield from self.npu_backend.run(op, duration)
            self.npu_wait_time += self.sim.now - start
            self.npu_busy_time += self.npu_backend.busy_time - busy0
            self.npu_overhead_time += self.npu_backend.overhead_time - overhead0


@pytest.fixture(scope="session")
def per_op_reference():
    """The per-operator reference executor loop (see :func:`per_op_execute`)."""
    return per_op_execute


def per_step_advance(self, delay):
    """``Simulator.advance`` that never steps in place.

    Every fixed-latency step (an SMC's switch latency, a co-driver
    register write, an NPU job's run time, a CPU operator) then takes
    the queue as a timeout of its own, one event each: per-step
    stepping, the reference the in-place steps must be
    indistinguishable from.
    """
    if delay < 0:
        raise SimulationError("negative timeout delay: %r" % (delay,))
    return False


@pytest.fixture
def per_step_stepping(monkeypatch):
    """Context manager: inside it, :func:`per_step_advance` replaces
    ``Simulator.advance``."""

    @contextlib.contextmanager
    def patched():
        with monkeypatch.context() as patch:
            patch.setattr(Simulator, "advance", per_step_advance)
            yield

    return patched


@pytest.fixture
def advance_tally(monkeypatch):
    """Context manager: count ``Simulator.advance`` outcomes (True =
    taken in place, False = refused) without changing any of them."""
    original = Simulator.advance

    @contextlib.contextmanager
    def counting():
        tally = Counter()

        def advance(self, delay):
            taken = original(self, delay)
            tally[taken] += 1
            return taken

        with monkeypatch.context() as patch:
            patch.setattr(Simulator, "advance", advance)
            yield tally

    return counting


# ----------------------------------------------------------------------
# a co-driver mix: secure and REE jobs, a contender, faults, cut points
# ----------------------------------------------------------------------
_SECURE_BASE = 8 * MiB  # TZASC slot 0: the job contexts
_SECRET = _SECURE_BASE + 512 * PAGE_SIZE  # what the DMA attack aims at
#: watchdog timeout of the "watched" secure jobs.
_WATCHDOG_TIMEOUT = 6e-3


def _job(duration, base, tag, outputs_at=None):
    return NPUJob(
        duration=duration,
        commands=AddrRange(base, 64),
        io_pagetable=AddrRange(base + PAGE_SIZE, 64),
        inputs=[AddrRange(base + 2 * PAGE_SIZE, 128)],
        outputs=[AddrRange(base + 3 * PAGE_SIZE if outputs_at is None else outputs_at, 64)],
        tag=tag,
    )


def run_codriver_mix(
    items, contender=None, faults=(), fault_seed=0, reinit=False, attack=None, cuts=()
):
    """Run one mix on a fresh stack; return everything the in-place
    steps must not change.

    ``items`` are ``(kind, duration, gap)``: after ``gap`` seconds the
    driver process submits an REE job (``"ree"``, not awaited) or runs a
    secure job to completion (``"secure"``, or ``"watched"`` with the
    co-driver's watchdog armed).  ``contender`` is ``(start, seconds)``
    of an :class:`NNAppRunner`; ``faults`` are armed ``FaultSpec``s;
    ``reinit`` models the detach-attach switch; ``attack`` (``"ordered"``
    or ``"unsafe"``, the latter setting ``unsafe_skip_wait_idle``) opens
    with the in-flight DMA attack.  The run first waits with
    ``run_until`` for the event the driver process starts on, then
    pauses at each of ``cuts`` through ``run(until=...)``.
    """
    stack = build_stack(spec=RK3588.with_memory(64 * MiB), granule=MiB, os_footprint=0)
    sim, board, ree, tee = stack.sim, stack.board, stack.ree_npu, stack.tee_npu
    board.tzasc.configure(World.SECURE, 0, _SECURE_BASE, 4 * MiB)
    tee.allowed_slots = [0]
    tee.reinit_on_switch = reinit
    tee.unsafe_skip_wait_idle = attack == "unsafe"
    injector = FaultPlan(fault_seed, list(faults)).injector(sim).arm(stack) if faults else None
    launched = []
    launch = board.npu.launch

    def recording_launch(world, job):
        launched.append(job)
        return launch(world, job)

    board.npu.launch = recording_launch
    outcomes = []

    def secure(duration, timeout=None):
        try:
            yield from tee.submit_secure_job(
                _job(duration, _SECURE_BASE, "secure"), timeout=timeout
            )
            outcomes.append("done")
        except WatchdogTimeout:
            outcomes.append("timed out")

    def driver():
        yield gate
        if attack:
            # A compromised REE kernel MMIO-launches a job whose output
            # points at secure memory, then lets a secure job switch in.
            board.npu.launch(World.NONSECURE, _job(5e-3, 0, "evil", outputs_at=_SECRET))
            yield sim.timeout(1e-4)
            yield from secure(2e-3)
        if contender is not None:
            sim.process(nn_app(*contender))
        for kind, duration, gap in items:
            if gap:
                yield sim.timeout(gap)
            if kind == "ree":
                ree.submit(_job(duration, 0, "ree"))
            else:
                yield from secure(duration, _WATCHDOG_TIMEOUT if kind == "watched" else None)

    def nn_app(start, seconds):
        yield sim.timeout(start)
        runner = NNAppRunner(sim, RK3588, ree, MOBILENET_V1, AddrRange(MiB, 64 * 1024))
        yield from runner.run_for(seconds)

    def snapshot():
        return {
            "now": sim.now,
            "smc": (board.monitor.smc_count, board.monitor.smc_time),
            "switch": (tee.world_switch_time, tee.world_switches),
            "config_ops": (board.tzpc.config_ops, board.gic.config_ops, board.tzasc.config_ops),
            "irqs": (sorted((w.name, n) for w, n in board.gic.delivered.items()), board.gic.dropped),
            "recovery": (tee.reissues, tee.job_hangs, ree.scheduler_stalls, ree.shadow_jobs_dropped),
            "power_cycles": ree.power_cycles,
            "jobs": [(j.tag, j.job_id, j.launched_at, j.completed_at, j.faulted) for j in launched],
            "outcomes": list(outcomes),
        }

    sim.process(driver(), name="mix-driver")
    gate = sim.timeout(0.0)
    observed = {"cuts": []}
    try:
        sim.run_until(gate)
        observed["gate"] = snapshot()
        for cut in cuts:
            sim.run(until=cut)
            observed["cuts"].append(snapshot())
        sim.run()
    except (TZLLMError, SimulationError) as exc:  # a model failure must match too
        observed["raised"] = "%s: %s" % (type(exc).__name__, exc)
    observed["end"] = snapshot()
    observed["secret"] = board.memory.cpu_read(_SECRET, 64, World.SECURE)
    observed["faults"] = injector.summary() if injector is not None else None
    return observed


@pytest.fixture(scope="session")
def codriver_mix():
    """The co-driver mix runner (see :func:`run_codriver_mix`)."""
    return run_codriver_mix
