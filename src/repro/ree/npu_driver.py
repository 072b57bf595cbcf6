"""The full-fledged REE NPU driver: the co-driver's control plane.

Owns everything the paper leaves in the REE (§4.3): the unified scheduling
queue for secure and non-secure jobs, device power management, and the
launch path for *non-secure* jobs.  Secure jobs appear here only as
*shadow jobs* — empty execution contexts that reserve a scheduling slot;
when one is scheduled the driver proactively hands the NPU to the TEE
driver with an ``smc`` and blocks until the TEE reports completion.

Being REE code, the driver is untrusted.  The attack helpers
(:meth:`attack_replay_take_over`, :meth:`attack_reorder_queue`,
:meth:`attack_forge_take_over`) let the security tests behave like a
compromised kernel; the TEE driver's checks must stop all of them.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Union

from ..hw.common import World
from ..hw.npu import NPU, NPUJob
from ..hw.platform import Board
from ..sim import Event, Simulator

__all__ = ["ShadowJob", "REENPUDriver"]


class ShadowJob:
    """Scheduling placeholder for a secure job (empty execution context)."""

    __slots__ = ("shadow_id", "seq")

    def __init__(self, shadow_id: int, seq: int):
        self.shadow_id = shadow_id
        self.seq = seq


class REENPUDriver:
    """The full NPU driver: unified queue, power, shadow-job hand-off."""

    #: idle time before the control plane powers the device down, and
    #: the cost of bringing it back up (regulator + clock ramp).
    IDLE_POWER_OFF_AFTER = 50e-3
    POWER_UP_TIME = 1.5e-3

    def __init__(self, sim: Simulator, board: Board, power_management: bool = True):
        self.sim = sim
        self.board = board
        self.npu: NPU = board.npu
        self.monitor = board.monitor
        self._queue: Deque[Union[NPUJob, ShadowJob]] = deque()
        self._completions: Dict[int, Event] = {}  # job_id -> completion
        self._wake: Optional[Event] = None
        self._running_done: Optional[Event] = None
        #: the item the scheduler has popped but not finished running —
        #: the governor must treat this window as activity (the device
        #: looks idle during the SMC hand-off, but a launch is imminent).
        self._in_flight: Optional[Union[NPUJob, ShadowJob]] = None
        self.power_management = power_management
        self.jobs_launched = 0
        self.shadow_jobs_forwarded = 0
        #: fault sites (repro.faults): ``ree.npu_stall`` stalls the
        #: scheduler before it runs an item; ``ree.smc_drop`` loses a
        #: shadow-job hand-off (the TEE watchdog must re-issue).
        self.fault_injector = None
        self.scheduler_stalls = 0
        self.shadow_jobs_dropped = 0
        self.power_cycles = 0
        self.power_up_time_total = 0.0
        #: observability attach points (repro.obs.instrument).
        self.metrics = None
        self.recorder = None
        self._last_activity = sim.now
        self._activity: Optional[Event] = None
        board.gic.attach_handler(World.NONSECURE, self.npu.irq, self._on_irq)
        self.monitor.register("ree.npu_submit_shadow", self._handle_submit_shadow)
        sim.process(self._scheduler(), name="ree-npu-scheduler")
        if power_management:
            sim.process(self._power_governor(), name="ree-npu-power")

    # ------------------------------------------------------------------
    # submission API
    # ------------------------------------------------------------------
    def submit(self, job: NPUJob) -> Event:
        """Enqueue a non-secure job; returns its completion event."""
        completion = self.sim.event()
        job.tag = job.tag or "ree"
        self._queue.append(job)
        self._completions[id(job)] = completion
        self._kick()
        return completion

    def _handle_submit_shadow(self, shadow_id: int, seq: int) -> int:
        """SMC from the TEE driver: enqueue a shadow job."""
        self._queue.append(ShadowJob(shadow_id, seq))
        self._kick()
        return shadow_id

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def _kick(self) -> None:
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()

    # ------------------------------------------------------------------
    # scheduler (unified queue, §4.3)
    # ------------------------------------------------------------------
    def _scheduler(self):
        while True:
            while not self._queue:
                self._wake = self.sim.event()
                yield self._wake
            yield from self._ensure_powered()
            item = self._queue.popleft()
            self._in_flight = item
            if self.fault_injector is not None:
                stall = self.fault_injector.stall_delay("ree.npu_stall")
                if stall > 0:
                    self.scheduler_stalls += 1
                    yield self.sim.timeout(stall)
            if isinstance(item, ShadowJob):
                yield from self._run_shadow(item)
            else:
                yield from self._run_nonsecure(item)
            self._in_flight = None
            self._last_activity = self.sim.now
            if (
                self.power_management
                and self._activity is not None
                and not self._activity.triggered
            ):
                self._activity.succeed()

    # ------------------------------------------------------------------
    # power management (control plane, §4.3 — stays in the REE)
    # ------------------------------------------------------------------
    def _ensure_powered(self):
        if not self.npu.powered:
            yield self.sim.timeout(self.POWER_UP_TIME)
            self.npu.set_power(True)
            self.power_cycles += 1
            self.power_up_time_total += self.POWER_UP_TIME

    def _power_governor(self):
        """Power the device down after a quiet period (a real driver's
        autosuspend).  The TEE data plane never has to know: shadow jobs
        wake the device through the same scheduler path.

        Activity-driven: between bursts the governor sleeps on an event,
        so an idle system's event queue really drains.
        """
        while True:
            self._activity = self.sim.event()
            yield self._activity
            while self.npu.powered:
                yield self.sim.timeout(self.IDLE_POWER_OFF_AFTER)
                idle_for = self.sim.now - self._last_activity
                if (
                    not self.npu.busy
                    and not self._queue
                    and self._in_flight is None
                    and idle_for >= self.IDLE_POWER_OFF_AFTER * 0.999
                ):
                    self.npu.set_power(False)

    def _run_nonsecure(self, job: NPUJob):
        done = self.sim.event()
        self._running_done = done
        self.npu.launch(World.NONSECURE, job)
        self.jobs_launched += 1
        yield done
        self._running_done = None
        completion = self._completions.pop(id(job), None)
        if completion is not None:
            completion.succeed(job)

    def _run_shadow(self, shadow: ShadowJob):
        """Hand the NPU to the TEE driver and wait for it to come back."""
        if self.fault_injector is not None and self.fault_injector.fires("ree.smc_drop"):
            # The hand-off SMC is lost (crashed driver thread, dropped
            # softirq).  The secure job never launches; the TEE watchdog
            # detects the missing completion and re-issues the shadow.
            self.shadow_jobs_dropped += 1
            return
        self.shadow_jobs_forwarded += 1
        t0 = self.sim.now
        yield from self.monitor.smc(
            World.NONSECURE, "tee.npu_take_over", shadow.shadow_id, shadow.seq
        )
        elapsed = self.sim.now - t0
        if self.metrics is not None:
            self.metrics.counter(
                "ree_npu_handoff_seconds_total",
                "Wall time the REE scheduler spent inside take-over SMCs",
            ).inc(elapsed)

    def _on_irq(self, irq: int, job: NPUJob) -> None:
        if self._running_done is not None and not self._running_done.triggered:
            self._running_done.succeed(job)

    # ------------------------------------------------------------------
    # attacks (compromised REE kernel)
    # ------------------------------------------------------------------
    def attack_replay_take_over(self, shadow_id: int, seq: int):
        """Re-issue a take-over for an already-completed secure job."""
        result = yield from self.monitor.smc(
            World.NONSECURE, "tee.npu_take_over", shadow_id, seq
        )
        return result

    def attack_forge_take_over(self, shadow_id: int, seq: int):
        """Issue a take-over for a job the TEE never initialized."""
        result = yield from self.monitor.smc(
            World.NONSECURE, "tee.npu_take_over", shadow_id, seq
        )
        return result

    def attack_reorder_queue(self) -> None:
        """Reverse the pending queue (violates secure-job ordering)."""
        self._queue.reverse()
