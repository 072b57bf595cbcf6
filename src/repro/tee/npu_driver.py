"""The TEE data-plane NPU co-driver (§4.3; ~1 kLoC in the prototype).

The minimal closure integrated into the TEE: initializing secure job
execution contexts, launching jobs over MMIO, and handling completion
interrupts.  Everything else (scheduling, power, frequency) is outsourced
to the untrusted REE control plane and *verified*:

* a take-over is accepted only for a job that was **initialized but not
  yet issued to the hardware** (blocks arbitrary-launch and replay);
* each job carries a monotonic sequence number checked against the
  execution counter of its *stream*, the job execution context the TEE
  chose (blocks reordering).  Jobs of different streams share no data:
  their order is scheduling, which §4.3 leaves to the REE;
* the secure-mode switch follows the paper's strict order — ❶ TZPC closes
  the NPU's MMIO to the REE and the GIC reroutes its interrupt, ❷ the
  driver waits for any in-flight non-secure job, ❸ only then does the
  TZASC open the job-context regions to the NPU.  Running steps out of
  order is possible via ``unsafe_skip_wait_idle`` so the security tests
  can demonstrate the DMA attack the ordering prevents.

The driver runs in TEE user mode: its only privileges are the NPU MMIO
mapping and the TZASC grants on the job-context regions it is given.
"""

from __future__ import annotations

import enum
import itertools
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set

from ..errors import IagoViolation, ProtocolError, WatchdogTimeout
from ..hw.common import World
from ..hw.npu import NPU, NPUJob
from ..hw.platform import Board
from ..sim import Event, Simulator
from .watchdog import ServiceWatchdog

__all__ = ["SecureJobState", "SecureJobRecord", "TEENPUDriver"]

#: stale-take-over SMC return code (graceful decline, not a violation).
TAKE_OVER_DECLINED = -1


class SecureJobState(enum.Enum):
    """Lifecycle of a secure NPU job (the replay-prevention state)."""

    INITIALIZED = "initialized"
    ISSUED = "issued"  # shadow job handed to the REE scheduler
    RUNNING = "running"
    DONE = "done"
    #: the watchdog gave up on this shadow hand-off (and re-issued the
    #: job under a new shadow id, or gave up on the job before it reached
    #: the device); a late take-over for it is declined.
    ABANDONED = "abandoned"


@dataclass
class SecureJobRecord:
    shadow_id: int
    #: the job's sequence stream: its execution context's address.
    stream: int
    seq: int
    job: NPUJob
    state: SecureJobState
    completion: Event


class TEENPUDriver:
    """The TEE data-plane co-driver: launch, verify, switch worlds."""

    def __init__(
        self,
        sim: Simulator,
        board: Board,
        allowed_slots: Optional[List[int]] = None,
        reinit_on_switch: bool = False,
    ):
        """``allowed_slots``: TZASC slots the NPU may access during secure
        jobs (the job-context regions of §4.2).  ``reinit_on_switch``
        models the rejected detach-attach design (32 ms per hand-off)."""
        self.sim = sim
        self.board = board
        self.npu: NPU = board.npu
        self.allowed_slots: List[int] = list(allowed_slots or [])
        self.reinit_on_switch = reinit_on_switch
        self._records: Dict[int, SecureJobRecord] = {}
        self._shadow_ids = itertools.count(1)
        #: per stream: the next sequence number to issue, the next one
        #: to execute, and the numbers past it that are done with (jobs
        #: abandoned before they reached the device).
        self._issue_seq: Dict[int, Iterator[int]] = defaultdict(itertools.count)
        self._exec_seq: Dict[int, int] = defaultdict(int)
        self._retired: Dict[int, Set[int]] = defaultdict(set)
        self._irq_done: Optional[Event] = None
        self.secure_jobs_completed = 0
        self.take_over_rejections = 0
        self.world_switch_time = 0.0
        self.world_switches = 0
        #: recovery machinery: the watchdog bounds every wait on the REE
        #: scheduler; re-issues stay on the same sequence number.
        self.watchdog = ServiceWatchdog(sim)
        self.reissues = 0
        self.stale_take_over_declines = 0
        #: fault site ``tee.job_hang`` (repro.faults): completion delayed
        #: after the IRQ (device-side hang).
        self.fault_injector = None
        self.job_hangs = 0
        #: observability attach points (repro.obs.instrument).
        self.metrics = None
        self.recorder = None
        #: attack/ablation switches
        self.unsafe_skip_wait_idle = False
        board.gic.attach_handler(World.SECURE, self.npu.irq, self._on_irq)
        board.monitor.register("tee.npu_take_over", self._handle_take_over)

    def _note_job(self, outcome: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                "tee_npu_jobs_total", "Secure NPU job outcomes at the co-driver"
            ).inc(outcome=outcome)

    def _note_switch(self, elapsed: float) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                "tee_npu_world_switch_seconds_total",
                "Wall time spent entering/leaving secure NPU mode",
            ).inc(elapsed)

    # ------------------------------------------------------------------
    # TA-facing API
    # ------------------------------------------------------------------
    def submit_secure_job(self, job: NPUJob, timeout: Optional[float] = None, max_reissues: int = 2):
        """Run ``job`` securely (generator; returns the completed job).

        Initializes the execution context, issues a paired shadow job to
        the REE scheduler, and waits for the take-over/completion cycle.

        With ``timeout`` set, the wait is watchdog-guarded: if the REE
        never presents the take-over (stalled scheduler, dropped SMC),
        the stale shadow is abandoned and the job re-issued — at the
        *same* sequence number, under a new shadow id — up to
        ``max_reissues`` times before :class:`WatchdogTimeout` surfaces.
        A job given up on before it reached the device is abandoned: a
        late take-over for it is declined, and its sequence number is
        retired so later jobs still pass the sequence check.  A job
        already ``RUNNING`` on the device is never re-issued; the
        watchdog keeps waiting (bounded) for its completion instead.
        """
        record = self.init_job(job)
        yield from self.issue_job(record)
        if timeout is None:
            yield record.completion
            return record.job
        reissues = 0
        # Bound RUNNING-state waits too, so a genuinely wedged device
        # cannot hang the simulated clock.
        patience = 2 * (max_reissues + 1)
        while True:
            ok, _value = yield from self.watchdog.guard(
                record.completion, timeout, "ree.npu_scheduler"
            )
            if ok:
                return record.job
            if self.metrics is not None:
                self.metrics.counter(
                    "tee_npu_watchdog_fires_total", "Watchdog expirations on REE waits"
                ).inc()
            if self.recorder is not None:
                self.recorder.record(
                    "retry", "tee.npu_watchdog", "watchdog fired on shadow hand-off",
                    shadow_id=record.shadow_id, seq=record.seq,
                    state=record.state.value, reissues=reissues,
                )
            if record.state is SecureJobState.ISSUED and reissues < max_reissues:
                reissues += 1
                record = self.reissue_job(record)
                yield from self.issue_job(record)
                continue
            if record.state is SecureJobState.RUNNING and patience > 0:
                patience -= 1  # on the device: a hang resolves, wait more
                continue
            error = WatchdogTimeout(
                "secure job %d (seq %d) incomplete after %d re-issues in state %s"
                % (record.shadow_id, record.seq, reissues, record.state.value)
            )
            if record.state is SecureJobState.ISSUED:
                record.state = SecureJobState.ABANDONED
                self._retire(record)
            raise error

    def init_job(self, job: NPUJob) -> SecureJobRecord:
        """Step 1: register the execution context (not yet schedulable);
        the job takes the next sequence number of its context's stream."""
        record = SecureJobRecord(
            shadow_id=next(self._shadow_ids),
            stream=job.commands.base,
            seq=next(self._issue_seq[job.commands.base]),
            job=job,
            state=SecureJobState.INITIALIZED,
            completion=self.sim.event(),
        )
        self._records[record.shadow_id] = record
        return record

    def issue_job(self, record: SecureJobRecord):
        """Step 2: hand the paired shadow job to the REE scheduler."""
        if record.state is not SecureJobState.INITIALIZED:
            raise ProtocolError("job %d issued twice" % record.shadow_id)
        record.state = SecureJobState.ISSUED
        yield from self.board.monitor.smc(
            World.SECURE, "ree.npu_submit_shadow", record.shadow_id, record.seq
        )

    def reissue_job(self, record: SecureJobRecord) -> SecureJobRecord:
        """Abandon a lost shadow hand-off; pair the job with a fresh one.

        Replay safety: the new record keeps the job's stream and
        *original* sequence number (the job never executed, so the
        stream's execution counter never advanced) and shares its
        completion event.  The abandoned shadow id stays registered so a
        late take-over for it is *declined* — while a replayed take-over
        for an executed (DONE) job still raises :class:`IagoViolation`
        exactly as before.
        """
        if record.state is not SecureJobState.ISSUED:
            raise ProtocolError(
                "cannot re-issue job %d in state %s"
                % (record.shadow_id, record.state.value)
            )
        record.state = SecureJobState.ABANDONED
        replacement = SecureJobRecord(
            shadow_id=next(self._shadow_ids),
            stream=record.stream,
            seq=record.seq,
            job=record.job,
            state=SecureJobState.INITIALIZED,
            completion=record.completion,
        )
        self._records[replacement.shadow_id] = replacement
        self.reissues += 1
        self._note_job("abandoned")
        return replacement

    # ------------------------------------------------------------------
    # take-over path (SMC handler, called by the REE scheduler)
    # ------------------------------------------------------------------
    def _handle_take_over(self, shadow_id: int, seq: int):
        record = self._records.get(shadow_id)
        if record is None:
            self.take_over_rejections += 1
            self._note_job("rejected")
            if self.recorder is not None:
                self.recorder.record(
                    "security", "tee.npu_take_over", "unknown shadow id",
                    shadow_id=shadow_id,
                )
            raise IagoViolation("take-over for unknown secure job %d" % shadow_id)
        if record.state is SecureJobState.ABANDONED:
            # Not an attack: the watchdog re-issued this job and a late
            # REE scheduler is presenting the stale shadow.  Decline
            # without launching anything — the replacement shadow (same
            # seq) drives the job.
            self.stale_take_over_declines += 1
            self._note_job("declined")
            return TAKE_OVER_DECLINED
        if record.state is not SecureJobState.ISSUED:
            self.take_over_rejections += 1
            self._note_job("rejected")
            if self.recorder is not None:
                self.recorder.record(
                    "security", "tee.npu_take_over", "replay or premature launch",
                    shadow_id=shadow_id, state=record.state.value,
                )
            raise IagoViolation(
                "take-over for job %d in state %s (replay or premature launch)"
                % (shadow_id, record.state.value)
            )
        expected = self._exec_seq[record.stream]
        if seq != record.seq or record.seq != expected:
            self.take_over_rejections += 1
            self._note_job("rejected")
            if self.recorder is not None:
                self.recorder.record(
                    "security", "tee.npu_take_over", "sequence check failed",
                    shadow_id=shadow_id, presented=seq, expected=expected,
                )
            raise IagoViolation(
                "sequence check failed: presented %d, record %d, expected %d"
                % (seq, record.seq, expected)
            )
        record.state = SecureJobState.RUNNING
        yield from self._enter_secure_mode()
        self._irq_done = self.sim.event()
        self.npu.launch(World.SECURE, record.job)
        completed = yield self._irq_done
        self._irq_done = None
        if self.fault_injector is not None:
            hang = self.fault_injector.stall_delay("tee.job_hang")
            if hang > 0:
                # Device-side hang: the job finished but the completion
                # path wedges for a while (the record stays RUNNING, so
                # the watchdog waits rather than re-issuing).
                self.job_hangs += 1
                if self.recorder is not None:
                    self.recorder.record(
                        "fault", "tee.job_hang", "completion path wedged",
                        shadow_id=shadow_id, stall=hang,
                    )
                yield self.sim.timeout(hang)
        yield from self._leave_secure_mode()
        self._retire(record)
        record.state = SecureJobState.DONE
        self.secure_jobs_completed += 1
        self._note_job("completed")
        record.completion.succeed(completed)
        return shadow_id

    def _retire(self, record: SecureJobRecord) -> None:
        """Mark ``record``'s number done with (run, or abandoned before it
        reached the device).  Its stream's execution counter then steps
        past every retired number in order: a job abandoned while an
        earlier one of its stream is still pending is skipped once that
        one has run."""
        retired = self._retired[record.stream]
        retired.add(record.seq)
        while self._exec_seq[record.stream] in retired:
            retired.remove(self._exec_seq[record.stream])
            self._exec_seq[record.stream] += 1

    def _on_irq(self, irq: int, job: NPUJob) -> None:
        if self._irq_done is not None and not self._irq_done.triggered:
            self._irq_done.succeed(job)

    # ------------------------------------------------------------------
    # secure-mode switching (ordering is the security argument)
    # ------------------------------------------------------------------
    def _enter_secure_mode(self):
        # Each step keeps its own instant; sim.advance takes it in place
        # when nothing is queued at or before its end.
        sim = self.sim
        tz = self.board.spec.trustzone
        start = sim.now
        if self.reinit_on_switch and not sim.advance(self.npu.spec.driver_reinit_time):
            yield sim.timeout(self.npu.spec.driver_reinit_time)
        # (1) Close the NPU's MMIO to the REE and reroute its interrupt:
        # no *new* non-secure job can be launched from here on.
        self.board.tzpc.set_secure(World.SECURE, self.npu.name, True)
        if not sim.advance(tz.tzpc_config_time):
            yield sim.timeout(tz.tzpc_config_time)
        self.board.gic.set_group(World.SECURE, self.npu.irq, World.SECURE)
        if not sim.advance(tz.gic_config_time):
            yield sim.timeout(tz.gic_config_time)
        if self.unsafe_skip_wait_idle:
            # WRONG ORDER (attack demo): grant the NPU access to secure
            # memory while a previously-launched non-secure job may still
            # be in flight — its DMA will land in secure memory.
            for slot in self.allowed_slots:
                self.board.tzasc.allow_device(World.SECURE, slot, self.npu.name)
            if not sim.advance(tz.tzasc_config_time):
                yield sim.timeout(tz.tzasc_config_time)
            if self.npu.busy or not sim.advance(0.0):
                yield self.npu.wait_idle()
        else:
            # (2) Drain any job the REE launched before we closed the door.
            if self.npu.busy or not sim.advance(0.0):
                yield self.npu.wait_idle()
            # (3) Only now open the job-context regions to the NPU.
            for slot in self.allowed_slots:
                self.board.tzasc.allow_device(World.SECURE, slot, self.npu.name)
            if not sim.advance(tz.tzasc_config_time):
                yield sim.timeout(tz.tzasc_config_time)
        elapsed = sim.now - start
        self.world_switch_time += elapsed
        self.world_switches += 1
        self._note_switch(elapsed)

    def _leave_secure_mode(self):
        sim = self.sim
        tz = self.board.spec.trustzone
        start = sim.now
        for slot in self.allowed_slots:
            self.board.tzasc.revoke_device(World.SECURE, slot, self.npu.name)
        if not sim.advance(tz.tzasc_config_time):
            yield sim.timeout(tz.tzasc_config_time)
        self.board.gic.set_group(World.SECURE, self.npu.irq, World.NONSECURE)
        if not sim.advance(tz.gic_config_time):
            yield sim.timeout(tz.gic_config_time)
        self.board.tzpc.set_secure(World.SECURE, self.npu.name, False)
        if not sim.advance(tz.tzpc_config_time):
            yield sim.timeout(tz.tzpc_config_time)
        if self.reinit_on_switch and not sim.advance(self.npu.spec.driver_reinit_time):
            yield sim.timeout(self.npu.spec.driver_reinit_time)
        elapsed = sim.now - start
        self.world_switch_time += elapsed
        self._note_switch(elapsed)
