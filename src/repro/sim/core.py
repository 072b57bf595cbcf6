"""Discrete-event simulation core.

This module implements a small, deterministic, generator-based
discrete-event simulator in the style of SimPy.  Every other subsystem in
the TZ-LLM reproduction (hardware devices, OS kernels, the inference
pipeline) is expressed as :class:`Process` coroutines that yield *events*
(timeouts, resource grants, completions of other processes) and are resumed
by the :class:`Simulator` when those events trigger.

Design notes
------------
* Determinism: the event queue breaks time ties with a monotonically
  increasing sequence number, so two runs of the same model produce the
  same schedule.  No wall-clock time is consulted anywhere.
* Time is a ``float`` in *seconds* of simulated time.
* Failure propagation: an event may *fail* with an exception; a process
  waiting on it has the exception thrown into its generator at the yield
  point, so ordinary ``try/except`` works across simulated waits.
* Interrupts: a process can be interrupted from the outside (used by the
  preemptive pipeline scheduler), which raises :class:`Interrupt` inside
  the generator at its current yield point.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "ProcessLedger",
    "Interrupt",
    "SimulationError",
    "Simulator",
    "AllOf",
    "AnyOf",
]


class ProcessLedger:
    """Lightweight per-process activity accounting (opt-in).

    Enable by setting ``sim.ledger = ProcessLedger()`` before spawning
    processes; the default (``None``) costs one attribute read per
    process step.  Rows aggregate by process *name* — many short-lived
    processes share a name (``pipeline-io``, ``serve-r7``) and what a
    profiler wants is "how much scheduler activity did each role see",
    not a row per instance.  Resumes happen at instants of virtual time,
    so the ledger counts events and tracks lifetimes rather than
    pretending processes burn wall time between yields.
    """

    __slots__ = ("_rows",)

    def __init__(self):
        self._rows = {}

    def _row(self, name):
        row = self._rows.get(name)
        if row is None:
            row = self._rows[name] = {
                "spawned": 0,
                "resumes": 0,
                "finished": 0,
                "failed": 0,
                "first_spawn_at": None,
                "last_finish_at": None,
                "lifetime": 0.0,
            }
        return row

    def note_spawn(self, process: "Process", at: float) -> None:
        row = self._row(process.name)
        row["spawned"] += 1
        if row["first_spawn_at"] is None:
            row["first_spawn_at"] = at
        process._spawned_at = at

    def note_resume(self, process: "Process", at: float) -> None:
        self._row(process.name)["resumes"] += 1

    def note_finish(self, process: "Process", at: float, failed: bool = False) -> None:
        row = self._row(process.name)
        row["finished"] += 1
        if failed:
            row["failed"] += 1
        row["last_finish_at"] = at
        spawned_at = getattr(process, "_spawned_at", None)
        if spawned_at is not None:
            row["lifetime"] += at - spawned_at

    # ------------------------------------------------------------------
    def rows(self):
        """(name, row) pairs sorted by name — deterministic export."""
        return sorted(self._rows.items())

    def to_dict(self):
        return {name: dict(row) for name, row in self.rows()}

    def render(self):
        lines = ["%-28s %8s %8s %8s %12s" % ("process", "spawned", "resumes", "done", "lifetime")]
        for name, row in self.rows():
            lines.append(
                "%-28s %8d %8d %8d %12.6f"
                % (name, row["spawned"], row["resumes"], row["finished"], row["lifetime"])
            )
        return "\n".join(lines)


class SimulationError(Exception):
    """Raised for misuse of the simulation API (not model-level errors)."""


class Interrupt(Exception):
    """Thrown into a process that has been interrupted.

    ``cause`` carries an arbitrary, caller-supplied payload describing why
    the interrupt happened (e.g. "preempted-by-compute").
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*, becomes *triggered* when :meth:`succeed` or
    :meth:`fail` is called, and is then *processed* by the simulator, which
    runs its callbacks (resuming any processes waiting on it).
    """

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._triggered = False

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if not self._triggered:
            raise SimulationError("event not yet triggered")
        return self._exception is None

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event not yet triggered")
        if self._exception is not None:
            raise self._exception
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        self.sim._post(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Any process waiting on this event has ``exception`` raised at its
        yield point.
        """
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._triggered = True
        self._exception = exception
        # Mark handled pre-emptively; re-raised when a waiter observes it.
        self.sim._post(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed.

        If the event has already been processed the callback runs
        immediately (still inside simulated time ``sim.now``).
        """
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self._triggered else "pending"
        return "<%s %s at t=%.9g>" % (type(self).__name__, state, self.sim.now)


class Timeout(Event):
    """An event that triggers ``delay`` seconds after its creation."""

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError("negative timeout delay: %r" % (delay,))
        super().__init__(sim)
        self._delay = delay
        self._value = value
        sim._schedule_at(sim.now + delay, self)

    @property
    def delay(self) -> float:
        return self._delay


class _Initialize(Event):
    """Internal event that starts a new process on the next step."""

    def __init__(self, sim: "Simulator", process: "Process"):
        super().__init__(sim)
        self._value = None
        self.callbacks.append(process._resume)
        sim._schedule_at(sim.now, self)


class Process(Event):
    """A running coroutine; also an event that triggers on completion.

    The wrapped generator yields :class:`Event` instances.  When a yielded
    event triggers, the generator is resumed with the event's value (or the
    event's exception is thrown in).  The value of a ``return`` statement
    becomes the process's own event value.
    """

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise SimulationError("process requires a generator, got %r" % (generator,))
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None
        if sim.ledger is not None:
            sim.ledger.note_spawn(self, sim.now)
        _Initialize(sim, self)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its yield point."""
        if self._triggered:
            raise SimulationError("cannot interrupt a finished process")
        if self is self.sim.active_process:
            raise SimulationError("a process cannot interrupt itself")
        event = Event(self.sim)
        event._interrupt_target = self  # type: ignore[attr-defined]
        event.callbacks.append(self._deliver_interrupt)
        event._interrupt_cause = cause  # type: ignore[attr-defined]
        self.sim._schedule_at(self.sim.now, event, urgent=True)

    def _deliver_interrupt(self, event: Event) -> None:
        if self._triggered:
            return  # finished in the meantime; interrupt is a no-op
        cause = getattr(event, "_interrupt_cause", None)
        # Detach from whatever we were waiting for.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        self._step(Interrupt(cause), throw=True)

    def _resume(self, event: Event) -> None:
        self._target = None
        if event._exception is not None:
            self._step(event._exception, throw=True)
        else:
            self._step(event._value, throw=False)

    def _step(self, payload: Any, throw: bool) -> None:
        sim = self.sim
        previous = sim.active_process
        sim.active_process = self
        if sim.ledger is not None:
            sim.ledger.note_resume(self, sim.now)
        try:
            if throw:
                target = self._generator.throw(payload)
            else:
                target = self._generator.send(payload)
        except StopIteration as stop:
            sim.active_process = previous
            if sim.ledger is not None:
                sim.ledger.note_finish(self, sim.now)
            self.succeed(getattr(stop, "value", None))
            return
        except Interrupt as exc:
            # An un-caught interrupt terminates the process "successfully"
            # with the interrupt cause; this keeps preemption non-fatal.
            sim.active_process = previous
            if sim.ledger is not None:
                sim.ledger.note_finish(self, sim.now)
            self.succeed(exc.cause)
            return
        except BaseException as exc:
            sim.active_process = previous
            if sim.ledger is not None:
                sim.ledger.note_finish(self, sim.now, failed=True)
            self.fail(exc)
            return
        sim.active_process = previous
        if not isinstance(target, Event):
            self._step(
                SimulationError("process %r yielded non-event %r" % (self.name, target)),
                throw=True,
            )
            return
        if target.sim is not sim:
            self._step(SimulationError("yielded event from another simulator"), throw=True)
            return
        self._target = target
        target.add_callback(self._resume)


class _Condition(Event):
    """Base for AllOf / AnyOf composite events."""

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._events = list(events)
        for event in self._events:
            if event.sim is not sim:
                raise SimulationError("condition mixes simulators")
        # Count every child before adding any callback: a child already
        # processed runs its callback at once.
        self._pending = len(self._events)
        if not self._events:
            self.succeed({})
            return
        for event in self._events:
            event.add_callback(self._check)

    def _collect(self) -> dict:
        return {
            index: event._value
            for index, event in enumerate(self._events)
            if event.triggered and event._exception is None
        }

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Triggers when every child event has triggered (fails fast on error)."""

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if event._exception is not None:
            self.fail(event._exception)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Triggers as soon as one child event triggers."""

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if event._exception is not None:
            self.fail(event._exception)
            return
        self.succeed(self._collect())


class Simulator:
    """The event loop: a priority queue of (time, priority, seq, event)."""

    #: queue priorities — urgent events (interrupt delivery) run before
    #: normal events scheduled for the same instant.
    _URGENT = 0
    _NORMAL = 1

    def __init__(self):
        self._now = 0.0
        self._queue: List = []
        self._seq = itertools.count()
        self.active_process: Optional[Process] = None
        self._step_count = 0
        #: opt-in process-activity ledger (see :class:`ProcessLedger`);
        #: ``None`` keeps process stepping on the fast path.
        self.ledger: Optional[ProcessLedger] = None
        #: what :meth:`advance` checks: whether the event being dispatched
        #: has a sole callback, the event :meth:`run_until` waits for, and
        #: the ``until`` of :meth:`run`.
        self._in_place = False
        self._awaited: Optional[Event] = None
        self._horizon = math.inf

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    @property
    def steps(self) -> int:
        """Number of events processed so far (useful for loop guards)."""
        return self._step_count

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def advance(self, delay: float) -> bool:
        """Take a ``delay`` step in place when no event could come between.

        Returns True after moving ``now`` to ``now + delay``, or False
        with nothing changed; the caller then yields ``timeout(delay)``.
        True needs all of: the running code is the sole callback of the
        event being dispatched, that event is not the one
        :meth:`run_until` waits for, the step ends within
        ``run(until=...)``, and every queued event lies strictly later
        than ``now + delay``.  The timeout would then be the very next
        event dispatched, so every later action keeps its instant and
        its order; a same-instant tie always takes the queue.  Call it
        only where the caller's continuation is all that runs before
        control returns to the event loop: a process body, or a plain
        callback's last act.
        """
        if delay < 0:
            raise SimulationError("negative timeout delay: %r" % (delay,))
        if not self._in_place:
            return False
        when = self._now + delay
        if when > self._horizon or (self._queue and self._queue[0][0] <= when):
            return False
        self._now = when
        return True

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def run(self, until: Optional[float] = None, max_steps: int = 50_000_000) -> None:
        """Run until the queue drains, or simulated time reaches ``until``.

        ``until`` earlier than ``now`` raises :class:`SimulationError`
        (the clock never goes back).  ``max_steps`` guards against
        accidental infinite event loops in model code; exceeding it
        raises :class:`SimulationError`.
        """
        if until is not None and until < self._now:
            raise SimulationError("run(until=%r) is before now (%r)" % (until, self._now))
        steps = 0
        self._horizon = math.inf if until is None else until
        try:
            while self._queue:
                if self._queue[0][0] > self._horizon:
                    self._now = until
                    return
                self._dispatch()
                steps += 1
                if steps > max_steps:
                    raise SimulationError("exceeded max_steps=%d" % max_steps)
        finally:
            self._horizon = math.inf
            self._in_place = False
        if until is not None and until > self._now:
            self._now = until

    def run_until(self, event: Event, max_steps: int = 50_000_000) -> Any:
        """Run until ``event`` has been processed; return its value."""
        steps = 0
        self._awaited = event
        try:
            while not event.processed:
                if not self._queue:
                    raise SimulationError("deadlock: event queue empty but %r pending" % event)
                self._dispatch()
                steps += 1
                if steps > max_steps:
                    raise SimulationError("exceeded max_steps=%d" % max_steps)
        finally:
            self._awaited = None
            self._in_place = False
        return event.value

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _schedule_at(self, when: float, event: Event, urgent: bool = False) -> None:
        priority = self._URGENT if urgent else self._NORMAL
        heapq.heappush(self._queue, (when, priority, next(self._seq), event))

    def _post(self, event: Event) -> None:
        """Schedule an already-triggered event for immediate processing."""
        self._schedule_at(self._now, event)

    def _dispatch(self) -> None:
        when, _priority, _seq, event = heapq.heappop(self._queue)
        if when < self._now - 1e-12:
            raise SimulationError("time went backwards")
        self._now = max(self._now, when)
        self._step_count += 1
        event._triggered = True
        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:
            return  # already processed (e.g. cancelled timeout)
        # Stays set until the next dispatch: only the event loop runs
        # between two, and run/run_until clear it when they return.
        self._in_place = len(callbacks) == 1 and event is not self._awaited
        for callback in callbacks:
            callback(event)
        if event._exception is not None and isinstance(event, Process):
            # A process failing with nobody waiting is a real model bug:
            # surface it instead of swallowing it.
            if not callbacks:
                raise event._exception
