"""Unit tests for the discrete-event simulator core."""

import pytest

from repro.sim import Event, Interrupt, ProcessLedger, SimulationError, Simulator


def test_timeout_advances_clock():
    sim = Simulator()
    fired = []

    def proc():
        yield sim.timeout(1.5)
        fired.append(sim.now)

    sim.process(proc())
    sim.run()
    assert fired == [1.5]
    assert sim.now == 1.5


def test_zero_delay_timeout_runs_in_order():
    sim = Simulator()
    order = []

    def first():
        yield sim.timeout(0)
        order.append("first")

    def second():
        yield sim.timeout(0)
        order.append("second")

    sim.process(first())
    sim.process(second())
    sim.run()
    assert order == ["first", "second"]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1)


def test_process_return_value_propagates():
    sim = Simulator()

    def child():
        yield sim.timeout(2)
        return 42

    def parent():
        value = yield sim.process(child())
        return value + 1

    proc = sim.process(parent())
    assert sim.run_until(proc) == 43
    assert sim.now == 2


def test_event_succeed_wakes_waiter_with_value():
    sim = Simulator()
    gate = sim.event()
    seen = []

    def waiter():
        value = yield gate
        seen.append((sim.now, value))

    def opener():
        yield sim.timeout(3)
        gate.succeed("open")

    sim.process(waiter())
    sim.process(opener())
    sim.run()
    assert seen == [(3.0, "open")]


def test_event_double_trigger_rejected():
    sim = Simulator()
    gate = sim.event()
    gate.succeed(1)
    with pytest.raises(SimulationError):
        gate.succeed(2)


def test_failed_event_raises_in_waiter():
    sim = Simulator()
    gate = sim.event()
    caught = []

    def waiter():
        try:
            yield gate
        except ValueError as exc:
            caught.append(str(exc))

    def failer():
        yield sim.timeout(1)
        gate.fail(ValueError("boom"))

    sim.process(waiter())
    sim.process(failer())
    sim.run()
    assert caught == ["boom"]


def test_unhandled_process_exception_surfaces():
    sim = Simulator()

    def broken():
        yield sim.timeout(1)
        raise RuntimeError("model bug")

    sim.process(broken())
    with pytest.raises(RuntimeError, match="model bug"):
        sim.run()


def test_waiting_on_failed_process_reraises():
    sim = Simulator()

    def broken():
        yield sim.timeout(1)
        raise RuntimeError("inner")

    def parent():
        try:
            yield sim.process(broken())
        except RuntimeError as exc:
            return "caught:%s" % exc

    proc = sim.process(parent())
    assert sim.run_until(proc) == "caught:inner"


def test_interrupt_raises_at_yield_point():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.timeout(100)
            log.append("finished")
        except Interrupt as exc:
            log.append(("interrupted", sim.now, exc.cause))

    def interrupter(target):
        yield sim.timeout(5)
        target.interrupt(cause="preempt")

    target = sim.process(sleeper())
    sim.process(interrupter(target))
    sim.run()
    assert log == [("interrupted", 5.0, "preempt")]
    # Draining the queue still consumes the stale (detached) timeout.
    assert sim.now == pytest.approx(100.0)


def test_interrupt_finished_process_rejected():
    sim = Simulator()

    def quick():
        yield sim.timeout(1)

    proc = sim.process(quick())
    sim.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_uncaught_interrupt_terminates_process_with_cause():
    sim = Simulator()

    def sleeper():
        yield sim.timeout(100)

    def interrupter(target):
        yield sim.timeout(2)
        target.interrupt(cause="killed")

    target = sim.process(sleeper())
    sim.process(interrupter(target))
    sim.run()
    assert target.triggered
    assert target.value == "killed"


def test_all_of_waits_for_every_event():
    sim = Simulator()
    times = []

    def proc():
        done = yield sim.all_of([sim.timeout(1, "a"), sim.timeout(4, "b"), sim.timeout(2, "c")])
        times.append((sim.now, sorted(done.values())))

    sim.process(proc())
    sim.run()
    assert times == [(4.0, ["a", "b", "c"])]


def test_all_of_with_a_processed_first_child_waits_for_the_rest():
    sim = Simulator()
    done = sim.timeout(0.5, "early")
    fired = []

    def proc():
        yield sim.timeout(0.5)
        assert done.processed
        values = yield sim.all_of([done, sim.timeout(1.0, "late")])
        fired.append((sim.now, sorted(values.values())))

    sim.process(proc())
    sim.run()
    assert fired == [(1.5, ["early", "late"])]


def test_any_of_fires_on_first():
    sim = Simulator()
    times = []

    def proc():
        done = yield sim.any_of([sim.timeout(3, "slow"), sim.timeout(1, "fast")])
        times.append((sim.now, list(done.values())))

    sim.process(proc())
    sim.run()
    assert times == [(1.0, ["fast"])]


def test_run_until_time_stops_midway():
    sim = Simulator()
    log = []

    def proc():
        yield sim.timeout(10)
        log.append("late")

    sim.process(proc())
    sim.run(until=5)
    assert log == []
    assert sim.now == 5.0
    sim.run()
    assert log == ["late"]


def test_run_until_event_deadlock_detected():
    sim = Simulator()
    gate = sim.event()

    def waiter():
        yield gate

    proc = sim.process(waiter())
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until(proc)


def test_yielding_non_event_is_an_error():
    sim = Simulator()

    def broken():
        yield 42

    sim.process(broken())
    with pytest.raises(SimulationError, match="non-event"):
        sim.run()


def test_determinism_same_schedule_twice():
    def build():
        sim = Simulator()
        log = []

        def worker(tag, delay):
            yield sim.timeout(delay)
            log.append((sim.now, tag))
            yield sim.timeout(delay)
            log.append((sim.now, tag))

        for index in range(10):
            sim.process(worker("w%d" % index, 0.5 + (index % 3)))
        sim.run()
        return log

    assert build() == build()


def test_nested_process_chain():
    sim = Simulator()

    def leaf(n):
        yield sim.timeout(n)
        return n

    def mid(n):
        value = yield sim.process(leaf(n))
        return value * 2

    def root():
        total = 0
        for n in (1, 2, 3):
            total += yield sim.process(mid(n))
        return total

    proc = sim.process(root())
    assert sim.run_until(proc) == 12
    assert sim.now == 6.0


def test_run_until_an_earlier_instant_is_rejected():
    sim = Simulator()
    sim.timeout(2.0)
    sim.run(until=1.0)
    with pytest.raises(SimulationError, match="before now"):
        sim.run(until=0.5)
    assert sim.now == 1.0
    # ``until == now`` is still a run that goes nowhere.
    sim.run(until=1.0)
    assert sim.now == 1.0
    sim.run()
    assert sim.now == 2.0


# ----------------------------------------------------------------------
# advance: a fixed-latency step in place
# ----------------------------------------------------------------------
def event_at(sim, when):
    """An event dispatched at the absolute instant ``when``."""
    event = Event(sim)
    sim._schedule_at(when, event)
    return event


def step_at(sim, start, delay, log):
    """A callback at ``start`` that tries ``advance(delay)``, logging
    the answer and the clock after it."""
    event_at(sim, start).add_callback(lambda event: log.append((sim.advance(delay), sim.now)))


def test_advance_refuses_a_queue_head_at_its_end():
    sim = Simulator()
    log = []
    step_at(sim, 0.5, 0.25, log)
    event_at(sim, 0.75)
    sim.run()
    # The timeout would tie with the queued event, and ties take the queue.
    assert log == [(False, 0.5)]


def test_advance_with_a_later_queue_head_is_bit_exact():
    sim = Simulator()
    log = []
    step_at(sim, 0.1, 0.2, log)
    event_at(sim, 0.5)
    sim.run()
    # Exactly where timeout(0.2) from 0.1 would have landed.
    assert 0.1 + 0.2 != 0.3
    assert log == [(True, 0.1 + 0.2)]
    assert sim.now == 0.5


def test_advance_refuses_a_step_past_run_until():
    sim = Simulator()
    log = []
    step_at(sim, 0.5, 0.1, log)
    step_at(sim, 0.5, 0.05, log)
    sim.run(until=0.58)
    assert log == [(False, 0.5), (True, 0.55)]
    assert sim.now == 0.58
    # The bound goes with the run.
    step_at(sim, 0.6, 0.1, log)
    sim.run()
    assert log[-1] == (True, 0.7)


def test_advance_refuses_a_second_callback_on_the_dispatched_event():
    sim = Simulator()
    log = []
    shared = sim.timeout(0.5)
    shared.add_callback(lambda event: log.append((sim.advance(0.1), sim.now)))
    shared.add_callback(lambda event: log.append(("second", sim.now)))
    step_at(sim, 1.0, 0.1, log)
    sim.run()
    assert log == [(False, 0.5), ("second", 0.5), (True, 1.1)]


def test_advance_refuses_the_dispatch_of_run_until_s_event():
    sim = Simulator()
    log = []
    awaited = sim.timeout(0.5)
    awaited.add_callback(lambda event: log.append((sim.advance(0.1), sim.now)))
    sim.run_until(awaited)
    assert log == [(False, 0.5)]
    assert sim.now == 0.5
    # Waiting for a later event, the same step runs in place.
    step_at(sim, 1.0, 0.1, log)
    sim.run_until(sim.timeout(2.0))
    assert log[-1] == (True, 1.1)


def test_advance_rejects_a_negative_delay_as_timeout_does():
    sim = Simulator()
    with pytest.raises(SimulationError, match="negative"):
        sim.advance(-1e-9)
    errors = []

    def body():
        try:
            sim.advance(-1.0)
        except SimulationError as exc:
            errors.append(str(exc))
        yield sim.timeout(0)

    sim.run_until(sim.process(body()))
    assert errors and "negative" in errors[0]


def test_advance_state_is_reset_on_every_exit_path():
    sim = Simulator()
    # Outside any dispatch there is no caller to continue in place.
    assert sim.advance(0.0) is False

    def boom(event):
        raise RuntimeError("callback failed")

    sim.timeout(0.1).add_callback(boom)
    with pytest.raises(RuntimeError):
        sim.run()
    assert sim.advance(0.0) is False
    # run(until=...) leaving early, and run_until failing, clear their marks.
    log = []
    awaited = sim.event()
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until(awaited)
    sim.timeout(1.0)
    sim.run(until=0.5)
    step_at(sim, 0.6, 0.2, log)
    awaited.add_callback(lambda event: log.append((sim.advance(0.05), sim.now)))
    awaited.succeed()
    sim.run()
    assert log == [(True, 0.5 + 0.05), (True, 0.6 + 0.2)]


def test_advance_from_a_plain_callback_counts_no_resume():
    sim = Simulator()
    sim.ledger = ProcessLedger()
    log = []
    step_at(sim, 0.5, 0.25, log)

    def body():
        yield sim.timeout(1.0)
        log.append((sim.advance(0.5), sim.now))

    sim.process(body(), name="body")
    sim.run()
    assert log == [(True, 0.75), (True, 1.5)]
    # Two resumes of the process (start and its one timeout), none for
    # either step in place.
    assert sim.ledger.to_dict()["body"]["resumes"] == 2
