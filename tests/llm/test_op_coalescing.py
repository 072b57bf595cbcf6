"""Differential tests: CPU runs under one grant vs per-operator stepping.

``GraphExecutor.execute`` takes the CPU once per run of consecutive CPU
operators and steps each operator through ``Simulator.advance`` (in
place, or as a timeout of its own when an event is queued up to its
end), handing the CPU over at an operator boundary only when a
competing request is queued.  These tests run random CPU/NPU chains
against up to three contenders on a capacity-1 priority CPU, once with
the executor and once with the per-operator reference loop
(``per_op_reference``, see ``tests/conftest.py``), and require every
grant instant, the chain's end instant and the executor's busy-time
accumulators to match bit for bit.

The one behaviour the executor does not copy: an interrupt that reaches
the per-operator loop while it waits for its own immediate re-grant
leaves that grant held for good, while the executor, which keeps the
CPU across the boundary, releases it.  Nothing in the package
interrupts an executor.
"""

from itertools import accumulate

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import RK3588
from repro.llm import DirectNPUBackend, Engine, GraphExecutor, get_model
from repro.llm.graph import ComputationGraph, ComputeOp
from repro.sim import Event, Interrupt, Resource, Simulator

PLATFORM = RK3588
MODEL = get_model("tinyllama-1.1b-q8")
LAUNCH = PLATFORM.npu.job_launch_latency


def make_graph(ops):
    return ComputationGraph(
        MODEL,
        [
            ComputeOp(
                op_id=index,
                name="op%d" % index,
                engine=engine,
                layer=0,
                flops=flops,
                bytes_touched=bytes_touched,
                deps=[index - 1] if index else [],
            )
            for index, (engine, flops, bytes_touched) in enumerate(ops)
        ],
    )


def new_executor(sim):
    cpu = Resource(sim, capacity=1, priority=True, name="cpu")
    return GraphExecutor(sim, PLATFORM, cpu, DirectNPUBackend(sim, PLATFORM))


def uncontended_boundaries(executor, graph, start):
    """Each operator's end instant when nothing else wants the CPU."""
    steps = []
    for op in graph.ops:
        duration = executor.op_time(op)
        steps.append(duration if op.engine == Engine.CPU else LAUNCH + duration)
    return list(accumulate(steps, initial=start))[1:]


def event_at(sim, when):
    """An event dispatched at the absolute instant ``when``."""
    event = Event(sim)
    sim._schedule_at(when, event)
    return event


def run_scenario(execute, ops, contenders, start, interrupt_at):
    """Run one chain against ``contenders`` (arrival, priority, hold);
    return everything the two executors must agree on.  The executor
    requests the CPU at priority 0, so a contender's priority of -1, 0
    or 1 makes it more urgent, tied or less urgent."""
    sim = Simulator()
    executor = new_executor(sim)
    graph = make_graph(ops)
    boundaries = uncontended_boundaries(executor, graph, start)
    grants = [None] * len(contenders)
    marks = {"end": None}

    def contender(index, arrival, priority, hold):
        # The timer is set at t=0, before the executor's first request.
        if arrival[0] == "boundary":
            yield sim.timeout(boundaries[arrival[1] % len(boundaries)])
        elif arrival[0] == "chain":
            # Set inside an operator for its end instant, so queued behind
            # that operator's own timeout, and from there for the next end.
            k = arrival[1] % len(boundaries)
            yield sim.timeout(((boundaries[k - 1] if k else start) + boundaries[k]) / 2)
            for end in boundaries[k : k + 2]:
                yield event_at(sim, end)
        else:
            yield sim.timeout(arrival[1])
        request = executor.cpu.request(priority=priority)
        yield request
        grants[index] = sim.now
        yield sim.timeout(hold)
        executor.cpu.release(request)

    for index, (arrival, priority, hold) in enumerate(contenders):
        sim.process(contender(index, arrival, priority, hold))

    def run():
        yield sim.timeout(start)
        try:
            yield from execute(executor, graph)
        except Interrupt:
            pass
        marks["end"] = sim.now

    proc = sim.process(run())
    if interrupt_at is not None:

        def interrupter():
            yield sim.timeout(interrupt_at)
            if not proc.triggered:
                proc.interrupt("stop")

        sim.process(interrupter())
    sim.run()
    return {
        "grants": grants,
        "end": marks["end"],
        "drained_at": sim.now,
        "cpu_busy_time": executor.cpu_busy_time,
        "npu_wait_time": executor.npu_wait_time,
        "npu_busy_time": executor.npu_busy_time,
        "npu_overhead_time": executor.npu_overhead_time,
    }


def coalesced(executor, graph):
    return executor.execute(graph)


_OPS = st.lists(
    st.tuples(
        st.sampled_from((Engine.CPU, Engine.CPU, Engine.NPU)),
        st.floats(min_value=1e3, max_value=2e9),
        st.floats(min_value=1e3, max_value=2e8),
    ),
    min_size=1,
    max_size=12,
)
_ARRIVAL = st.one_of(
    st.tuples(st.just("boundary"), st.integers(min_value=0, max_value=11)),
    st.tuples(st.just("chain"), st.integers(min_value=0, max_value=11)),
    st.tuples(st.just("at"), st.floats(min_value=0.0, max_value=0.08)),
)
_CONTENDERS = st.lists(
    st.tuples(
        _ARRIVAL,
        st.sampled_from((-1, 0, 1)),
        st.floats(min_value=1e-6, max_value=0.02),
    ),
    max_size=3,
)


@settings(max_examples=400, deadline=None)
@given(
    ops=_OPS,
    contenders=_CONTENDERS,
    start=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.02)),
    interrupt_at=st.one_of(st.none(), st.floats(min_value=1e-7, max_value=0.08)),
)
def test_cpu_runs_match_per_op_stepping(per_op_reference, ops, contenders, start, interrupt_at):
    args = (ops, contenders, start, interrupt_at)
    assert run_scenario(coalesced, *args) == run_scenario(per_op_reference, *args)


# ----------------------------------------------------------------------
# the hand-over rules, one scenario each
# ----------------------------------------------------------------------
CPU_OPS = [(Engine.CPU, 1e9, 1e6)] * 4
OP_TIME = new_executor(Simulator()).op_time(make_graph(CPU_OPS).ops[0])


def test_uncontended_run_is_one_grant_and_one_wake(per_op_reference):
    results = {}
    for name, execute in (("run", coalesced), ("per_op", per_op_reference)):
        sim = Simulator()
        executor = new_executor(sim)
        sim.run_until(sim.process(execute(executor, make_graph(CPU_OPS * 10))))
        results[name] = (sim.now, executor.cpu_busy_time, sim.steps, executor.cpu.stats.grants)
    assert results["run"][:2] == results["per_op"][:2]
    # process start + grant (the one wake: every operator then runs in
    # place) + process end, against two events per op.
    assert results["run"][2] == 3
    assert results["per_op"][2] == 2 + 2 * 40
    assert results["run"][3] == 1


def test_run_ends_on_the_left_to_right_sum_of_op_times(per_op_reference):
    # From t=0.1, twelve of these operators end where a relative timeout
    # of (end - now) would land one ulp early.
    ops = CPU_OPS * 3
    args = (ops, [], 0.1, None)
    run = run_scenario(coalesced, *args)
    assert run == run_scenario(per_op_reference, *args)
    end = uncontended_boundaries(new_executor(Simulator()), make_graph(ops), 0.1)[-1]
    assert run["end"] == end
    assert 0.1 + (end - 0.1) != end


def test_request_queued_mid_run_cuts_at_next_boundary(per_op_reference):
    boundaries = list(accumulate([OP_TIME] * 4))
    arrival = (boundaries[0] + boundaries[1]) / 2
    contenders = [(("at", arrival), 1, 1e-3)]
    run = run_scenario(coalesced, CPU_OPS, contenders, 0.0, None)
    assert run == run_scenario(per_op_reference, CPU_OPS, contenders, 0.0, None)
    # Granted at the boundary that ends the operator in flight, even
    # though the executor has the better priority.
    assert run["grants"] == [boundaries[1]]


def test_request_queued_at_grant_gets_cpu_after_one_op(per_op_reference):
    # A holds the CPU from t=0; the executor and then B queue behind it.
    # When A releases the executor is first in line and is granted with
    # B already queued: B must get the CPU after one operator.
    contenders = [(("at", 0.0), 1, 5e-3), (("at", 1e-3), 1, 1e-3)]
    args = (CPU_OPS, contenders, 1e-4, None)
    run = run_scenario(coalesced, *args)
    assert run == run_scenario(per_op_reference, *args)
    assert run["grants"] == [0.0, 5e-3 + OP_TIME]


def test_timer_set_before_the_run_on_a_boundary_matches(per_op_reference):
    for k in range(len(CPU_OPS)):
        contenders = [(("boundary", k), 1, 1e-3)]
        args = (CPU_OPS, contenders, 0.0, None)
        assert run_scenario(coalesced, *args) == run_scenario(per_op_reference, *args)


def test_interrupt_mid_run_counts_only_finished_ops(per_op_reference):
    args = (CPU_OPS, [(("at", 0.0), 0, 1e-4)], 0.0, 1e-4 + 2.5 * OP_TIME)
    run = run_scenario(coalesced, *args)
    assert run == run_scenario(per_op_reference, *args)
    assert run["cpu_busy_time"] == OP_TIME + OP_TIME
    assert run["end"] == 1e-4 + 2.5 * OP_TIME


def test_interrupt_while_queued_for_the_cpu_matches(per_op_reference):
    # A holds the CPU from t=0; the executor queues behind it and is
    # interrupted before it is granted.
    args = (CPU_OPS, [(("at", 0.0), 0, 5e-3)], 1e-4, 1e-3)
    run = run_scenario(coalesced, *args)
    assert run == run_scenario(per_op_reference, *args)
    assert run["cpu_busy_time"] == 0.0
    assert run["end"] == 1e-3


def test_timer_inside_a_run_sends_only_its_operator_through_the_queue(
    per_op_reference, advance_tally
):
    """A timer that never asks for the CPU fires inside the third
    operator: that operator takes a timeout, the others run in place,
    and the timer and the run see what they see under per-op stepping."""
    boundaries = list(accumulate([OP_TIME] * 4))
    observed = {}
    for name, execute in (("run", coalesced), ("per_op", per_op_reference)):
        sim = Simulator()
        executor = new_executor(sim)
        seen = []
        timer = sim.timeout((boundaries[1] + boundaries[2]) / 2)
        timer.add_callback(lambda event: seen.append((sim.now, executor.cpu.count)))
        with advance_tally() as tally:
            sim.run_until(sim.process(execute(executor, make_graph(CPU_OPS))))
        observed[name] = (seen, sim.now, executor.cpu_busy_time)
        if name == "run":
            # Operator 3 as a timeout; operators 1, 2 and 4, and the
            # zero-length re-grant step after operator 3, in place.
            assert tally == {True: 4, False: 1}
    assert observed["run"] == observed["per_op"]
    assert observed["run"][:2] == ([((boundaries[1] + boundaries[2]) / 2, 1)], boundaries[3])


def test_boundary_landing_trigger_scheduled_mid_run_matches_per_op(per_op_reference):
    """A request whose trigger is scheduled *during* the run and lands
    exactly on an operator boundary waits one more operator, as under
    per-op stepping: the operator's own timeout for that instant was
    queued first, so the executor has re-taken the CPU for the next
    operator when the request is made."""
    grants = {}
    for name, execute in (("run", coalesced), ("per_op", per_op_reference)):
        sim = Simulator()
        executor = new_executor(sim)
        graph = make_graph(CPU_OPS)
        boundaries = uncontended_boundaries(executor, graph, 0.0)

        def contender():
            # Scheduled inside the second operator, for its end instant.
            yield sim.timeout((boundaries[0] + boundaries[1]) / 2)
            yield event_at(sim, boundaries[1])
            request = executor.cpu.request(priority=0)
            yield request
            grants[name] = sim.now
            executor.cpu.release(request)

        sim.process(execute(executor, graph))
        sim.process(contender())
        sim.run()
    assert grants["run"] == grants["per_op"] == boundaries[2]


def test_chain_from_a_boundary_trigger_to_the_next_boundary_matches_per_op(
    per_op_reference,
):
    """The trigger above, landing on the second operator's end behind
    that operator's timeout, sets a timer for exactly the third
    operator's end and requests the CPU there.  Per-op stepping re-takes
    the CPU through a grant dispatched after the trigger, so the timer
    is queued ahead of the third operator's timeout and the request is
    granted at that boundary; the executor waits behind the trigger the
    same way."""
    grants = {}
    for name, execute in (("run", coalesced), ("per_op", per_op_reference)):
        sim = Simulator()
        executor = new_executor(sim)
        graph = make_graph(CPU_OPS)
        boundaries = uncontended_boundaries(executor, graph, 0.0)

        def contender():
            yield sim.timeout((boundaries[0] + boundaries[1]) / 2)
            yield event_at(sim, boundaries[1])
            yield sim.timeout(executor.op_time(graph.ops[2]))
            request = executor.cpu.request(priority=0)
            yield request
            grants[name] = sim.now
            executor.cpu.release(request)

        sim.process(execute(executor, graph))
        sim.process(contender())
        sim.run()
    assert grants["run"] == grants["per_op"] == boundaries[2]
