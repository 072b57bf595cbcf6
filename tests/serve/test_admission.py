"""Unit tests for admission control: bounded queues, EWMA shedding."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.serve import (
    AdmissionController,
    AdmissionRejected,
    ClassPolicy,
    PriorityClass,
    QueueFull,
    SLOUnattainable,
    ServeRequest,
    ServiceTimePredictor,
    default_policies,
)

MODEL = "m"


def make_request(request_id, priority, model_id=MODEL, at=0.0):
    return ServeRequest(
        request_id=request_id,
        tenant="t",
        model_id=model_id,
        priority=priority,
        prompt_tokens=16,
        output_tokens=8,
        arrived_at=at,
    )


def make_controller(shedding=True, predictor=None):
    return AdmissionController(
        [MODEL], default_policies(), predictor=predictor, shedding=shedding
    )


# ----------------------------------------------------------------------
# predictor
# ----------------------------------------------------------------------
def test_predictor_rejects_bad_alpha():
    with pytest.raises(ConfigurationError):
        ServiceTimePredictor(alpha=0.0)
    with pytest.raises(ConfigurationError):
        ServiceTimePredictor(alpha=1.5)


def test_predictor_unknown_model_predicts_zero():
    predictor = ServiceTimePredictor()
    assert predictor.predicted_ttft("never-seen") == 0.0
    assert predictor.predicted_service("never-seen") == 0.0


def test_predictor_ewma_update():
    predictor = ServiceTimePredictor(alpha=0.3)
    predictor.observe(MODEL, ttft=1.0, service_time=10.0)
    # First observation seeds the average directly.
    assert predictor.predicted_ttft(MODEL) == pytest.approx(1.0)
    predictor.observe(MODEL, ttft=2.0, service_time=20.0)
    assert predictor.predicted_ttft(MODEL) == pytest.approx(1.0 + 0.3 * (2.0 - 1.0))
    assert predictor.predicted_service(MODEL) == pytest.approx(10.0 + 0.3 * (20.0 - 10.0))
    assert predictor.observations == 2


# ----------------------------------------------------------------------
# backpressure
# ----------------------------------------------------------------------
def test_queue_full_rejects_with_typed_error():
    ctrl = make_controller()
    capacity = default_policies()[PriorityClass.INTERACTIVE].queue_capacity
    for i in range(capacity):
        ctrl.admit(make_request(i, PriorityClass.INTERACTIVE), 0.0, "priority")
    overflow = make_request(capacity, PriorityClass.INTERACTIVE)
    with pytest.raises(QueueFull) as excinfo:
        ctrl.admit(overflow, 0.0, "priority")
    assert excinfo.value.reason == "queue-full"
    assert excinfo.value.request is overflow
    assert overflow.state == "rejected"
    assert overflow.rejected_reason == "queue-full"
    assert ctrl.rejected_queue_full == 1
    assert ctrl.depth(MODEL, PriorityClass.INTERACTIVE) == capacity


def test_queues_are_bounded_per_class():
    ctrl = make_controller()
    capacity = default_policies()[PriorityClass.INTERACTIVE].queue_capacity
    for i in range(capacity):
        ctrl.admit(make_request(i, PriorityClass.INTERACTIVE), 0.0, "priority")
    # A different class still has room.
    ctrl.admit(make_request(99, PriorityClass.BACKGROUND), 0.0, "priority")
    assert ctrl.depth(MODEL, PriorityClass.BACKGROUND) == 1


# ----------------------------------------------------------------------
# deadline shedding
# ----------------------------------------------------------------------
def test_slo_shedding_uses_predicted_ttft():
    predictor = ServiceTimePredictor()
    predictor.observe(MODEL, ttft=10.0, service_time=12.0)  # SLO is 5s
    ctrl = make_controller(predictor=predictor)
    doomed = make_request(1, PriorityClass.INTERACTIVE)
    with pytest.raises(SLOUnattainable) as excinfo:
        ctrl.admit(doomed, 0.0, "priority")
    assert excinfo.value.reason == "slo-unattainable"
    assert doomed.state == "rejected"
    assert ctrl.rejected_slo == 1


def test_predicted_wait_alone_can_shed():
    ctrl = make_controller()  # predictor knows nothing (predicts 0)
    with pytest.raises(SLOUnattainable):
        ctrl.admit(make_request(1, PriorityClass.INTERACTIVE), 100.0, "priority")


def test_class_without_slo_never_sheds():
    predictor = ServiceTimePredictor()
    predictor.observe(MODEL, ttft=1000.0, service_time=1000.0)
    ctrl = make_controller(predictor=predictor)
    ctrl.admit(make_request(1, PriorityClass.BACKGROUND), 1e6, "priority")
    assert ctrl.depth(MODEL, PriorityClass.BACKGROUND) == 1


def test_shedding_can_be_disabled():
    predictor = ServiceTimePredictor()
    predictor.observe(MODEL, ttft=1000.0, service_time=1000.0)
    ctrl = make_controller(shedding=False, predictor=predictor)
    ctrl.admit(make_request(1, PriorityClass.INTERACTIVE), 1e6, "priority")
    assert ctrl.admitted == 1


# ----------------------------------------------------------------------
# dispatch order
# ----------------------------------------------------------------------
def test_pop_next_priority_most_urgent_first():
    ctrl = make_controller()
    ctrl.admit(make_request(1, PriorityClass.BACKGROUND), 0.0, "priority")
    ctrl.admit(make_request(2, PriorityClass.BATCH), 0.0, "priority")
    ctrl.admit(make_request(3, PriorityClass.INTERACTIVE), 0.0, "priority")
    order = [ctrl.pop_next(MODEL, "priority").request_id for _ in range(3)]
    assert order == [3, 2, 1]
    assert ctrl.pop_next(MODEL, "priority") is None


def test_pop_next_fifo_global_arrival_order():
    ctrl = make_controller()
    ctrl.admit(make_request(1, PriorityClass.BACKGROUND), 0.0, "fifo")
    ctrl.admit(make_request(2, PriorityClass.BATCH), 0.0, "fifo")
    ctrl.admit(make_request(3, PriorityClass.INTERACTIVE), 0.0, "fifo")
    order = [ctrl.pop_next(MODEL, "fifo").request_id for _ in range(3)]
    assert order == [1, 2, 3]


def test_pop_next_rejects_unknown_scheduling():
    ctrl = make_controller()
    with pytest.raises(ConfigurationError):
        ctrl.pop_next(MODEL, "round-robin")


def test_requeue_front_restores_head_position():
    ctrl = make_controller()
    ctrl.admit(make_request(1, PriorityClass.BATCH), 0.0, "priority")
    ctrl.admit(make_request(2, PriorityClass.BATCH), 0.0, "priority")
    victim = ctrl.pop_next(MODEL, "priority")
    assert victim.request_id == 1
    ctrl.requeue_front(victim)
    assert ctrl.pop_next(MODEL, "priority").request_id == 1


def test_queued_ahead_respects_scheduling_mode():
    ctrl = make_controller()
    ctrl.admit(make_request(1, PriorityClass.BACKGROUND), 0.0, "priority")
    ctrl.admit(make_request(2, PriorityClass.BATCH), 0.0, "priority")
    # Under priority, queued batch/background never run before a new
    # interactive arrival; under fifo everything queued runs first.
    ahead_prio = ctrl.queued_ahead(MODEL, PriorityClass.INTERACTIVE, "priority")
    ahead_fifo = ctrl.queued_ahead(MODEL, PriorityClass.INTERACTIVE, "fifo")
    assert [r.request_id for r in ahead_prio] == []
    assert sorted(r.request_id for r in ahead_fifo) == [1, 2]
    # A new background arrival waits behind everything in both modes.
    assert len(ctrl.queued_ahead(MODEL, PriorityClass.BACKGROUND, "priority")) == 2


# ----------------------------------------------------------------------
# kept counts: differential op-fuzz against sums over the deques
# ----------------------------------------------------------------------
FUZZ_MODELS = ("a", "b")
_OPS = st.one_of(
    st.tuples(
        st.just("admit"),
        st.sampled_from(FUZZ_MODELS),
        st.sampled_from(list(PriorityClass)),
        st.booleans(),  # predicted wait past every SLO: shed if the class has one
    ),
    st.tuples(st.just("requeue_front"), st.integers(0, 63)),
    st.tuples(st.just("remove"), st.integers(0, 63)),
    st.tuples(st.just("remove_absent"), st.integers(0, 63)),
    st.tuples(st.just("drain"), st.sampled_from((None,) + FUZZ_MODELS)),
    st.tuples(st.just("pop_next"), st.sampled_from(FUZZ_MODELS)),
)


def _kept_counts(ctrl):
    return (
        {m: ctrl.total_depth(m) for m in FUZZ_MODELS},
        {c: ctrl.class_depth(c) for c in PriorityClass},
        ctrl.queued,
    )


def _recounted(ctrl):
    per_model = {
        m: sum(len(ctrl.queues[(m, c)]) for c in PriorityClass) for m in FUZZ_MODELS
    }
    per_class = {
        c: sum(len(ctrl.queues[(m, c)]) for m in FUZZ_MODELS) for c in PriorityClass
    }
    return per_model, per_class, sum(len(q) for q in ctrl.queues.values())


@settings(max_examples=300, deadline=None)
@given(scheduling=st.sampled_from(("priority", "fifo")), ops=st.lists(_OPS, max_size=80))
def test_kept_counts_equal_the_queues_after_every_operation(scheduling, ops):
    policies = {
        cls: ClassPolicy(
            queue_capacity=3,
            ttft_slo=None if cls is PriorityClass.BACKGROUND else 5.0,
        )
        for cls in PriorityClass
    }
    ctrl = AdmissionController(FUZZ_MODELS, policies)
    ids = itertools.count(1)
    taken = []  # popped or drained: requeue candidates
    # Never queued here: rejected arrivals and a request for a model the
    # controller does not host.
    absent = [make_request(0, PriorityClass.BATCH, model_id="elsewhere")]
    for op in ops:
        kind = op[0]
        if kind == "admit":
            _kind, model, cls, late = op
            request = make_request(next(ids), cls, model_id=model)
            try:
                ctrl.admit(request, 100.0 if late else 0.0, scheduling)
            except AdmissionRejected:
                absent.append(request)
        elif kind == "requeue_front":
            if taken:
                ctrl.requeue_front(taken.pop(op[1] % len(taken)))
        elif kind == "remove":
            queued = [r for queue in ctrl.queues.values() for r in queue]
            if queued:
                assert ctrl.remove(queued[op[1] % len(queued)])
        elif kind == "remove_absent":
            candidates = taken + absent
            assert not ctrl.remove(candidates[op[1] % len(candidates)])
        elif kind == "drain":
            drained = ctrl.drain(op[1])
            assert all(op[1] in (None, r.model_id) for r in drained)
            taken.extend(drained)
        else:
            head = ctrl.peek_next(op[1], scheduling)
            popped = ctrl.pop_next(op[1], scheduling)
            assert popped is head
            if popped is not None:
                taken.append(popped)
        assert _kept_counts(ctrl) == _recounted(ctrl)
