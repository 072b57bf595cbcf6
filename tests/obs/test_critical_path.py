"""Critical-path lane accounting over a trace.

:meth:`repro.obs.Profiler.lane_accounting` answers the Fig. 12 question
for any capture: per lane, the merged busy time (overlap not
double-counted), the wait time, and the idle bubbles of the trace
window.
"""

import json

import pytest

from repro.obs import Profiler
from repro.sim import Simulator, Span
from repro.sim.trace import NULL_TRACER, Tracer


def _lanes(spans):
    tracer = Tracer(Simulator())
    tracer.spans.extend(spans)
    return {b.lane: b for b in Profiler(tracer).lane_accounting()}


def test_overlap_is_merged_per_lane():
    lanes = _lanes(
        [
            Span("load", "g0", 0.0, 1.0, "I/O"),
            Span("load", "g1", 0.5, 2.0, "I/O"),  # overlaps g0
            Span("compute", "m0", 1.0, 1.5, "NPU"),
        ]
    )
    io, npu = lanes["I/O"], lanes["NPU"]
    # Merged [0, 2), not 1.0 + 1.5 summed.
    assert io.busy == pytest.approx(2.0)
    assert io.idle == pytest.approx(0.0)
    assert npu.busy == pytest.approx(0.5)
    assert npu.idle == pytest.approx(1.5)
    assert io.window == npu.window == pytest.approx(2.0)


def test_disjoint_spans_leave_bubbles():
    (io,) = _lanes(
        [
            Span("load", "a", 0.0, 1.0, "I/O"),
            Span("load", "b", 3.0, 4.0, "I/O"),
        ]
    ).values()
    assert io.busy == pytest.approx(2.0)
    assert io.idle == pytest.approx(2.0)
    assert io.busy / io.window == pytest.approx(0.5)


def test_empty_trace_yields_empty_report():
    profiler = Profiler(NULL_TRACER)
    assert profiler.lane_accounting() == []
    assert profiler.to_dict()["lanes"] == []


def test_report_exports_are_json_stable():
    tracer = Tracer(Simulator())
    tracer.spans.append(Span("compute", "m", 0.0, 1.0, "NPU"))
    doc = json.dumps(Profiler(tracer).to_dict(), sort_keys=True)
    (lane,) = json.loads(doc)["lanes"]
    assert lane["lane"] == "NPU" and lane["busy"] == pytest.approx(1.0)
    assert "NPU" in Profiler(tracer).render()


def test_end_to_end_report_matches_tracer_totals():
    from repro import TINYLLAMA, TZLLM

    system = TZLLM(TINYLLAMA, trace=True)
    system.run_infer(8, 0)
    system.run_infer(64, 0)
    tracer = system.tracer
    lanes = {b.lane: b for b in Profiler(tracer).lane_accounting()}
    assert {"CPU", "I/O engine", "NPU"} <= set(lanes)
    # The I/O engine only loads, one request at a time: its merged busy
    # time is the tracer's summed load time.
    assert lanes["I/O engine"].busy == pytest.approx(tracer.total_time("load"))
    for usage in lanes.values():
        assert 0.0 <= usage.busy <= usage.window
        assert usage.busy + usage.wait + usage.idle == pytest.approx(usage.window)
