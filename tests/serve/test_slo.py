"""Unit tests for SLO accounting: the accountant's summaries, queue-depth
peak, utilization and export."""

import json

import pytest

from repro.core import InferenceRecord
from repro.errors import ConfigurationError
from repro.llm import DecodeResult
from repro.serve import (
    PriorityClass,
    SLOAccountant,
    ServeRequest,
    default_policies,
)


class FakeSim:
    """Just a clock — the accountant only reads ``now``."""

    def __init__(self):
        self.now = 0.0


def make_done_request(request_id=1, priority=PriorityClass.INTERACTIVE, **kwargs):
    fields = dict(
        tenant="t",
        model_id="m",
        prompt_tokens=16,
        output_tokens=4,
        arrived_at=0.0,
        deadline=5.0,
        state="done",
        dispatched_at=0.5,
        first_token_at=1.0,
        finished_at=2.0,
    )
    fields.update(kwargs)
    return ServeRequest(request_id=request_id, priority=priority, **fields)


# ----------------------------------------------------------------------
# summaries computed from the observed requests
# ----------------------------------------------------------------------
def test_histogram_summary_and_empty():
    acct = SLOAccountant(FakeSim(), default_policies())
    assert acct.summary(PriorityClass.INTERACTIVE, "ttft") is None
    for i, ttft in enumerate((0.1, 0.2, 0.3, 0.4)):
        acct.observe(make_done_request(i, first_token_at=ttft, finished_at=1.0))
    summary = acct.summary(PriorityClass.INTERACTIVE, "ttft")
    assert summary.count == 4
    assert summary.p50 == pytest.approx(0.25)
    assert summary.max == pytest.approx(0.4)
    # No decode record: a request with fewer than two tokens has no TBT.
    assert acct.summary(PriorityClass.INTERACTIVE, "tbt") is None
    assert acct.summary(PriorityClass.INTERACTIVE, "e2e").count == 4
    assert acct.summary(PriorityClass.BATCH, "ttft") is None


def test_tbt_summary_counts_only_multi_token_requests():
    def decoded(request_id, step_times):
        record = InferenceRecord(prompt_tokens=16, output_tokens=4, started_at=0.0)
        record.decode = DecodeResult(
            token_ids=list(range(len(step_times))), step_times=list(step_times)
        )
        return make_done_request(request_id, record=record)

    acct = SLOAccountant(FakeSim(), default_policies())
    acct.observe(decoded(1, [0.5]))
    acct.observe(decoded(2, [0.1, 0.3]))
    acct.observe(decoded(3, [0.4, 0.4, 0.4]))
    tbt = acct.summary(PriorityClass.INTERACTIVE, "tbt")
    assert tbt.count == 2  # the one-token request has no gap
    assert tbt.p50 == pytest.approx(0.3)  # mean gaps 0.2 and 0.4
    assert acct.summary(PriorityClass.INTERACTIVE, "ttft").count == 3
    assert acct.classes[PriorityClass.INTERACTIVE].tokens_out == 6


def test_histogram_rejects_negative():
    acct = SLOAccountant(FakeSim(), default_policies())
    with pytest.raises(ConfigurationError):
        acct.observe(make_done_request(arrived_at=1.0, first_token_at=0.9))
    # A rejected request leaves no trace in the class.
    assert acct.classes[PriorityClass.INTERACTIVE].completed == 0
    assert acct.summary(PriorityClass.INTERACTIVE, "ttft") is None


def test_gauge_empty_and_degenerate():
    acct = SLOAccountant(FakeSim(), default_policies())
    # No samples: the peak is zero, not an error.
    assert acct.to_dict()["classes"]["batch"]["queue_depth_max"] == 0.0
    # A queue that drains back to zero keeps its peak.
    acct.note_queue_depth(PriorityClass.BATCH, 0)
    acct.note_queue_depth(PriorityClass.BATCH, 2)
    acct.note_queue_depth(PriorityClass.BATCH, 0)
    assert acct.to_dict()["classes"]["batch"]["queue_depth_max"] == 2.0
    assert acct.registry.gauge("serve_queue_depth").value(**{"class": "batch"}) == 0.0


# ----------------------------------------------------------------------
# accountant
# ----------------------------------------------------------------------
def test_accountant_observe_and_summary():
    sim = FakeSim()
    acct = SLOAccountant(sim, default_policies())
    acct.observe(make_done_request(1, first_token_at=1.0, finished_at=2.0))
    acct.observe(make_done_request(2, first_token_at=3.0, finished_at=4.0))
    summary = acct.summary(PriorityClass.INTERACTIVE, "ttft")
    assert summary.count == 2
    assert summary.p50 == pytest.approx(2.0)  # ttfts 1.0 and 3.0
    assert acct.classes[PriorityClass.INTERACTIVE].completed == 2
    # Request 1 attained the 5s deadline, request 2 did too (3.0 <= 5.0).
    assert acct.classes[PriorityClass.INTERACTIVE].slo_attained == 2
    acct.observe(make_done_request(3, first_token_at=9.0, finished_at=9.5))
    assert acct.classes[PriorityClass.INTERACTIVE].slo_violated == 1
    with pytest.raises(ConfigurationError):
        acct.summary(PriorityClass.INTERACTIVE, "nope")


def test_accountant_utilization_tracks_busy_time():
    sim = FakeSim()
    acct = SLOAccountant(sim, default_policies())
    acct.note_dispatch("m")
    sim.now = 10.0
    acct.note_release("m")
    assert acct.utilization("m") == pytest.approx(1.0)
    sim.now = 20.0
    assert acct.utilization("m") == pytest.approx(0.5)
    # A dispatch still in flight counts up to "now".
    acct.note_dispatch("m")
    sim.now = 30.0
    assert acct.utilization("m") == pytest.approx(20.0 / 30.0)


def test_accountant_queue_depth_and_rejections():
    sim = FakeSim()
    acct = SLOAccountant(sim, default_policies())
    acct.note_queue_depth(PriorityClass.BATCH, 3)
    sim.now = 1.0
    acct.note_queue_depth(PriorityClass.BATCH, 1)
    assert acct.to_dict()["classes"]["batch"]["queue_depth_max"] == 3.0
    acct.note_rejected(PriorityClass.INTERACTIVE, "queue-full")
    acct.note_rejected(PriorityClass.INTERACTIVE, "queue-full")
    acct.note_rejected(PriorityClass.INTERACTIVE, "slo-unattainable")
    assert acct.classes[PriorityClass.INTERACTIVE].rejected == {
        "queue-full": 2,
        "slo-unattainable": 1,
    }


def test_accountant_export_is_json_stable():
    sim = FakeSim()
    acct = SLOAccountant(sim, default_policies())
    acct.observe(make_done_request())
    sim.now = 10.0
    exported = acct.to_dict()
    # Round-trips through JSON and contains the per-class skeleton.
    doc = json.loads(json.dumps(exported, sort_keys=True))
    for label in ("interactive", "batch", "background"):
        assert label in doc["classes"]
        assert set(doc["classes"][label]) >= {
            "completed",
            "ttft",
            "tbt",
            "e2e",
            "rejected",
            "preemptions",
        }
    assert doc["classes"]["interactive"]["completed"] == 1
    assert doc["classes"]["interactive"]["ttft"]["p50"] == pytest.approx(1.0)
    assert doc["classes"]["batch"]["ttft"] is None  # no samples
