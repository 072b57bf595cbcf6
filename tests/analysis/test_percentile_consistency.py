"""Percentile edge cases and cross-module consistency (one definition).

The repo computes percentiles in three places: the analysis helpers
(:func:`repro.analysis.metrics.percentile`), the serving SLO summaries
(via :class:`~repro.analysis.metrics.LatencySummary`), and the simulator
resource stats (:func:`repro.sim.resources._percentile`, the one
formula the other two call).  All three must agree on the same samples
— a p99 that differs by implementation is a regression-gate hazard.
"""

import pytest

from repro.analysis.metrics import LatencySummary, percentile
from repro.errors import ConfigurationError
from repro.sim.resources import _percentile


# ----------------------------------------------------------------------
# analysis.metrics.percentile edge cases
# ----------------------------------------------------------------------
def test_percentile_rejects_empty():
    with pytest.raises(ConfigurationError):
        percentile([], 50)


def test_percentile_rejects_out_of_range_p():
    with pytest.raises(ConfigurationError):
        percentile([1.0], -1)
    with pytest.raises(ConfigurationError):
        percentile([1.0], 101)


def test_percentile_single_sample_is_that_sample():
    for p in (0, 50, 99, 100):
        assert percentile([7.5], p) == 7.5


def test_percentile_p0_and_p100_are_min_and_max():
    values = [5.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 5.0


def test_percentile_sorts_its_input():
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0


def test_percentile_interpolates_between_ranks():
    # ranks 0..3; p50 -> rank 1.5 -> midpoint of 2 and 3.
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)
    assert percentile([1.0, 2.0, 3.0, 4.0], 99) == pytest.approx(3.97)


def test_identical_samples_have_flat_percentiles():
    summary = LatencySummary.from_values([2.0] * 10)
    assert summary.p50 == summary.p95 == summary.p99 == summary.max == 2.0


# ----------------------------------------------------------------------
# consistency across modules
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "values",
    [
        [1.0],
        [0.0, 1.0, 2.0, 3.0],
        [5.0, 1.0, 4.0, 1.5, 2.0, 9.0, 0.25],
        list(float(i * i % 17) for i in range(50)),
    ],
)
def test_sim_percentile_matches_analysis_percentile(values):
    for q in (0.0, 0.5, 0.95, 0.99, 1.0):
        assert _percentile(list(values), q) == pytest.approx(
            percentile(values, q * 100.0)
        )


def test_sim_percentile_empty_is_zero():
    # The sim-side helper keeps the 0-for-empty contract: resource stats
    # render before any request completes.
    assert _percentile([], 0.99) == 0.0


def test_resource_p99_matches_latency_summary():
    from repro.sim import Resource, Simulator

    sim = Simulator()
    res = Resource(sim, capacity=1, name="one")

    def worker():
        req = res.request()
        yield req
        yield sim.timeout(1.0)
        res.release(req)

    for _ in range(5):
        sim.process(worker())
    sim.run()
    waits = res.stats.wait_times
    assert len(waits) == 5
    summary = LatencySummary.from_values(waits)
    assert res.stats.p99_wait() == pytest.approx(summary.p99)
    assert res.stats.p99_wait() == pytest.approx(percentile(waits, 99))
