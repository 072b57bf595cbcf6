"""Tests for metrics, table rendering, and the LoC inventory."""

import pytest

from repro.analysis import (
    PAPER_LOC,
    LatencySummary,
    count_package_loc,
    geomean,
    mean,
    percent_change,
    percentile,
    reduction,
    render_table,
)
from repro.errors import ConfigurationError


def test_mean_and_geomean():
    assert mean([1, 2, 3]) == 2
    assert geomean([1, 4]) == pytest.approx(2.0)
    assert geomean([10, 10, 10]) == pytest.approx(10.0)


def test_geomean_rejects_nonpositive_and_empty():
    with pytest.raises(ConfigurationError):
        geomean([])
    with pytest.raises(ConfigurationError):
        geomean([1, 0])
    with pytest.raises(ConfigurationError):
        mean([])


def test_percent_change_and_reduction():
    assert percent_change(110, 100) == pytest.approx(10.0)
    assert percent_change(90, 100) == pytest.approx(-10.0)
    assert reduction(100, 25) == pytest.approx(75.0)
    with pytest.raises(ConfigurationError):
        percent_change(1, 0)


def test_render_table_alignment():
    out = render_table(["sys", "ttft"], [["TZ-LLM", 1.234], ["Strawman", 10.5]], title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "sys" in lines[1] and "ttft" in lines[1]
    assert len(lines) == 5
    # Columns align.
    assert lines[3].index("|") == lines[4].index("|")


def test_loc_inventory_counts_this_package():
    counts = count_package_loc()
    assert sum(counts.values()) > 3000  # the reproduction is substantial
    tee = count_package_loc("tee")
    assert 0 < sum(tee.values()) < sum(counts.values())
    # The TEE NPU co-driver stays small, like the paper's ~1 kLoC driver.
    npu_driver = [v for k, v in tee.items() if "npu_driver" in k]
    assert npu_driver and npu_driver[0] < 400


def test_paper_loc_reference_table():
    assert PAPER_LOC["TEE OS additions (CMA mapping + TZASC/TZPC config)"] == 112
    assert PAPER_LOC["Rockchip NPU driver stack avoided"] == 60_000


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]  # order must not matter
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == pytest.approx(2.5)
    assert percentile(values, 25) == pytest.approx(1.75)
    assert percentile([7.0], 99) == 7.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ConfigurationError):
        percentile([], 50)
    with pytest.raises(ConfigurationError):
        percentile([1.0], -1)
    with pytest.raises(ConfigurationError):
        percentile([1.0], 100.5)


def test_latency_summary_from_values():
    summary = LatencySummary.from_values([1.0, 2.0, 3.0, 4.0])
    assert summary.count == 4
    assert summary.mean == pytest.approx(2.5)
    assert summary.p50 == pytest.approx(2.5)
    assert summary.max == 4.0
    assert summary.p95 <= summary.p99 <= summary.max
    row = summary.row()
    assert row == ["2.500", "3.850", "3.970", "4.000"]
    with pytest.raises(ConfigurationError):
        LatencySummary.from_values([])
