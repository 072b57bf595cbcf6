"""Tests for the perf-regression gate (repro.analysis.regress)."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.analysis.regress import (
    Tolerance,
    compare,
    flatten_metrics,
    load_summaries,
    main,
    render_markdown,
    update_baselines,
)


# ----------------------------------------------------------------------
# flattening
# ----------------------------------------------------------------------
def test_flatten_nested_dicts_and_lists():
    flat = flatten_metrics(
        {"a": {"b": 1, "c": [2.5, {"d": 3}]}, "e": 4}
    )
    assert flat == {"a.b": 1.0, "a.c.0": 2.5, "a.c.1.d": 3.0, "e": 4.0}


def test_flatten_skips_non_numeric_leaves_but_keeps_bools():
    flat = flatten_metrics({"name": "fig12", "ok": True, "none": None, "v": 7})
    assert flat == {"ok": 1.0, "v": 7.0}


# ----------------------------------------------------------------------
# comparison statuses
# ----------------------------------------------------------------------
def test_compare_ok_within_default_tolerance():
    report = compare({"b": {"m": 100.0}}, {"b": {"m": 104.0}})
    (delta,) = report.deltas
    assert delta.status == "ok"
    assert delta.change == pytest.approx(0.04)
    assert report.passed


def test_compare_flags_drift_beyond_tolerance():
    report = compare({"b": {"m": 100.0}}, {"b": {"m": 110.0}})
    (delta,) = report.deltas
    assert delta.status == "drift"
    assert not report.passed
    assert report.drifted == [delta]


def test_compare_missing_and_new_metrics():
    report = compare(
        {"b": {"gone": 1.0, "kept": 2.0}},
        {"b": {"kept": 2.0, "added": 3.0}},
    )
    statuses = {d.path: d.status for d in report.deltas}
    assert statuses == {"gone": "missing_fresh", "kept": "ok", "added": "new"}
    assert not report.passed  # missing_fresh gates


def test_compare_missing_bench_gates_new_bench_does_not():
    report = compare({"old": {"m": 1.0}}, {"brand": {"m": 1.0}})
    assert report.missing_benches == ["old"]
    assert not report.passed
    report = compare({}, {"brand": {"m": 1.0}})
    assert report.passed  # unbaselined benches are informational


def test_tolerance_pattern_widens_band():
    baselines = {"tab_loc": {"total": 1000.0}}
    fresh = {"tab_loc": {"total": 1400.0}}
    assert not compare(baselines, fresh).passed
    assert compare(
        baselines, fresh, (Tolerance("tab_loc.*", rtol=0.5),)
    ).passed


def test_zero_baseline_uses_atol():
    report = compare({"b": {"m": 0.0}}, {"b": {"m": 0.0}})
    assert report.passed
    report = compare({"b": {"m": 0.0}}, {"b": {"m": 0.5}})
    assert not report.passed


# ----------------------------------------------------------------------
# markdown report
# ----------------------------------------------------------------------
def test_render_markdown_shows_drift_rows():
    report = compare({"b": {"good": 1.0, "bad": 100.0}}, {"b": {"good": 1.0, "bad": 200.0}})
    text = render_markdown(report)
    assert "FAIL" in text
    assert "| b | bad | 100 | 200 | +100.00% | drift |" in text
    assert "good" not in text  # ok rows hidden unless verbose
    assert "good" in render_markdown(report, verbose=True)


def test_render_markdown_pass_is_quiet():
    report = compare({"b": {"m": 1.0}}, {"b": {"m": 1.0}})
    text = render_markdown(report)
    assert "PASS" in text
    assert "No drift." in text


# ----------------------------------------------------------------------
# summary loading (volatile keys ignored)
# ----------------------------------------------------------------------
def _write_summary(directory, name, metrics, **extra):
    os.makedirs(directory, exist_ok=True)
    payload = {"name": name, "metrics": metrics}
    payload.update(extra)
    with open(os.path.join(directory, "BENCH_%s.json" % name), "w") as handle:
        json.dump(payload, handle)


def test_load_summaries_strips_volatile_keys(tmp_path):
    d = str(tmp_path)
    _write_summary(
        d,
        "fig",
        {"ttft": 1.5, "wall_time_s": 99.0, "git_rev": "abc", "generated_at": 1.0},
    )
    assert load_summaries(d) == {"fig": {"ttft": 1.5}}


def test_volatile_drift_never_gates(tmp_path):
    base = str(tmp_path / "base")
    fresh = str(tmp_path / "fresh")
    _write_summary(base, "fig", {"ttft": 1.5, "wall_time_s": 10.0})
    _write_summary(fresh, "fig", {"ttft": 1.5, "wall_time_s": 5000.0})
    report = compare(load_summaries(base), load_summaries(fresh))
    assert report.passed


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_main_check_passes_and_fails(tmp_path, capsys):
    base = str(tmp_path / "base")
    fresh = str(tmp_path / "fresh")
    _write_summary(base, "fig", {"ttft": 1.5})
    _write_summary(fresh, "fig", {"ttft": 1.5})
    assert main(["--check", "--baselines", base, "--fresh", fresh]) == 0
    _write_summary(fresh, "fig", {"ttft": 9.0})
    assert main(["--check", "--baselines", base, "--fresh", fresh]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_main_check_fails_without_baselines(tmp_path):
    assert main(
        ["--check", "--baselines", str(tmp_path / "none"), "--fresh", str(tmp_path)]
    ) == 1


def test_main_update_promotes_baselines(tmp_path, capsys):
    base = str(tmp_path / "base")
    fresh = str(tmp_path / "fresh")
    _write_summary(fresh, "fig", {"ttft": 2.0})
    assert main(["--update", "--baselines", base, "--fresh", fresh]) == 0
    assert load_summaries(base) == {"fig": {"ttft": 2.0}}


def test_main_writes_markdown_report(tmp_path):
    base = str(tmp_path / "base")
    fresh = str(tmp_path / "fresh")
    _write_summary(base, "fig", {"ttft": 1.5})
    _write_summary(fresh, "fig", {"ttft": 1.5})
    out = str(tmp_path / "report" / "perf.md")
    assert main(["--baselines", base, "--fresh", fresh, "--markdown", out]) == 0
    with open(out) as handle:
        assert "PASS" in handle.read()


def test_main_custom_tolerance_flag(tmp_path):
    base = str(tmp_path / "base")
    fresh = str(tmp_path / "fresh")
    _write_summary(base, "fig", {"loose": 100.0})
    _write_summary(fresh, "fig", {"loose": 140.0})
    args = ["--check", "--baselines", base, "--fresh", fresh]
    assert main(args) == 1
    assert main(args + ["--tolerance", "fig.loose=0.5"]) == 0


def test_module_runs_as_a_command_without_runtime_warnings():
    """``python -m repro.analysis.regress`` (the CI gate) must not find
    the module already imported by its package: runpy would warn and run
    a second copy of it as ``__main__``."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning",
         "-m", "repro.analysis.regress", "--help"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_update_baselines_returns_copied_paths(tmp_path):
    fresh = str(tmp_path / "fresh")
    base = str(tmp_path / "base")
    _write_summary(fresh, "a", {"x": 1})
    _write_summary(fresh, "b", {"x": 2})
    copied = update_baselines(fresh, base)
    assert [os.path.basename(p) for p in copied] == [
        "BENCH_a.json",
        "BENCH_b.json",
    ]
