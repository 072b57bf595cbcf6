"""Measurement and reporting helpers for the benchmark harness.

The perf-regression gate is a command, ``python -m
repro.analysis.regress``; import its names from that module.
"""

from .loc import PAPER_LOC, count_package_loc
from .prefix_share import PrefixShareReport, TenantShareRow, analyze_prefix_sharing
from .metrics import (
    LatencySummary,
    geomean,
    mean,
    percent_change,
    percentile,
    reduction,
    speedup,
)
from .tables import render_bars, render_table

__all__ = [
    "LatencySummary",
    "PAPER_LOC",
    "PrefixShareReport",
    "TenantShareRow",
    "analyze_prefix_sharing",
    "count_package_loc",
    "geomean",
    "mean",
    "percent_change",
    "percentile",
    "reduction",
    "render_bars",
    "render_table",
    "speedup",
]
