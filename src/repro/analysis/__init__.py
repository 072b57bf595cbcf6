"""Measurement and reporting helpers for the benchmark harness."""

from .loc import PAPER_LOC, count_package_loc
from .regress import (
    Delta,
    RegressionReport,
    Tolerance,
    compare,
    flatten_metrics,
    load_summaries,
    render_markdown,
)
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
    "Delta",
    "LatencySummary",
    "PAPER_LOC",
    "PrefixShareReport",
    "RegressionReport",
    "TenantShareRow",
    "Tolerance",
    "analyze_prefix_sharing",
    "compare",
    "count_package_loc",
    "flatten_metrics",
    "geomean",
    "load_summaries",
    "mean",
    "percent_change",
    "percentile",
    "reduction",
    "render_bars",
    "render_markdown",
    "render_table",
    "speedup",
]
