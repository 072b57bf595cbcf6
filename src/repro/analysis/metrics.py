"""Small statistics helpers used by the benchmark harness."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence

from ..errors import ConfigurationError
from ..sim.resources import _percentile

__all__ = [
    "LatencySummary",
    "geomean",
    "mean",
    "percent_change",
    "percentile",
    "reduction",
]


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (errors on empty input)."""
    values = list(values)
    if not values:
        raise ConfigurationError("mean of empty sequence")
    return sum(values) / len(values)


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of positive values (how the paper averages ratios)."""
    values = list(values)
    if not values:
        raise ConfigurationError("geomean of empty sequence")
    if any(v <= 0 for v in values):
        raise ConfigurationError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percent_change(new: float, old: float) -> float:
    """(new - old) / old, in percent.  Positive = ``new`` is larger."""
    if old == 0:
        raise ConfigurationError("percent change from zero")
    return (new - old) / old * 100.0


def reduction(old: float, new: float) -> float:
    """How much ``new`` shrank relative to ``old``, in percent."""
    if old == 0:
        raise ConfigurationError("reduction from zero")
    return (old - new) / old * 100.0


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (linear interpolation between ranks).

    ``p`` is in [0, 100]; p=50 is the median.  Errors on empty input so a
    silent 0.0 never masquerades as a measured latency.
    """
    if not 0.0 <= p <= 100.0:
        raise ConfigurationError("percentile must be in [0, 100], got %r" % (p,))
    values = list(values)
    if not values:
        raise ConfigurationError("percentile of empty sequence")
    return _percentile(values, p / 100.0)


@dataclass(frozen=True)
class LatencySummary:
    """The tail-latency quartet every serving metric reports."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    max: float

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "LatencySummary":
        values = list(values)
        if not values:
            raise ConfigurationError("LatencySummary of empty sequence")
        return cls(
            count=len(values),
            mean=mean(values),
            p50=percentile(values, 50),
            p95=percentile(values, 95),
            p99=percentile(values, 99),
            max=max(values),
        )

    def row(self, fmt: str = "%.3f") -> List[str]:
        """[p50, p95, p99, max] formatted for a report table."""
        return [fmt % self.p50, fmt % self.p95, fmt % self.p99, fmt % self.max]
