"""Partial parameter caching policies (§4.1, §7.2.3).

After an inference the TA lazily releases parameter memory in reverse
topological order; whatever prefix stays resident lets the next inference
skip those groups' restoration entirely.  Policies decide how much to
keep:

* :class:`FractionCachePolicy` — keep a fixed fraction (the Fig. 14
  sweep's independent variable).
* :class:`PressureCachePolicy` — keep as much as current REE free memory
  allows, with a floor/headroom (the paper's deployed mechanism).
* :class:`ThresholdProfiler` — find the knee of the TTFT-vs-cache curve
  (the paper's suggested profiling alternative) from measured runs.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from ..errors import ConfigurationError

__all__ = [
    "CachePolicy",
    "FractionCachePolicy",
    "PressureCachePolicy",
    "ThresholdProfiler",
]


class CachePolicy:
    """Decides how many parameter bytes stay cached after inference."""

    def bytes_to_keep(self, ta) -> int:
        """Upper bound on parameter bytes to keep cached after inference."""
        raise NotImplementedError


class FractionCachePolicy(CachePolicy):
    """Keep a fixed fraction of the parameters (the Fig. 14 knob)."""

    def __init__(self, fraction: float):
        if not 0.0 <= fraction <= 1.0:
            raise ConfigurationError("fraction must be within [0, 1]")
        self.fraction = fraction

    def bytes_to_keep(self, ta) -> int:
        return int(ta.plan.total_alloc_bytes * self.fraction)


class PressureCachePolicy(CachePolicy):
    """Keep what fits under the REE's free-memory headroom requirement."""

    def __init__(self, headroom_bytes: int):
        if headroom_bytes < 0:
            raise ConfigurationError("headroom must be non-negative")
        self.headroom_bytes = headroom_bytes

    def bytes_to_keep(self, ta) -> int:
        kernel = ta.stack.kernel
        currently_held = ta.params_region.protected
        # Free memory if we released everything:
        free_after_release = kernel.free_bytes + currently_held
        allowance = max(0, free_after_release - self.headroom_bytes)
        return min(currently_held if currently_held else ta.plan.total_alloc_bytes, allowance)


class ThresholdProfiler:
    """Locate the cache proportion beyond which extra caching stops
    helping (the knee of Fig. 14)."""

    def __init__(self, tolerance: float = 0.05):
        self.tolerance = tolerance

    def find_knee(self, points: Sequence[Tuple[float, float]]) -> float:
        """``points``: (cache_fraction, ttft) pairs, fraction-ascending.

        Returns the smallest fraction whose TTFT is within ``tolerance``
        of the fully-cached TTFT.
        """
        if len(points) < 2:
            raise ConfigurationError("need at least two profile points")
        ordered = sorted(points)
        floor = ordered[-1][1]
        if floor <= 0:
            raise ConfigurationError("non-positive TTFT in profile")
        for fraction, ttft in ordered:
            if ttft <= floor * (1.0 + self.tolerance):
                return fraction
        return ordered[-1][0]
