"""stress-ng-style memory pressure (§7 "Models and deployment").

The stressor maps a configurable amount of movable, *reclaimable* memory
and writes recognizable patterns into it.  When free memory outside the
CMA regions runs out, further pressure spills into the CMA regions —
which is exactly what forces page migration when the TEE later balloons
secure memory (the worst case the paper evaluates).

Two behaviours mirror the real tool:

* **best effort** — under a full system stress-ng maps what it can
  instead of dying on OOM;
* **continuous pressure** — stress-ng's vm workers re-fault reclaimed
  pages and re-map released memory in a loop, so freed memory (e.g. a
  CMA region the TEE just revoked) fills right back up.  Call
  :meth:`refresh` between experiment phases to model one sweep of that
  loop.

Each frame's pattern is eight copies of an 8-byte header naming the
frame.  A sweep writes a pattern only where the frame's page does not
already hold it.  Functional checks: the stressor can verify its
surviving pages still hold whole patterns after migrations (migration
must copy, not corrupt).
"""

from __future__ import annotations

from itertools import repeat
from operator import mul
from typing import List

from ..errors import ConfigurationError
from ..ree.kernel import REEKernel
from ..ree.pages import Allocation

__all__ = ["MemoryStress"]

_PATTERN_STRIDE = 64
#: copies of a frame's 8-byte header in its pattern.
_HEADER_COPIES = _PATTERN_STRIDE // 8


class _Headers(dict):
    """frame -> its pattern header (``S`` and 7 digits), formatted on
    first use: a header depends on its frame alone, so the cache holds
    at most one entry per frame of RAM."""

    def __missing__(self, frame: int) -> bytes:
        header = self[frame] = b"S%07d" % (frame % 10_000_000)
        return header


def _is_pattern(data: bytes) -> bool:
    """Whether ``data`` is one stride of some frame's pattern."""
    header = data[:8]
    return header[:1] == b"S" and header[1:].isdigit() and data == header * _HEADER_COPIES


class MemoryStress:
    """stress-ng-style reclaimable memory pressure with pattern checks."""

    def __init__(
        self,
        kernel: REEKernel,
        n_bytes: int,
        tag: str = "stress-ng",
        best_effort: bool = True,
        headroom: int = 64 * 1024 * 1024,
    ):
        if n_bytes <= 0:
            raise ConfigurationError("stress size must be positive")
        self.kernel = kernel
        self.n_bytes = n_bytes
        self.tag = tag
        self.best_effort = best_effort
        self.headroom = headroom
        self.allocs: List[Allocation] = []
        self._running = False
        self._headers = _Headers()

    # ------------------------------------------------------------------
    @property
    def mapped_bytes(self) -> int:
        return sum(a.n_frames for a in self.allocs if not a.freed) * self.kernel.db.granule

    def start(self) -> None:
        """Map the pressure memory and stamp patterns into it."""
        if self._running:
            raise ConfigurationError("stress already running")
        self._running = True
        self._map_up_to(self.n_bytes)

    def refresh(self) -> int:
        """One sweep of stress-ng's mmap/touch/munmap loop: drop the
        current mappings and re-map the full target.  Fresh placement
        follows the kernel's CMA-balancing heuristic, so a CMA region the
        TEE just revoked fills right back up — the *continuous* worst
        case of §7.  Returns the bytes now mapped."""
        if not self._running:
            raise ConfigurationError("stress not running")
        for alloc in self.allocs:
            if not alloc.freed:
                self.kernel.free(alloc)
        self.allocs = []
        self._map_up_to(self.n_bytes)
        return self.mapped_bytes

    def _map_up_to(self, target: int) -> None:
        granule = self.kernel.db.granule
        want = target - self.mapped_bytes
        if want < granule:
            return
        if self.best_effort:
            available = self.kernel.free_bytes - self.headroom
            want = min(want, available)
            if want < granule:
                return
        alloc = self.kernel.map_anonymous(want, tag=self.tag)
        self.kernel.buddy.register_reclaimable(alloc)
        self.allocs.append(alloc)
        frames = alloc.frames
        self.kernel.board.memory._raw_write_many(
            map(mul, frames, repeat(granule)),
            map(mul, map(self._headers.__getitem__, frames), repeat(_HEADER_COPIES)),
        )

    # ------------------------------------------------------------------
    def frames_in_cma(self) -> int:
        count = 0
        for region in self.kernel.cma_regions.values():
            for alloc in self.allocs:
                if alloc.freed:
                    continue
                count += sum(
                    1 for f in alloc.frames if region.start_frame <= f < region.end_frame
                )
        return count

    def verify_surviving_pages(self) -> int:
        """Check that every still-mapped page holds a whole stress pattern
        (migration must have copied the data).  Returns pages checked."""
        memory = self.kernel.board.memory
        checked = 0
        for alloc in self.allocs:
            if alloc.freed:
                continue
            for frame in alloc.frames:
                addr = self.kernel.db.frame_addr(frame)
                data = memory._raw_read(addr, _PATTERN_STRIDE)
                if not _is_pattern(data):
                    raise AssertionError("stress page at frame %d corrupted: %r" % (frame, data))
                checked += 1
        return checked

    def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        for alloc in self.allocs:
            if not alloc.freed:
                self.kernel.free(alloc)
        self.allocs = []
