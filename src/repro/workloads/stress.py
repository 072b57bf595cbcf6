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
frame, at the start of its first page.  The stressor remembers which
frames held their own pattern at its last sweep, and physical memory's
write clock names the pages written since, so a sweep stamps only the
frames it maps that are new to it or whose first page was written in
between.  Functional checks: the stressor can verify its surviving
pages still hold whole patterns after migrations (migration must copy,
not corrupt).
"""

from __future__ import annotations

from itertools import repeat
from operator import mul
from typing import List, Set

from ..config import PAGE_SIZE
from ..errors import ConfigurationError
from ..ree.kernel import REEKernel
from ..ree.pages import Allocation

__all__ = ["MemoryStress"]

#: the kernel allocation tag of every stress mapping.
_TAG = "stress-ng"
_PATTERN_STRIDE = 64
#: copies of a frame's 8-byte header in its pattern.
_HEADER_COPIES = _PATTERN_STRIDE // 8


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
        headroom: int = 64 * 1024 * 1024,
    ):
        if n_bytes <= 0:
            raise ConfigurationError("stress size must be positive")
        self.kernel = kernel
        self.n_bytes = n_bytes
        self.headroom = headroom
        self.allocs: List[Allocation] = []
        self._running = False
        #: frames whose first page held their own pattern at ``_mark``.
        self._stamped: Set[int] = set()
        self._mark = kernel.board.memory.write_mark()

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
        # Best effort: map what is free beyond the headroom.
        want = min(want, self.kernel.free_bytes - self.headroom)
        if want < granule:
            return
        alloc = self.kernel.map_anonymous(want, tag=_TAG)
        self.kernel.buddy.register_reclaimable(alloc)
        self.allocs.append(alloc)
        memory = self.kernel.board.memory
        # Pages never dematerialize, so a stamped frame keeps its pattern
        # until its first page is written.
        pages_per_frame = granule // PAGE_SIZE
        self._stamped.difference_update(
            page // pages_per_frame
            for page in memory.written_since(self._mark)
            if page % pages_per_frame == 0
        )
        stale = alloc.frames - self._stamped
        memory._raw_write_many(
            map(mul, stale, repeat(granule)),
            ((b"S%07d" % (frame % 10_000_000)) * _HEADER_COPIES for frame in stale),
        )
        self._stamped |= stale
        self._mark = memory.write_mark()

    # ------------------------------------------------------------------
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
