"""Buddy allocator over the frame database.

Models the Linux page allocator at granule granularity with the two
placement rules the CMA design depends on:

* allocations are served from frames *outside* CMA regions first;
* only *movable* allocations may spill into a CMA region when the rest of
  memory is full (unmovable pages would make the region un-reclaimable),
  and the spill is delegated to the owning :class:`~repro.ree.cma.CMARegion`.

Frame choice is lowest-index-first, which keeps runs deterministic: the
free pool outside CMA is one ascending list, so an allocation takes its
head as one slice and a free merges its frames back in bulk.  The
allocator also provides the Fig. 3 cost model: 4 KiB-page allocation is a
fast path whose time is proportional to bytes (page-table + zeroing work)
and *insensitive to memory pressure* — the contrast with CMA migration.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from itertools import islice
from operator import attrgetter
from typing import Dict, Iterable, List

from ..config import MemorySpec
from ..errors import OutOfMemory
from .pages import Allocation, FrameDB

__all__ = ["BuddyAllocator"]


class BuddyAllocator:
    """The page allocator: free pools, CMA balancing, reclaim."""

    def __init__(self, db: FrameDB):
        self.db = db
        self._cma_regions: List = []  # CMARegion instances, attached later
        #: free frames outside every CMA region, ascending.
        self._free_outside: List[int] = []
        self._cma_frames = set()
        #: allocations whose pages may be dropped under memory pressure
        #: (stress-ng pressure pages, clean page cache), by id in
        #: registration order.
        self._reclaimable: Dict[int, Allocation] = {}
        self.reclaimed_frames = 0

    def attach_cma(self, region) -> None:
        """Register a CMA region; its frames leave the buddy free pool."""
        self._cma_regions.append(region)
        self._cma_frames.update(range(region.start_frame, region.end_frame))

    def finalize(self) -> None:
        """Build the free pool once all CMA regions are attached."""
        self._free_outside = [
            frame for frame in range(self.db.n_frames) if frame not in self._cma_frames
        ]

    # ------------------------------------------------------------------
    @property
    def free_outside_cma(self) -> int:
        return len(self._free_outside)

    @property
    def free_inside_cma(self) -> int:
        return sum(region.free_frames for region in self._cma_regions)

    # ------------------------------------------------------------------
    # reclaim (memory-pressure relief)
    # ------------------------------------------------------------------
    def register_reclaimable(self, alloc: Allocation) -> None:
        """Let reclaim drop ``alloc``'s pages until it is freed."""
        self._reclaimable[alloc.alloc_id] = alloc

    def reclaim_outside(self, n_frames: int) -> int:
        """Drop up to ``n_frames`` reclaimable pages outside CMA regions.

        Returns the number of frames actually freed (they re-enter the
        free pool).  Models the kernel shrinking page cache / pressure
        pages when an allocation cannot otherwise be satisfied.
        """
        cma = self._cma_frames
        freed = 0
        for alloc in list(self._reclaimable.values()):
            if freed >= n_frames:
                break
            # Victims in the allocation's own frame order, taken lazily:
            # the allocation may be a multi-GB stress mapping.
            victims = (f for f in alloc.frames if f not in cma)
            take = list(islice(victims, n_frames - freed))
            if not take:
                continue
            self.db.release_frames(alloc, take)
            self._return_outside(sorted(take))
            freed += len(take)
            self.reclaimed_frames += len(take)
            if alloc.freed:
                del self._reclaimable[alloc.alloc_id]
        return freed

    def allocate(self, n_frames: int, movable: bool, tag: str = "") -> Allocation:
        """Take ``n_frames`` granules (possibly discontiguous).

        Movable allocations spill into CMA regions when the rest of
        memory is exhausted; unmovable ones fail instead.  Reclaimable
        pages are dropped as a last resort before declaring OOM.
        """
        if n_frames <= 0:
            raise OutOfMemory("allocation of %d frames" % n_frames)
        available = self.free_outside_cma + (self.free_inside_cma if movable else 0)
        if n_frames > available:
            self.reclaim_outside(n_frames - available)
            available = self.free_outside_cma + (self.free_inside_cma if movable else 0)
        if n_frames > available:
            raise OutOfMemory(
                "%d frames requested, %d available (movable=%s)" % (n_frames, available, movable)
            )
        from_cma = 0
        if movable and self._cma_regions:
            # Linux's utilization heuristic: movable allocations draw from
            # CMA once it holds the majority of free memory, keeping the
            # two pools balanced.  This is what lets a big stress-ng
            # mapping occupy a large CMA region (the Fig. 3 / §7
            # worst-case pressure regime).
            outside = len(self._free_outside)
            inside = self.free_inside_cma
            if outside - n_frames >= inside:
                from_cma = 0
            elif inside - n_frames >= outside:
                from_cma = min(n_frames, inside)
            else:
                balanced = (n_frames - outside + inside + 1) // 2
                from_cma = min(n_frames, inside, max(0, balanced))
        from_outside = min(n_frames - from_cma, len(self._free_outside))
        frames = self._free_outside[:from_outside]
        del self._free_outside[:from_outside]
        remaining = n_frames - len(frames)
        for region in sorted(self._cma_regions, key=lambda r: -r.free_frames):
            if remaining == 0:
                break
            spilled = region.spill_frames(min(remaining, region.free_frames))
            frames.extend(spilled)
            remaining -= len(spilled)
        return self.db.claim(frames, movable=movable, tag=tag)

    def take_frame_outside(self) -> int:
        """Migration destination: one free frame strictly outside every
        CMA region, removed from the pool but left unowned in the frame
        database for the caller to move a page into.

        Falls back to dropping a reclaimable page when outside memory is
        exhausted — the behaviour that lets CMA allocation proceed under
        full-memory stress (Fig. 3's high-pressure regime).
        """
        if not self._free_outside:
            self.reclaim_outside(1)
        if not self._free_outside:
            raise OutOfMemory("no free frames outside CMA for migration")
        return self._free_outside.pop(0)

    def free(self, alloc: Allocation) -> None:
        """Release ``alloc``; a freed allocation is never reclaimed."""
        self.db.release(alloc)
        self._reclaimable.pop(alloc.alloc_id, None)
        self.return_frames(alloc.frames)  # a freed allocation keeps its set

    def return_frames(self, frames: Iterable[int]) -> None:
        """Give freed frames back to whichever pool owns them: each CMA
        region takes its slice of the sorted frames, and the rest merge
        into the outside pool."""
        frames = sorted(frames)
        outside: List[int] = []
        pos = 0
        for region in sorted(self._cma_regions, key=attrgetter("start_frame")):
            lo = bisect_left(frames, region.start_frame, pos)
            hi = bisect_left(frames, region.end_frame, lo)
            outside += frames[pos:lo]
            if hi > lo:
                region.return_frames(frames[lo:hi])
            pos = hi
        outside += frames[pos:]
        self._return_outside(outside)

    def _return_outside(self, frames: List[int]) -> None:
        """Merge ascending frames outside every CMA region into the pool."""
        if len(frames) == 1:
            insort(self._free_outside, frames[0])
        elif frames:
            self._free_outside += frames
            self._free_outside.sort()

    # cost model --------------------------------------------------------
    def alloc_seconds(self, n_bytes: float, spec: MemorySpec) -> float:
        """Fast-path allocation time for ``n_bytes`` (Fig. 3 buddy line)."""
        return n_bytes / spec.buddy_alloc_bw
