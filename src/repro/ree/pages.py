"""Page-frame database for the simulated REE kernel.

Physical RAM is divided into fixed-size *granules* (the bookkeeping unit;
4 KiB in the real kernel, configurable here so 16 GiB platforms stay cheap
to simulate).  Each granule is free or owned by an :class:`Allocation`,
which is either *movable* (page-cache/anonymous pages the CMA may migrate)
or *unmovable* (kernel objects — never placed inside a CMA region, per the
Linux rule the paper relies on).

The database is purely functional bookkeeping; allocators charge simulated
time themselves.  Allocations hold their granules as a set so migration
(retargeting one granule) is O(1) even for multi-GB allocations, and
claim and release check and set whole runs of consecutive granules,
found in a sorted list without a step per granule.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..config import PAGE_SIZE
from ..errors import ConfigurationError, MemoryError_

__all__ = ["Allocation", "FrameDB"]


class Allocation:
    """A set of granules owned by one allocation (possibly discontiguous)."""

    __slots__ = ("alloc_id", "frames", "movable", "tag", "contiguous", "freed")

    def __init__(
        self,
        alloc_id: int,
        frames: Iterable[int],
        movable: bool,
        tag: str = "",
        contiguous: bool = False,
    ):
        self.alloc_id = alloc_id
        self.frames: Set[int] = set(frames)
        self.movable = movable
        self.tag = tag
        self.contiguous = contiguous
        self.freed = False

    @property
    def n_frames(self) -> int:
        return len(self.frames)

    def sorted_frames(self) -> List[int]:
        return sorted(self.frames)

    def replace_frame(self, old: int, new: int) -> None:
        """Swap one granule for another (migration bookkeeping)."""
        if old not in self.frames:
            raise MemoryError_("frame %d not in allocation %d" % (old, self.alloc_id))
        self.frames.discard(old)
        self.frames.add(new)

    def owns(self, frame: int) -> bool:
        return frame in self.frames

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Allocation(id=%d, frames=%d, movable=%s, tag=%r)" % (
            self.alloc_id,
            len(self.frames),
            self.movable,
            self.tag,
        )


class FrameDB:
    """Ownership of every granule of physical RAM: a granule is free when
    it has no owner, else movable or unmovable as its allocation is."""

    def __init__(self, total_bytes: int, granule: int = PAGE_SIZE):
        if granule % PAGE_SIZE != 0 or granule <= 0:
            raise ConfigurationError("granule must be a positive multiple of PAGE_SIZE")
        if total_bytes % granule != 0:
            raise ConfigurationError("total_bytes must be a granule multiple")
        self.total_bytes = total_bytes
        self.granule = granule
        self.n_frames = total_bytes // granule
        self._owner: List[Optional[int]] = [None] * self.n_frames
        self._allocations: Dict[int, Allocation] = {}
        self._ids = itertools.count(1)

    # ------------------------------------------------------------------
    # address mapping
    # ------------------------------------------------------------------
    def frame_addr(self, frame: int) -> int:
        return frame * self.granule

    def addr_frame(self, addr: int) -> int:
        return addr // self.granule

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def owner(self, frame: int) -> Optional[Allocation]:
        alloc_id = self._owner[frame]
        return self._allocations.get(alloc_id) if alloc_id is not None else None

    def occupied(self, start: int, stop: int) -> List[Tuple[int, Allocation]]:
        """The owned granules of ``[start, stop)``, ascending, each with
        its allocation."""
        allocations = self._allocations
        return [
            (frame, allocations[alloc_id])
            for frame, alloc_id in enumerate(self._owner[start:stop], start)
            if alloc_id is not None
        ]

    @property
    def free_frames(self) -> int:
        return self._owner.count(None)

    @property
    def used_bytes(self) -> int:
        return (self.n_frames - self.free_frames) * self.granule

    # ------------------------------------------------------------------
    # mutation (used by the allocators only)
    # ------------------------------------------------------------------
    def claim(
        self, frames: Iterable[int], movable: bool, tag: str, contiguous: bool = False
    ) -> Allocation:
        frames = list(frames)
        owner = self._owner
        runs = _runs(sorted(set(frames)))
        for start, stop in runs:
            if owner[start:stop].count(None) != stop - start:
                bad = next((f for f in frames if owner[f] is not None), start)
                raise MemoryError_("frame %d is not free" % bad)
        alloc = Allocation(
            alloc_id=next(self._ids),
            frames=frames,
            movable=movable,
            tag=tag,
            contiguous=contiguous,
        )
        for start, stop in runs:
            owner[start:stop] = [alloc.alloc_id] * (stop - start)
        self._allocations[alloc.alloc_id] = alloc
        return alloc

    def release(self, alloc: Allocation) -> None:
        if alloc.freed:
            raise MemoryError_("allocation %d already freed" % alloc.alloc_id)
        owner = self._owner
        alloc_id = alloc.alloc_id
        runs = _runs(sorted(alloc.frames))
        for start, stop in runs:
            if owner[start:stop].count(alloc_id) != stop - start:
                bad = next((f for f in alloc.frames if owner[f] != alloc_id), start)
                raise MemoryError_("frame %d not owned by allocation %d" % (bad, alloc_id))
        for start, stop in runs:
            owner[start:stop] = [None] * (stop - start)
        alloc.freed = True
        del self._allocations[alloc_id]

    def release_frames(self, alloc: Allocation, frames: Iterable[int]) -> None:
        """Release a subset of an allocation's granules (CMA shrink path)."""
        frames = set(frames)
        for frame in frames:
            if not alloc.owns(frame):
                raise MemoryError_("frame %d not in allocation %d" % (frame, alloc.alloc_id))
            self._owner[frame] = None
        alloc.frames -= frames
        if not alloc.frames:
            alloc.freed = True
            del self._allocations[alloc.alloc_id]

    def move_frame(self, alloc: Allocation, old: int, new: int) -> None:
        """Retarget one granule of a movable allocation (migration; the
        caller copies its bytes)."""
        if not alloc.movable:
            raise MemoryError_("cannot migrate unmovable allocation %d" % alloc.alloc_id)
        if self._owner[new] is not None:
            raise MemoryError_("migration destination %d not free" % new)
        if self._owner[old] != alloc.alloc_id:
            raise MemoryError_("frame %d not owned by allocation %d" % (old, alloc.alloc_id))
        self._owner[new] = alloc.alloc_id
        self._owner[old] = None
        alloc.replace_frame(old, new)


def _runs(frames: List[int]) -> List[Tuple[int, int]]:
    """The maximal runs of consecutive frames in the strictly ascending
    ``frames``, in order, as half-open ``(start, stop)`` pairs.

    ``frames[i + j] == frames[i] + j`` holds for every ``j`` below the
    length of the run that starts at ``i`` and, as the list strictly
    ascends, for none past it: each run's end is found by galloping to a
    ``j`` where the test fails, then bisecting, in time logarithmic in
    the run's length.
    """
    runs = []
    n = len(frames)
    i = 0
    while i < n:
        start = frames[i]
        lo, hi = 0, 1  # the test holds at lo; at hi it fails or runs off the end
        while i + hi < n and frames[i + hi] == start + hi:
            lo, hi = hi, 2 * hi
        hi = min(hi, n - i)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if frames[i + mid] == start + mid:
                lo = mid
            else:
                hi = mid
        runs.append((start, start + hi))
        i += hi
    return runs
