"""The REE kernel: Linux-like memory management + filesystem wiring.

Owns the frame database, the buddy allocator, the CMA regions, and the
filesystem.  CMA regions are reserved at "boot" from the top of RAM
downwards; a configurable slice of unmovable boot allocations models the
resident kernel/system footprint outside the CMA regions.

Everything here runs in the non-secure world.  The TrustZone driver
(:mod:`repro.ree.tz_driver`) exposes the CMA to the TEE for secure-memory
ballooning.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..config import GiB, MiB, PlatformSpec
from ..errors import ConfigurationError, OutOfMemory
from ..hw.platform import Board
from ..sim import Simulator
from .buddy import BuddyAllocator
from .cma import CMARegion
from .filesystem import FileSystem
from .pages import Allocation, FrameDB
from .s2pt import S2PTState

__all__ = ["REEKernel"]

#: default simulated resident system footprint (kernel, services, UI).
DEFAULT_OS_FOOTPRINT = 1 * GiB


class REEKernel:
    """The Linux-like kernel: memory management + filesystem wiring."""

    def __init__(
        self,
        sim: Simulator,
        board: Board,
        granule: int = 1 * MiB,
        os_footprint: Optional[int] = None,
    ):
        self.sim = sim
        self.board = board
        self.spec: PlatformSpec = board.spec
        self.db = FrameDB(board.total_memory, granule)
        self.buddy = BuddyAllocator(self.db)
        self.fs = FileSystem(sim, board.flash)
        self.cma_regions: Dict[str, CMARegion] = {}
        self.s2pt = S2PTState(enabled=False)
        self._next_cma_top = self.db.n_frames
        self._finalized = False
        self._os_footprint = (
            DEFAULT_OS_FOOTPRINT if os_footprint is None else os_footprint
        )
        self._os_alloc: Optional[Allocation] = None

    # ------------------------------------------------------------------
    # boot-time layout
    # ------------------------------------------------------------------
    def reserve_cma(self, name: str, n_bytes: int) -> CMARegion:
        """Reserve a CMA region (boot-time; top of RAM, growing down)."""
        if self._finalized:
            raise ConfigurationError("CMA reservation after boot finalization")
        if name in self.cma_regions:
            raise ConfigurationError("CMA region %r already reserved" % name)
        n_frames = -(-n_bytes // self.db.granule)
        start = self._next_cma_top - n_frames
        if start < 0:
            raise OutOfMemory("not enough RAM for CMA region %r" % name)
        region = CMARegion(
            self.sim,
            self.db,
            self.buddy,
            self.board.memory,
            start_frame=start,
            n_frames=n_frames,
            spec=self.spec.memory,
            name=name,
        )
        self.cma_regions[name] = region
        self._next_cma_top = start
        return region

    def boot(self) -> None:
        """Finish boot: build the buddy free pool, charge the OS footprint."""
        if self._finalized:
            raise ConfigurationError("kernel already booted")
        self.buddy.finalize()
        self._finalized = True
        if self._os_footprint:
            frames = -(-self._os_footprint // self.db.granule)
            self._os_alloc = self.buddy.allocate(frames, movable=False, tag="os-resident")

    def _require_booted(self) -> None:
        if not self._finalized:
            raise ConfigurationError("kernel not booted; call boot()")

    # ------------------------------------------------------------------
    # allocation syscalls
    # ------------------------------------------------------------------
    def map_anonymous(self, n_bytes: int, tag: str = "anon") -> Allocation:
        """Untimed movable allocation (application mmap)."""
        self._require_booted()
        frames = -(-n_bytes // self.db.granule)
        return self.buddy.allocate(frames, movable=True, tag=tag)

    def alloc_unmovable(self, n_bytes: int, tag: str = "kernel") -> Allocation:
        self._require_booted()
        frames = -(-n_bytes // self.db.granule)
        return self.buddy.allocate(frames, movable=False, tag=tag)

    def free(self, alloc: Allocation) -> None:
        self.buddy.free(alloc)

    def alloc_timed(self, n_bytes: int, movable: bool = True, tag: str = "anon"):
        """Timed buddy allocation (generator) — the Fig. 3 buddy path.

        Pressure-insensitive except for the cheap reclaim of pressure
        pages when free memory runs out.
        """
        self._require_booted()
        frames = -(-n_bytes // self.db.granule)
        available = self.buddy.free_outside_cma + (
            self.buddy.free_inside_cma if movable else 0
        )
        deficit_bytes = max(0, frames - available) * self.db.granule
        duration = self.buddy.alloc_seconds(n_bytes, self.spec.memory)
        duration += deficit_bytes / self.spec.memory.reclaim_bw
        yield self.sim.timeout(duration)
        return self.buddy.allocate(frames, movable=movable, tag=tag)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def free_bytes(self) -> int:
        return (self.buddy.free_outside_cma + self.buddy.free_inside_cma) * self.db.granule

    @property
    def used_bytes(self) -> int:
        return self.db.used_bytes
