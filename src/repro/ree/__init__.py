"""The REE (normal-world) software stack: Linux-like kernel and drivers.

Memory management (:mod:`repro.ree.pages`, :mod:`repro.ree.buddy`,
:mod:`repro.ree.cma`), the filesystem (:mod:`repro.ree.filesystem`), the
TrustZone driver (:mod:`repro.ree.tz_driver`), the full NPU control-plane
driver (:mod:`repro.ree.npu_driver`), and the rejected S2PT design
(:mod:`repro.ree.s2pt`).
"""

from .buddy import BuddyAllocator
from .cma import CMARegion, MigrationRecord
from .filesystem import FileSystem
from .kernel import REEKernel
from .npu_driver import REENPUDriver, ShadowJob
from .pages import Allocation, FrameDB
from .s2pt import S2PTProtection, S2PTState, s2pt_slowdown
from .scheduler import REEScheduler, REEThread
from .tz_driver import TZDriver

__all__ = [
    "Allocation",
    "BuddyAllocator",
    "CMARegion",
    "FileSystem",
    "FrameDB",
    "MigrationRecord",
    "REEKernel",
    "REENPUDriver",
    "REEScheduler",
    "REEThread",
    "S2PTProtection",
    "S2PTState",
    "ShadowJob",
    "TZDriver",
    "s2pt_slowdown",
]
