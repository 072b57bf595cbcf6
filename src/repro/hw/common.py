"""Shared hardware vocabulary: worlds, masters, address ranges."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import ConfigurationError

__all__ = ["World", "Master", "AddrRange"]


class World(enum.Enum):
    """TrustZone security state of a bus master."""

    SECURE = "secure"
    NONSECURE = "nonsecure"

    @property
    def is_secure(self) -> bool:
        return self is World.SECURE


@dataclass(frozen=True)
class Master:
    """A bus master: a CPU in some world, or a DMA-capable device."""

    name: str
    world: World
    is_device: bool = False

    @staticmethod
    def cpu(world: World) -> "Master":
        return Master("cpu", world, is_device=False)

    @staticmethod
    def device(name: str, world: World) -> "Master":
        return Master(name, world, is_device=True)


@dataclass(frozen=True)
class AddrRange:
    """A half-open physical address range ``[base, base + size)``."""

    base: int
    size: int

    def __post_init__(self):
        if self.base < 0 or self.size < 0:
            raise ConfigurationError("negative address or size")

    @property
    def end(self) -> int:
        return self.base + self.size

    @property
    def empty(self) -> bool:
        return self.size == 0

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end

    def covers(self, other: "AddrRange") -> bool:
        return self.base <= other.base and other.end <= self.end

    def overlaps(self, other: "AddrRange") -> bool:
        if self.empty or other.empty:
            return False
        return self.base < other.end and other.base < self.end

    def __repr__(self) -> str:
        return "AddrRange(0x%x..0x%x)" % (self.base, self.end)
