"""Generic Interrupt Controller with the TrustZone security extension.

Each interrupt line is configured as Group 0 (secure, delivered to the
TEE) or Group 1 (non-secure, delivered to the REE).  Devices raise lines;
the GIC dispatches to whichever handler the owning world registered.
Reprogramming interrupt grouping is a secure-world-only operation — the
co-driver uses it to route NPU completion interrupts to the TEE while a
secure job runs (§4.3).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from ..errors import ConfigurationError, SecurityViolation
from .common import World

__all__ = ["GIC"]

Handler = Callable[[int, Any], None]


class GIC:
    """Interrupt controller: per-line secure/non-secure routing."""

    def __init__(self, config_time: float = 20e-6):
        self.config_time = config_time
        self._group: Dict[int, World] = {}
        self._handlers: Dict[Tuple[int, World], Handler] = {}
        self.config_ops = 0
        self.delivered: Dict[World, int] = {World.SECURE: 0, World.NONSECURE: 0}
        self.dropped = 0

    def register_line(self, irq: int, world: World = World.NONSECURE) -> None:
        if irq in self._group:
            raise ConfigurationError("irq %d already registered" % irq)
        self._group[irq] = world

    def set_group(self, world: World, irq: int, target: World) -> None:
        """Route ``irq`` to ``target`` world (secure world only)."""
        if not world.is_secure:
            raise SecurityViolation("GIC group programming from non-secure world")
        if irq not in self._group:
            raise ConfigurationError("unknown irq %d" % irq)
        self._group[irq] = target
        self.config_ops += 1

    def line_world(self, irq: int) -> World:
        try:
            return self._group[irq]
        except KeyError:
            raise ConfigurationError("unknown irq %d" % irq)

    def attach_handler(self, world: World, irq: int, handler: Handler) -> None:
        """A world installs its handler for ``irq``.

        Both worlds may have handlers installed simultaneously; delivery
        follows the line's *current* group, so flipping the group switches
        which handler fires.
        """
        if irq not in self._group:
            raise ConfigurationError("unknown irq %d" % irq)
        self._handlers[(irq, world)] = handler

    def raise_irq(self, irq: int, payload: Any = None) -> Optional[World]:
        """Device raises a line; dispatch per current grouping.

        Returns the world the interrupt was delivered to, or ``None`` if
        that world has no handler installed (counted in ``dropped``).
        """
        target = self.line_world(irq)
        handler = self._handlers.get((irq, target))
        if handler is None:
            self.dropped += 1
            return None
        self.delivered[target] += 1
        handler(irq, payload)
        return target
