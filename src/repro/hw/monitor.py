"""EL3 secure monitor: the SMC path between worlds.

Software switches CPU security state by issuing an ``smc``.  The monitor
dispatches to a registered handler (the TEE OS registers handlers for
calls arriving from the REE, and vice versa for delegations back).  Each
smc charges the world-switch latency; handlers may themselves be
generators and consume further simulated time.

The monitor is deliberately tiny (trusted, per the threat model): it
routes calls and counts them, nothing more.
"""

from __future__ import annotations

from inspect import isgenerator
from typing import Any, Callable, Dict

from ..errors import ConfigurationError
from ..sim import Simulator
from .common import World

__all__ = ["SecureMonitor"]


class SecureMonitor:
    """The EL3 monitor: routes SMCs between worlds, charges the switch."""

    def __init__(self, sim: Simulator, smc_latency: float = 8e-6):
        self.sim = sim
        self.smc_latency = smc_latency
        self._handlers: Dict[str, Callable[..., Any]] = {}
        self.smc_count = 0
        self.smc_time = 0.0
        #: observability attach points (repro.obs.instrument).
        self.metrics = None
        self.recorder = None

    def register(self, func: str, handler: Callable[..., Any]) -> None:
        """Install the handler for SMC function id ``func``."""
        if func in self._handlers:
            raise ConfigurationError("smc handler %r already registered" % func)
        self._handlers[func] = handler

    def smc(self, caller_world: World, func: str, *args: Any, **kwargs: Any):
        """Issue an SMC; a generator to be yielded from a process.

        Usage inside a process::

            result = yield from monitor.smc(World.NONSECURE, "tz.invoke_ta", req)
        """
        handler = self._handlers.get(func)
        if handler is None:
            raise ConfigurationError("no smc handler for %r" % func)
        self.smc_count += 1
        self.smc_time += self.smc_latency
        metrics = self.metrics
        if metrics is not None:
            metrics.counter("smc_calls_total", "SMCs routed by the EL3 monitor").inc(
                func=func
            )
        start = self.sim.now
        if not self.sim.advance(self.smc_latency):
            yield self.sim.timeout(self.smc_latency)
        result = handler(*args, **kwargs)
        if isgenerator(result):
            result = yield self.sim.process(result, name="smc:%s" % func)
        if metrics is not None:
            metrics.histogram(
                "smc_latency_seconds", "End-to-end SMC latency (switch + handler)"
            ).observe(self.sim.now - start, func=func)
        return result
