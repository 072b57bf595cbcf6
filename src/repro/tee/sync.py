"""TEE-managed synchronization + shadow threads (§3.2).

Traditional TEEs give a TA one thread; TZ-LLM pairs each TA thread with a
*shadow thread* in the client application, scheduled by the REE.  Because
the REE scheduler is untrusted, it may resume TA threads in any order — so
the synchronization primitives (and the thread contexts) live in the TEE
OS.  A TA thread resumed "too early" by a malicious scheduler simply
blocks inside the TEE on the primitive; the execution order the TA
requested is preserved regardless of REE scheduling (the CPU-thread Iago
defense of §6).

The primitives are thin wrappers over simulator resources/events with
holder validation, plus an activation-latency charge for the CA→TA smc
hop on each shadow-thread start.
"""

from __future__ import annotations

from typing import Optional

from ..errors import ProtocolError
from ..sim import Process, Resource, Simulator

__all__ = ["TEEMutex", "TEECondition", "ShadowThreadPool"]


class TEEMutex:
    """Mutual exclusion with TEE-side holder bookkeeping."""

    def __init__(self, sim: Simulator, name: str = "mutex"):
        self.sim = sim
        self.name = name
        self._res = Resource(sim, capacity=1, name=name)
        self._holder: Optional[object] = None
        self._holder_req = None

    def acquire(self, who: object):
        """Generator: blocks until the mutex is held by ``who``."""
        req = self._res.request()
        yield req
        self._holder = who
        self._holder_req = req

    def release(self, who: object) -> None:
        if self._holder is not who:
            raise ProtocolError(
                "%r releasing mutex %s held by %r" % (who, self.name, self._holder)
            )
        req, self._holder_req = self._holder_req, None
        self._holder = None
        self._res.release(req)

    @property
    def holder(self) -> Optional[object]:
        return self._holder


class TEECondition:
    """Condition variable whose wait queue lives in the TEE."""

    def __init__(self, sim: Simulator, name: str = "cond"):
        self.sim = sim
        self.name = name
        self._waiters: list = []

    def wait(self):
        event = self.sim.event()
        self._waiters.append(event)
        return event  # caller yields it

    def notify_all(self) -> int:
        waiters, self._waiters = self._waiters, []
        for event in waiters:
            event.succeed()
        return len(waiters)


class ShadowThreadPool:
    """Spawns TA threads, charging the shadow-thread activation smc cost."""

    def __init__(self, sim: Simulator, activation_latency: float):
        self.sim = sim
        self.activation_latency = activation_latency
        self.activations = 0

    def spawn(self, generator, name: str = "ta-thread") -> Process:
        self.activations += 1

        def wrapped():
            yield self.sim.timeout(self.activation_latency)
            result = yield self.sim.process(generator, name=name)
            return result

        return self.sim.process(wrapped(), name="shadow:" + name)
