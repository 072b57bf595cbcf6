"""The runtime half of fault injection: per-site fire decisions.

Components expose a ``fault_injector`` attribute (None by default) and
consult it at their fault sites; :meth:`FaultInjector.arm` attaches one
injector to every hook site of a stack that declares it.  The injector
keeps per-site checked/fired counters so chaos tests can assert that a
plan actually exercised the paths it claims to.

Nothing here touches wall clocks or global RNG state: every decision
comes from the plan's per-site streams against the simulated clock, so a
seeded plan replays bit-for-bit.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from ..errors import ConfigurationError
from ..stack import set_hook
from .plan import KNOWN_SITES, FaultPlan

__all__ = ["FaultInjector"]


class FaultInjector:
    """Evaluates a :class:`~repro.faults.plan.FaultPlan` at fault sites."""

    def __init__(self, sim, plan: FaultPlan):
        self.sim = sim
        self.plan = plan
        self._streams: Dict[str, random.Random] = {
            site: plan.stream(site) for site in plan.specs
        }
        #: per-site decision counts (every consult, fired or not).
        self.checked: Dict[str, int] = {site: 0 for site in plan.specs}
        #: per-site fire counts.
        self.fired: Dict[str, int] = {site: 0 for site in plan.specs}

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------
    def fires(self, site: str, target: Optional[str] = None) -> bool:
        """One fault decision at ``site`` (advances the site's stream).

        ``target`` scopes the check to one named entity (a fleet device);
        an exact-target spec shadows an untargeted one, and each keeps
        its own stream so targeted chaos never reshuffles ambient chaos.
        """
        if site not in KNOWN_SITES:
            raise ConfigurationError("unknown fault site %r" % site)
        spec = self.plan.spec(site, target)
        if spec is None:
            return False
        key = spec.key
        self.checked[key] += 1
        if spec.max_fires is not None and self.fired[key] >= spec.max_fires:
            return False
        # Draw even outside the window so the stream position depends only
        # on the per-site check count, never on when checks happened.
        draw = self._streams[key].random()
        if spec.window is not None:
            start, end = spec.window
            if not start <= self.sim.now < end:
                return False
        if draw >= spec.probability:
            return False
        self.fired[key] += 1
        return True

    def stall_delay(self, site: str, target: Optional[str] = None) -> float:
        """Injected stall seconds at ``site`` (0.0 when it does not fire)."""
        spec = self.plan.spec(site, target)
        if spec is None:
            return 0.0
        if not self.fires(site, target):
            return 0.0
        key = spec.key
        extra = spec.jitter * self._streams[key].random() if spec.jitter else 0.0
        return spec.delay + extra

    def severity(self, site: str, target: Optional[str] = None) -> float:
        """``delay + jitter * U[0,1)`` drawn *without* a fire decision.

        Fleet sites reuse the stall parameters as severity knobs (a gray
        slowdown factor); callers that already know the site fired use
        this to draw the magnitude from the same stream.
        """
        spec = self.plan.spec(site, target)
        if spec is None:
            return 0.0
        key = spec.key
        extra = spec.jitter * self._streams[key].random() if spec.jitter else 0.0
        return spec.delay + extra

    def corrupt(self, site: str, data: bytes) -> bytes:
        """Flip one deterministic bit of ``data`` if ``site`` fires.

        Returns ``data`` unchanged (same object) when the site is quiet,
        so callers can detect injection by identity.
        """
        if not data or not self.fires(site):
            return data
        stream = self._streams[site]
        index = stream.randrange(len(data))
        bit = stream.randrange(8)
        corrupted = bytearray(data)
        corrupted[index] ^= 1 << bit
        return bytes(corrupted)

    # ------------------------------------------------------------------
    # arming
    # ------------------------------------------------------------------
    def arm(self, target) -> "FaultInjector":
        """Attach this injector to every fault site of ``target``: each
        hook site (:func:`~repro.stack.hook_sites`) that declares
        ``fault_injector``.

        ``target`` may be a :class:`~repro.stack.Stack` or any system
        object exposing one via ``.stack`` (``TZLLM``, ``REELLM``).
        Returns self for chaining.
        """
        set_hook(target, "fault_injector", self)
        return self

    def disarm(self, target) -> None:
        """Detach from ``target``'s fault sites (counters are kept)."""
        set_hook(target, "fault_injector", None)

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, int]]:
        """Deterministic per-site ``{checked, fired}`` export."""
        return {
            site: {"checked": self.checked[site], "fired": self.fired[site]}
            for site in sorted(self.plan.specs)
        }
