"""Attach observability to a running stack, the way faults are armed.

Components expose ``metrics`` / ``recorder`` attributes (None by
default) and consult them at their instrumentation points — the same
convention :class:`~repro.faults.injector.FaultInjector` uses for
``fault_injector``.  :func:`instrument` sets both on every hook site of
a stack or system (:func:`repro.stack.hook_sites`), so a single call
makes the whole platform observable:

    obs = instrument(system)
    system.run_infer(64, 8)
    print(obs.registry.render())
"""

from __future__ import annotations

from ..stack import set_hook
from .recorder import FlightRecorder
from .registry import MetricsRegistry

__all__ = ["Observability", "instrument"]


class Observability:
    """One registry + one flight recorder covering a whole stack."""

    def __init__(self, sim, registry=None, recorder=None, recorder_capacity=512):
        self.sim = sim
        self.registry = registry if registry is not None else MetricsRegistry()
        self.recorder = (
            recorder if recorder is not None else FlightRecorder(sim, recorder_capacity)
        )

    def attach(self, target) -> "Observability":
        """Wire this bundle into every hook site of ``target``
        (:func:`~repro.stack.hook_sites`).

        ``target`` may be a :class:`~repro.stack.Stack` or any system
        object exposing one via ``.stack`` (``TZLLM``, ``REELLM``).
        Returns self for chaining.
        """
        stack = getattr(target, "stack", target)
        set_hook(target, "metrics", self.registry)
        set_hook(target, "recorder", self.recorder)
        # Remember the bundle on both handles so late-comers (gateway,
        # fault injector) can discover it.
        stack.observability = self
        if target is not stack:
            target.observability = self
        return self

    def detach(self, target) -> None:
        """Remove this bundle from ``target``'s components (data kept)."""
        stack = getattr(target, "stack", target)
        set_hook(target, "metrics", None)
        set_hook(target, "recorder", None)
        stack.observability = None
        if target is not stack:
            target.observability = None


def instrument(target, registry=None, recorder=None, recorder_capacity=512):
    """Attach a fresh (or supplied) :class:`Observability` to ``target``.

    Convenience wrapper: builds the bundle against the target's sim and
    calls :meth:`Observability.attach`.  Returns the bundle.
    """
    stack = getattr(target, "stack", target)
    obs = Observability(
        stack.sim,
        registry=registry,
        recorder=recorder,
        recorder_capacity=recorder_capacity,
    )
    return obs.attach(target)
