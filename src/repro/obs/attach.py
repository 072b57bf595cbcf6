"""Attach observability to a running stack, mirroring fault arming.

Components expose ``metrics`` / ``recorder`` attributes (None by
default) and consult them at their instrumentation points — the same
convention :class:`~repro.faults.injector.FaultInjector` uses for
``fault_injector``.  :func:`instrument` walks a stack (or a system
exposing one via ``.stack``) and sets both on every instrumented
component, so a single call makes the whole platform observable:

    obs = instrument(system)
    system.run_infer(64, 8)
    print(obs.registry.render())
"""

from __future__ import annotations

from .recorder import FlightRecorder
from .registry import MetricsRegistry

__all__ = ["Observability", "instrument"]

# Components that carry ``metrics``/``recorder`` attach points, per stack.
_SITED = (
    "kernel.fs.flash",
    "board.tzasc",
    "board.monitor",
    "tz_driver",
    "ree_npu",
    "tee_npu",
)


def _resolve(stack, dotted):
    obj = stack
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


class Observability:
    """One registry + one flight recorder covering a whole stack."""

    def __init__(self, sim, registry=None, recorder=None, recorder_capacity=512):
        self.sim = sim
        self.registry = registry if registry is not None else MetricsRegistry()
        self.recorder = (
            recorder if recorder is not None else FlightRecorder(sim, recorder_capacity)
        )

    def attach(self, target) -> "Observability":
        """Wire this bundle into every instrumented component of ``target``.

        ``target`` may be a :class:`~repro.stack.Stack` or any system
        object exposing one via ``.stack`` (``TZLLM``, ``REELLM``).
        Returns self for chaining.
        """
        stack = getattr(target, "stack", target)
        for dotted in _SITED:
            try:
                component = _resolve(stack, dotted)
            except AttributeError:
                continue
            component.metrics = self.registry
            component.recorder = self.recorder
        for region in stack.kernel.cma_regions.values():
            region.metrics = self.registry
            region.recorder = self.recorder
        # TAs take metrics for the pipeline phase accounting and the
        # recorder for retry provenance.
        for ta in getattr(target, "tas", {}).values():
            ta.metrics = self.registry
            ta.recorder = self.recorder
        # Remember the bundle on both handles so late-comers (gateway,
        # fault injector) can discover it.
        stack.observability = self
        if target is not stack:
            target.observability = self
        return self

    def detach(self, target) -> None:
        """Remove this bundle from ``target``'s components (data kept)."""
        stack = getattr(target, "stack", target)
        for dotted in _SITED:
            try:
                component = _resolve(stack, dotted)
            except AttributeError:
                continue
            component.metrics = None
            component.recorder = None
        for region in stack.kernel.cma_regions.values():
            region.metrics = None
            region.recorder = None
        for ta in getattr(target, "tas", {}).values():
            ta.metrics = None
            ta.recorder = None
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
