"""One fleet member: a serving gateway plus the caches routing feeds on.

A :class:`DeviceNode` wraps a per-device system (a fleet
:class:`~repro.fleet.surrogate.SurrogateLLM` by default, or a
full-fidelity :class:`~repro.core.system.TZLLM` when the experiment
warrants it) behind its own :class:`~repro.serve.gateway.ServeGateway`,
and tracks the two cache populations that make placement matter:

* **session KV** — a served turn leaves the session's KV resident, so a
  follow-up routed back here prefers prefilling only its *new* tokens;
* **prefix cache** — tenants sharing a system prompt reuse its prefill
  when they land where that prefix was recently computed.

Those caches live at the fleet layer by design: the TA model underneath
(surrogate or full) sees only the *effective* prompt length after cache
discounts, which keeps full-fidelity and surrogate devices routable by
the same policies.  All metrics land on a per-device child of the
fleet-wide registry, labeled ``device=<id>``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Sequence

from ..config import PlatformSpec, RK3588
from ..errors import ConfigurationError
from ..llm.models import ModelSpec
from ..serve.gateway import GatewayConfig, ServeGateway
from ..serve.request import ServeRequest
from ..workloads.fleet import FleetRequest
from .resilience import UP, DeviceLifecycle
from .surrogate import SurrogateConfig, SurrogateLLM

__all__ = ["DeviceNode"]

#: shared prefixes a device keeps computed (LRU).
PREFIX_CAPACITY = 16


class _ObsView:
    """The minimal observability bundle the gateway consumes."""

    __slots__ = ("registry", "recorder")

    def __init__(self, registry, recorder=None):
        self.registry = registry
        self.recorder = recorder


class DeviceNode:
    """A device in the fleet: gateway + platform + routing-relevant caches."""

    def __init__(
        self,
        device_id: str,
        models: Sequence[ModelSpec] = (),
        platform: PlatformSpec = RK3588,
        sim=None,
        system=None,
        gateway_config: Optional[GatewayConfig] = None,
        registry=None,
        recorder=None,
        surrogate_config: Optional[SurrogateConfig] = None,
        session_capacity: int = 64,
    ):
        if not device_id:
            raise ConfigurationError("device_id must be non-empty")
        self.device_id = device_id
        self.platform = platform
        if system is None:
            if not models:
                raise ConfigurationError(
                    "device %r needs models (or a prebuilt system)" % device_id
                )
            system = SurrogateLLM(
                models,
                platform=platform,
                config=surrogate_config,
                sim=sim,
                device_name=device_id,
            )
        self.system = system
        self.sim = system.sim
        #: per-device metrics: a child of the fleet registry when one is
        #: given (series labeled ``device=<id>``), else standalone.
        observability = None
        if registry is not None:
            observability = _ObsView(registry.child(device=device_id), recorder)
        self.gateway = ServeGateway(
            system,
            config=gateway_config,
            observability=observability,
            gateway_id=device_id,
        )
        #: availability state machine (UP/DEGRADED/DOWN/REBOOTING/ATTESTING),
        #: exported as the ``fleet_device_state`` gauge on the parent registry.
        self.lifecycle = DeviceLifecycle(
            self.sim, device_id, registry=registry, recorder=recorder
        )
        #: health-prober scoring (EWMA of probe latency; clean baseline).
        self.probe_ewma: Optional[float] = None
        self.probe_baseline: Optional[float] = None
        self.session_capacity = session_capacity
        #: session_id -> KV tokens resident here (LRU).
        self.sessions: "OrderedDict[str, int]" = OrderedDict()
        #: session_id -> model_id, parallel to ``sessions`` — the memory
        #: view prices a parked session's KV bytes at that model's rate.
        self.session_model: Dict[str, str] = {}
        #: prefix_id -> prefix tokens computed here (LRU).
        self.prefixes: "OrderedDict[str, int]" = OrderedDict()

    # -- routing signals ----------------------------------------------
    @property
    def routable(self) -> bool:
        """Lifecycle says this device may receive new traffic."""
        return self.lifecycle.state == UP

    def hosts(self, model_id: str) -> bool:
        return model_id in self.gateway.lanes

    def breaker_open(self, model_id: str) -> bool:
        lane = self.gateway.lanes.get(model_id)
        return lane is not None and lane.breaker.state == "open"

    def outstanding(self) -> int:
        """Queued plus running — the router's load signal, read from the
        counts the gateway keeps as requests queue, dispatch and finish."""
        gateway = self.gateway
        return gateway.queue_depth + gateway.running_count

    def model_warm(self, model_id: str) -> bool:
        """The model's parameters are resident (no cold restore needed):
        a surrogate TA's resident flag, or — on full-fidelity systems — a
        TA with cached parameter groups."""
        ta = self.system.tas.get(model_id)
        return bool(getattr(ta, "resident", False) or getattr(ta, "cached_groups", 0))

    def session_hit_tokens(self, request: FleetRequest) -> int:
        """KV tokens this device can reuse for the request's session."""
        stored = self.sessions.get(request.session_id)
        if stored is None:
            return 0
        return min(stored, request.prefix_tokens + request.context_tokens)

    def prefix_hit_tokens(self, request: FleetRequest) -> int:
        if not request.prefix_id or request.prefix_id not in self.prefixes:
            return 0
        return min(self.prefixes[request.prefix_id], request.prefix_tokens)

    def effective_prompt_tokens(self, request: FleetRequest) -> int:
        """Prompt length after discounting KV already resident here.

        A session hit subsumes the prefix hit (the session's KV starts
        with the prefix), so the larger of the two applies, never both.
        """
        discount = max(self.session_hit_tokens(request), self.prefix_hit_tokens(request))
        return max(1, request.prompt_tokens - discount)

    # -- submission ----------------------------------------------------
    def submit(self, request: FleetRequest, ctx=None) -> ServeRequest:
        """Admit one fleet request here (may raise AdmissionRejected).

        ``ctx`` is the router's per-attempt trace identity; without one
        the gateway mints its own (device-local) context.
        """
        served = self.gateway.submit(
            prompt_tokens=self.effective_prompt_tokens(request),
            output_tokens=request.output_tokens,
            model_id=request.model_id,
            priority=request.priority,
            tenant=request.tenant,
            ctx=ctx,
        )
        served.fleet_request = request
        served.device_id = self.device_id
        served.completion.callbacks.append(
            lambda _event: self._note_served(request, served)
        )
        return served

    def _note_served(self, request: FleetRequest, served: ServeRequest) -> None:
        if served.failed or served.cancelled:
            return
        # The turn's full KV (prefix + history + this turn + reply) is now
        # resident here; the session entry refreshes its LRU position.
        self.sessions.pop(request.session_id, None)
        self.sessions[request.session_id] = (
            request.prompt_tokens + request.output_tokens
        )
        self.session_model[request.session_id] = request.model_id
        while len(self.sessions) > self.session_capacity:
            evicted, _tokens = self.sessions.popitem(last=False)
            self.session_model.pop(evicted, None)
        if request.prefix_id:
            self.prefixes.pop(request.prefix_id, None)
            self.prefixes[request.prefix_id] = request.prefix_tokens
            while len(self.prefixes) > PREFIX_CAPACITY:
                self.prefixes.popitem(last=False)

    # -- lifecycle -----------------------------------------------------
    def crash(self) -> None:
        """The device dies: secure-world state is gone, lifecycle → DOWN.

        The session/prefix caches clear because the parked KV they index
        lived in secure memory — that loss *is* the re-warm cost the
        router charges when the sessions land elsewhere.  In-flight
        requests die at their next clock edge via the surrogate's epoch
        bump (:class:`~repro.errors.DeviceLost`).
        """
        self.lifecycle.crashes += 1
        self.lifecycle.to("down", "crash")
        self.sessions.clear()
        self.session_model.clear()
        self.prefixes.clear()
        crash = getattr(self.system, "crash", None)
        if crash is not None:
            crash()

    def restore_up(self, reason: str = "restored") -> None:
        """Post-attestation re-admission: fresh breakers, fresh probe score."""
        restore = getattr(self.system, "restore", None)
        if restore is not None:
            restore()
        self.gateway.reset_lanes()
        self.probe_ewma = None
        self.lifecycle.to(UP, reason)

    def set_slowdown(self, factor: float) -> None:
        """Gray-degrade (or restore, factor=1.0) the device's latencies."""
        system = self.system
        if hasattr(system, "slowdown"):
            system.slowdown = factor

    def probe_latency(self, probe_tokens: int = 8, clean: bool = False) -> float:
        """Analytic latency of a tiny health probe (see the surrogate)."""
        return self.system.probe_latency(probe_tokens, clean=clean)

    # -- health --------------------------------------------------------
    def health(self) -> Dict[str, object]:
        info = self.gateway.health()
        info["device_id"] = self.device_id
        info["platform"] = self.platform.name
        info["state"] = self.lifecycle.state
        info["outstanding"] = self.outstanding()
        info["sessions_resident"] = len(self.sessions)
        info["prefixes_resident"] = len(self.prefixes)
        return info
