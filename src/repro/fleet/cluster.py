"""One-stop fleet assembly: devices + router + observability on one clock.

:class:`Fleet` is the facade the examples and benchmarks use: give it
``(device_id, PlatformSpec)`` pairs and the model set, and it stands up
one shared :class:`~repro.sim.Simulator`, a fleet-wide
:class:`~repro.obs.MetricsRegistry` (per-device series through child
registries), one :class:`~repro.fleet.device.DeviceNode` per entry, the
:class:`~repro.fleet.router.FleetRouter`, and — on request — an
:class:`~repro.obs.AlertEngine` with the router's default burn-rate
rules and a :class:`~repro.obs.telemetry.FleetTelemetry` pipeline
(:meth:`Fleet.start_telemetry` / :meth:`Fleet.telemetry_snapshot`).
Tests that need finer control wire the pieces directly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..config import PlatformSpec
from ..errors import ConfigurationError
from ..llm.models import ModelSpec
from ..obs import FlightRecorder, MetricsRegistry
from ..obs.alerts import AlertEngine
from ..obs.telemetry import FleetTelemetry, TelemetryConfig
from ..serve.gateway import GatewayConfig
from ..sim import Simulator
from .device import DeviceNode
from .policies import PlacementPolicy
from .resilience import FleetResilience, ResilienceConfig
from .router import FleetRouter
from .surrogate import SurrogateConfig

__all__ = ["Fleet"]


class Fleet:
    """A simulated device cluster behind one routing tier."""

    def __init__(
        self,
        platforms: Sequence[Tuple[str, PlatformSpec]],
        models: Sequence[ModelSpec],
        policy: Union[PlacementPolicy, str] = "cache-aware",
        gateway_config: Optional[GatewayConfig] = None,
        surrogate_config: Optional[SurrogateConfig] = None,
        warm: bool = False,
        sim: Optional[Simulator] = None,
        registry: Optional[MetricsRegistry] = None,
        session_capacity: int = 64,
        resilience: Optional[ResilienceConfig] = None,
        recorder: Optional[FlightRecorder] = None,
    ):
        if not platforms:
            raise ConfigurationError("a fleet needs at least one platform")
        self.sim = sim if sim is not None else Simulator()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.recorder = recorder
        self.models: List[ModelSpec] = list(models)
        self.devices: Dict[str, DeviceNode] = {}
        for device_id, platform in platforms:
            self.devices[device_id] = DeviceNode(
                device_id,
                models=models,
                platform=platform,
                sim=self.sim,
                gateway_config=gateway_config,
                registry=self.registry,
                recorder=recorder,
                surrogate_config=surrogate_config,
                session_capacity=session_capacity,
            )
        if warm:
            for device in self.devices.values():
                for model in models:
                    device.system.warm(model.model_id)
        self.router = FleetRouter(
            list(self.devices.values()),
            policy=policy,
            registry=self.registry,
            resilience=resilience,
            recorder=recorder,
        )
        self.alert_engine: Optional[AlertEngine] = None
        self.resilience: Optional[FleetResilience] = None
        self.telemetry: Optional[FleetTelemetry] = None
        self.memory = None

    # -- conveniences --------------------------------------------------
    def device(self, device_id: str) -> DeviceNode:
        try:
            return self.devices[device_id]
        except KeyError:
            raise ConfigurationError("no device %r in the fleet" % device_id)

    def route(self, request):
        return self.router.route(request)

    def health(self) -> Dict[str, object]:
        info = self.router.health()
        if self.alert_engine is not None:
            info["alerts_firing"] = self.alert_engine.firing()
            info["healthy"] = info["healthy"] and not info["alerts_firing"]
        if self.telemetry is not None:
            # Windowed rates from the time-series store — "how fast is
            # the fleet shedding *now*", not "has it ever shed".
            info["rates"] = self.telemetry.fleet_rates()
        return info

    def start_alerts(
        self, until: float, rules=None, interval: float = 0.25
    ) -> AlertEngine:
        """Attach an alert engine over the fleet registry and start its
        virtual-time ticker (default rules: the router's burn rates).
        When telemetry is already started, the engine also gets the
        time-series store, enabling :class:`~repro.obs.RateRule`\\ s."""
        if self.alert_engine is not None:
            raise ConfigurationError("alert engine already started")
        self.alert_engine = AlertEngine(
            self.sim,
            self.registry,
            rules=list(rules) if rules is not None else self.router.default_alert_rules(),
            interval=interval,
            store=None if self.telemetry is None else self.telemetry.store,
        )
        self.alert_engine.start(until)
        return self.alert_engine

    # -- telemetry ------------------------------------------------------
    def start_telemetry(
        self, until: float, config: Optional[TelemetryConfig] = None
    ) -> FleetTelemetry:
        """Stand up the telemetry pipeline (collector + store + tenant
        accountant + tail sampler) and start the virtual-time scrape
        loop.  Call before ``start_alerts`` to enable rate rules."""
        if self.telemetry is not None:
            raise ConfigurationError("telemetry already started")
        self.telemetry = FleetTelemetry(
            self.router,
            config=config,
            kv_bytes_per_token={
                m.model_id: m.kv_bytes_per_token() for m in self.models
            },
        )
        self.telemetry.start(until)
        return self.telemetry

    def telemetry_snapshot(self, window: Optional[float] = None) -> Dict[str, object]:
        """The operator snapshot (see :meth:`FleetTelemetry.snapshot`)."""
        if self.telemetry is None:
            raise ConfigurationError("telemetry not started (call start_telemetry)")
        return self.telemetry.snapshot(window)

    def start_memory_view(self):
        """Attach the fleet memory observatory (repro.obs.memory).

        Rides the telemetry scrape loop: the view refreshes inside every
        scrape (``pre_scrape``), so its gauges land in the same
        :class:`~repro.obs.telemetry.TimeSeriesStore` samples as the
        serving series.  Requires :meth:`start_telemetry` first.
        """
        if self.telemetry is None:
            raise ConfigurationError(
                "memory view rides the scrape loop (call start_telemetry first)"
            )
        if self.memory is not None:
            raise ConfigurationError("memory view already started")
        from ..obs.memory import FleetMemoryView

        view = FleetMemoryView(self.router, self.models)
        self.memory = view
        self.router.memory_view = view
        self.telemetry.collector.pre_scrape.append(view.refresh)
        return view

    def start_resilience(
        self,
        until: float,
        plan=None,
        config: Optional[ResilienceConfig] = None,
    ) -> FleetResilience:
        """Start the fault-tolerance tier: health probing (always) and
        the fault driver (when a :class:`~repro.faults.plan.FaultPlan`
        with ``fleet.*`` sites is given).  Hedging/failover knobs come
        from the ``resilience`` config the fleet was built with (or
        ``config`` here)."""
        if self.resilience is not None:
            raise ConfigurationError("resilience tier already started")
        self.resilience = FleetResilience(self.router, plan=plan, config=config)
        self.resilience.start(until)
        return self.resilience

    def render_metrics(self) -> str:
        return self.registry.render()
