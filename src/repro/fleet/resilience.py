"""Fleet fault tolerance: lifecycle, gray detection, hedging budgets.

The routing tier in :mod:`repro.fleet.router` assumed devices only fail
*politely* — a lane breaker opens and the device steps out of rotation.
Real device fleets fail in worse ways: a hub loses power mid-decode and
every byte of secure-world state (parked KV, resident parameters, the
attested TA image) dies with it; a reboot wedges in a loop; attestation
rejects the rebuilt world; and the nastiest failure of all is *gray* —
the device answers everything, slowly, and no error ever fires.

This module supplies the machinery the router composes into an
availability story:

* :class:`DeviceLifecycle` — the per-device state machine
  ``UP → DOWN → REBOOTING → ATTESTING → UP`` (with ``DEGRADED`` as the
  prober's quarantine parking orbit), exported as the
  ``fleet_device_state`` gauge series;
* :class:`FleetFaultDriver` — evaluates the ``fleet.*`` sites of a
  seeded :class:`~repro.faults.plan.FaultPlan` on a virtual-time tick,
  crashes/grays devices, and walks them back up through reboot and
  attestation (both of which can themselves fail, per plan);
* :class:`HealthProber` — active virtual-time probe loops with
  timeout + EWMA latency scoring against a clean baseline; gray devices
  are quarantined (``DEGRADED``) out of the eligible set and re-admitted
  when their EWMA recovers;
* :class:`HedgeBudget` — a per-tenant token bucket (virtual-time
  refill) bounding speculative hedges and failover retries, so a sick
  fleet cannot amplify its own load 2x;
* :class:`ResilienceConfig` — every knob in one dataclass;
* :class:`FleetResilience` — the facade :meth:`Fleet.start_resilience`
  wires up.

Everything here is deterministic: fault decisions come from the plan's
per-site streams, devices are visited in sorted-id order, and probe
loops live on the simulated clock — a seeded chaos run replays
bit-for-bit (the fleet chaos suite asserts exactly that).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigurationError

__all__ = [
    "UP",
    "DEGRADED",
    "DOWN",
    "REBOOTING",
    "ATTESTING",
    "DEVICE_STATES",
    "DeviceLifecycle",
    "ResilienceConfig",
    "HedgeBudget",
    "HealthProber",
    "FleetFaultDriver",
    "FleetResilience",
]

# -- device lifecycle states ---------------------------------------------
UP = "up"  #: serving traffic
DEGRADED = "degraded"  #: quarantined by the prober (gray); drains, no new work
DOWN = "down"  #: crashed; secure-world state lost
REBOOTING = "rebooting"  #: firmware + OS boot (can loop, per plan)
ATTESTING = "attesting"  #: secure-world attestation (can fail, per plan)

#: state -> stable numeric code for the ``fleet_device_state`` gauge.
DEVICE_STATES: Dict[str, int] = {
    UP: 0,
    DEGRADED: 1,
    DOWN: 2,
    REBOOTING: 3,
    ATTESTING: 4,
}

#: the transitions the machine permits (anything else is a bug).
_TRANSITIONS = {
    UP: (DEGRADED, DOWN),
    DEGRADED: (UP, DOWN),
    DOWN: (REBOOTING,),
    REBOOTING: (REBOOTING, ATTESTING, DOWN),
    ATTESTING: (UP, REBOOTING, DOWN),
}


class DeviceLifecycle:
    """One device's availability state machine, on the shared clock.

    Transitions land in three places at once: the ``transitions`` list
    (tests), the ``fleet_device_state`` gauge labeled ``device=<id>``
    (dashboards/alerts), and the flight recorder when one is attached
    (postmortems).  Routing eligibility is simply ``state == UP``.
    """

    def __init__(self, sim, device_id: str, registry=None, recorder=None):
        self.sim = sim
        self.device_id = device_id
        self.registry = registry
        self.recorder = recorder
        self.state = UP
        self.since = sim.now
        #: (sim_time, new_state, reason) per transition.
        self.transitions: List[Tuple[float, str, str]] = []
        self.crashes = 0
        self.reboots = 0
        self.attest_failures = 0
        #: times the router drained this device's sessions/queue.
        self.drains = 0
        self._export()

    @property
    def routable(self) -> bool:
        return self.state == UP

    def to(self, state: str, reason: str = "") -> None:
        """Move to ``state`` (validated against the machine's edges)."""
        if state == self.state:
            return
        if state not in _TRANSITIONS[self.state]:
            raise ConfigurationError(
                "illegal lifecycle transition %s -> %s on %s"
                % (self.state, state, self.device_id)
            )
        self.state = state
        self.since = self.sim.now
        self.transitions.append((self.sim.now, state, reason))
        self._export()
        if self.registry is not None:
            self.registry.counter(
                "fleet_device_transitions_total",
                "Device lifecycle transitions, by device and new state.",
            ).inc(device=self.device_id, state=state)
        if self.recorder is not None:
            self.recorder.record(
                "fleet", "device.%s" % state, reason,
                device=self.device_id,
            )

    def _export(self) -> None:
        if self.registry is not None:
            self.registry.gauge(
                "fleet_device_state",
                "Device lifecycle state (0=up 1=degraded 2=down "
                "3=rebooting 4=attesting).",
            ).set(DEVICE_STATES[self.state], device=self.device_id)


@dataclass
class ResilienceConfig:
    """Every fault-tolerance knob of the routing tier, in one place.

    The defaults are tuned for the fleet benchmark's regime (interactive
    TTFT SLO of a few seconds, probe-visible gray slowdowns of 4x+);
    tests override freely.
    """

    # -- active probing (HealthProber) ---------------------------------
    #: seconds between probes of one device.
    probe_interval: float = 2.0
    #: a probe slower than this counts as timed out (and is clamped).
    probe_timeout: float = 5.0
    #: tiny prefill the analytic probe prices.
    probe_tokens: int = 8
    #: EWMA smoothing of probe latency.
    ewma_alpha: float = 0.4
    #: quarantine when EWMA exceeds ``factor x`` the clean baseline.
    quarantine_factor: float = 3.0
    #: re-admit a quarantined device when EWMA falls back under this.
    readmit_factor: float = 1.5
    # -- hedged retries (router) ---------------------------------------
    #: speculative second attempts on the next-ranked device.
    hedging: bool = True
    #: fire the hedge this fraction of the class TTFT SLO after routing
    #: (classes with no SLO never hedge) ...
    hedge_slo_fraction: float = 0.5
    #: ... unless an absolute delay is given, which wins.
    hedge_delay: Optional[float] = None
    #: per-tenant token bucket bounding hedges + non-crash failovers.
    hedge_budget_capacity: float = 8.0
    hedge_budget_refill_per_s: float = 0.1
    #: re-launches of a ticket whose every attempt failed.
    max_failovers: int = 3
    # -- fault driver / lifecycle timing -------------------------------
    #: seconds between fault-site evaluations per device.
    fault_check_interval: float = 1.0
    #: crash -> reboot start (power-cycle dead time).
    down_time: float = 2.0
    #: one reboot attempt (firmware + OS + TEE bring-up).
    reboot_time: float = 8.0
    #: one secure-world attestation round.
    attest_time: float = 2.0
    #: gray slowdown factor when the plan's spec carries none
    #: (``delay`` is reused as the factor; 0 means "use this default").
    gray_slowdown_default: float = 4.0
    #: gray episodes clear after this long when the spec has no window.
    gray_duration: float = 120.0

    def __post_init__(self):
        if self.probe_interval <= 0 or self.probe_timeout <= 0:
            raise ConfigurationError("probe interval/timeout must be positive")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ConfigurationError("ewma_alpha must be in (0, 1]")
        if self.readmit_factor > self.quarantine_factor:
            raise ConfigurationError(
                "readmit_factor must not exceed quarantine_factor "
                "(the hysteresis band would be inverted)"
            )
        if self.hedge_budget_capacity < 0 or self.hedge_budget_refill_per_s < 0:
            raise ConfigurationError("hedge budget must be non-negative")
        if self.max_failovers < 0:
            raise ConfigurationError("max_failovers must be non-negative")


class HedgeBudget:
    """Per-tenant token bucket on the virtual clock.

    Hedges and budget-charged failovers each cost one token; tokens
    refill continuously at ``refill_per_s`` up to ``capacity``.  Lazy
    accrual (computed from the last touch time) keeps the bucket free of
    timer processes, so an idle tenant costs nothing.
    """

    def __init__(self, sim, capacity: float, refill_per_s: float):
        self.sim = sim
        self.capacity = float(capacity)
        self.refill_per_s = float(refill_per_s)
        self._tokens: Dict[str, float] = {}
        self._touched: Dict[str, float] = {}
        self.taken: Dict[str, int] = {}
        self.denied: Dict[str, int] = {}

    def tokens(self, tenant: str) -> float:
        now = self.sim.now
        level = self._tokens.get(tenant, self.capacity)
        since = self._touched.get(tenant, now)
        return min(self.capacity, level + (now - since) * self.refill_per_s)

    def take(self, tenant: str) -> bool:
        """Spend one token if available; False (and counted) otherwise."""
        level = self.tokens(tenant)
        self._touched[tenant] = self.sim.now
        if level >= 1.0:
            self._tokens[tenant] = level - 1.0
            self.taken[tenant] = self.taken.get(tenant, 0) + 1
            return True
        self._tokens[tenant] = level
        self.denied[tenant] = self.denied.get(tenant, 0) + 1
        return False


class HealthProber:
    """Active health probing: one virtual-time loop per device.

    Each tick the loop prices an analytic probe on the device
    (:meth:`DeviceNode.probe_latency` — TA invoke plus a tiny prefill,
    gray slowdown included), folds it into a per-device EWMA, and
    compares against the clean baseline:

    * ``UP`` and ``EWMA > quarantine_factor x baseline`` (or the probe
      timed out) → ``DEGRADED``: the device leaves the eligible set
      while its queue drains naturally — the gray-failure quarantine the
      breaker can never provide, because a slow device *returns
      successes*;
    * ``DEGRADED`` and ``EWMA <= readmit_factor x baseline`` → ``UP``
      (hysteresis keeps flappy devices out).

    Down/rebooting/attesting devices are observed (the probe "fails
    fast") but not scored; re-admission after a reboot is the fault
    driver's job, gated on attestation, not on probes.
    """

    def __init__(self, router, config: ResilienceConfig):
        self.router = router
        self.sim = router.sim
        self.config = config
        self._probes = router.registry.counter(
            "fleet_probes_total", "Health probes, by device and outcome."
        )

    def start(self, until: float) -> None:
        for device_id in sorted(self.router.devices):
            device = self.router.devices[device_id]
            self.sim.process(
                self._probe_loop(device, until), name="fleet-probe:%s" % device_id
            )

    def _probe_loop(self, device, until: float):
        cfg = self.config
        baseline = device.probe_latency(cfg.probe_tokens, clean=True)
        device.probe_baseline = baseline
        while self.sim.now < until:
            yield self.sim.timeout(cfg.probe_interval)
            state = device.lifecycle.state
            if state in (DOWN, REBOOTING, ATTESTING):
                self._probes.inc(device=device.device_id, outcome="down")
                continue
            latency = device.probe_latency(cfg.probe_tokens)
            observed = min(latency, cfg.probe_timeout)
            yield self.sim.timeout(observed)
            timed_out = latency >= cfg.probe_timeout
            previous = device.probe_ewma
            ewma = (
                observed
                if previous is None
                else previous + cfg.ewma_alpha * (observed - previous)
            )
            device.probe_ewma = ewma
            self._probes.inc(
                device=device.device_id,
                outcome="timeout" if timed_out else "ok",
            )
            # Re-read: the device may have crashed during the probe wait.
            state = device.lifecycle.state
            if state == UP and (
                timed_out or ewma > cfg.quarantine_factor * baseline
            ):
                device.lifecycle.to(DEGRADED, "probe-quarantine")
            elif state == DEGRADED and not timed_out and (
                ewma <= cfg.readmit_factor * baseline
            ):
                device.lifecycle.to(UP, "probe-readmit")


class FleetFaultDriver:
    """Evaluates the ``fleet.*`` fault sites and drives device lifecycle.

    One virtual-time loop ticks every ``fault_check_interval`` seconds,
    visiting devices in sorted-id order (so every site's stream position
    is a pure function of the tick count — the determinism invariant the
    whole chaos suite leans on):

    * ``fleet.device_crash`` — the device's secure world dies on the
      spot: in-flight requests get :class:`~repro.errors.DeviceLost` at
      their next clock edge, queued ones are drained back to the router,
      pinned sessions are cut loose owing a re-warm, and a reboot
      process starts;
    * ``fleet.gray_slowdown`` — the device's surrogate latencies inflate
      by the spec's severity (``delay`` as factor, jittered) with *no*
      error signal — only the prober can catch it;
    * ``fleet.reboot_loop`` / ``fleet.attest_fail`` — the way back up
      re-rolls reboot or attestation, so a device can stick in a
      reboot/attest loop for as long as the plan keeps failing it.
    """

    def __init__(self, router, injector, config: ResilienceConfig):
        self.router = router
        self.sim = router.sim
        self.injector = injector
        self.config = config
        #: device_id -> sim time at which its gray episode clears.
        self._gray_until: Dict[str, float] = {}

    def start(self, until: float) -> None:
        self.sim.process(self._tick_loop(until), name="fleet-fault-driver")

    def _tick_loop(self, until: float):
        cfg = self.config
        while self.sim.now < until:
            yield self.sim.timeout(cfg.fault_check_interval)
            for device_id in sorted(self.router.devices):
                device = self.router.devices[device_id]
                state = device.lifecycle.state
                if state not in (UP, DEGRADED):
                    continue  # already down; the reboot process owns it
                if self.injector.fires("fleet.device_crash", device_id):
                    self._crash(device)
                    continue
                self._tick_gray(device)

    def _tick_gray(self, device) -> None:
        cfg = self.config
        device_id = device.device_id
        clear_at = self._gray_until.get(device_id)
        if clear_at is not None:
            if self.sim.now >= clear_at:
                device.set_slowdown(1.0)
                del self._gray_until[device_id]
            return  # one episode at a time
        if not self.injector.fires("fleet.gray_slowdown", device_id):
            return
        factor = self.injector.severity("fleet.gray_slowdown", device_id)
        if factor <= 1.0:
            factor = cfg.gray_slowdown_default
        device.set_slowdown(factor)
        spec = self.injector.plan.spec("fleet.gray_slowdown", device_id)
        self._gray_until[device_id] = (
            spec.window[1]
            if spec is not None and spec.window is not None
            else self.sim.now + cfg.gray_duration
        )

    def _crash(self, device) -> None:
        self._gray_until.pop(device.device_id, None)
        device.crash()  # -> DOWN; epoch bump kills in-flight work
        self.router.handle_device_down(device, reason="device-down")
        self.sim.process(
            self._reboot(device), name="fleet-reboot:%s" % device.device_id
        )

    def _reboot(self, device):
        cfg = self.config
        yield self.sim.timeout(cfg.down_time)
        while True:
            device.lifecycle.to(REBOOTING, "reboot")
            device.lifecycle.reboots += 1
            yield self.sim.timeout(cfg.reboot_time)
            if self.injector.fires("fleet.reboot_loop", device.device_id):
                continue  # firmware wedged; power-cycle and try again
            device.lifecycle.to(ATTESTING, "attest")
            yield self.sim.timeout(cfg.attest_time)
            if self.injector.fires("fleet.attest_fail", device.device_id):
                device.lifecycle.attest_failures += 1
                continue  # measurement rejected: back to reboot
            break
        device.restore_up("attested")


class FleetResilience:
    """The facade: fault driver + prober over one router, one plan."""

    def __init__(self, router, plan=None, config: Optional[ResilienceConfig] = None):
        self.router = router
        self.config = config or router.resilience or ResilienceConfig()
        if router.resilience is None:
            # Starting the tier opts the router into hedging/failover too.
            router.resilience = self.config
            router.hedge_budget = HedgeBudget(
                router.sim,
                self.config.hedge_budget_capacity,
                self.config.hedge_budget_refill_per_s,
            )
        self.injector = plan.injector(router.sim) if plan is not None else None
        self.prober = HealthProber(router, self.config)
        self.driver = (
            FleetFaultDriver(router, self.injector, self.config)
            if self.injector is not None
            else None
        )

    def start(self, until: float) -> "FleetResilience":
        self.prober.start(until)
        if self.driver is not None:
            self.driver.start(until)
        return self
