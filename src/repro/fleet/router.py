"""The fleet routing tier: placement, spillover, shedding, failover.

:class:`FleetRouter` fronts N :class:`~repro.fleet.device.DeviceNode`\\ s
sharing one simulator.  Per request it:

1. filters to *eligible* devices — those hosting the model, lifecycle
   ``UP`` (down/rebooting/attesting/quarantined devices are out of
   rotation), whose lane breaker is not open;
2. asks the placement policy for a preference ranking;
3. tries admission in rank order — a rejection (queue full, SLO shed,
   lane cooling down) *spills over* to the next choice rather than
   failing the request;
4. sheds at the fleet level (:class:`FleetSaturated`) only when every
   eligible device refused — recording failure provenance and a
   flight-recorder postmortem, like any other terminal failure.

Every routed request is wrapped in a :class:`FleetTicket` — the fleet's
unit of work, which may span several gateway attempts:

* **hedging** — when resilience is configured, a ticket that has not
  produced a first token by a fraction of its TTFT SLO launches one
  speculative attempt on the next-ranked device; first completion wins,
  the loser is cancelled mid-flight, and only the winner feeds SLO
  accounting (no double charge).  Hedges draw from a per-tenant
  :class:`~repro.fleet.resilience.HedgeBudget` so a gray fleet cannot
  amplify its own load;
* **failover** — an attempt that dies with
  :class:`~repro.errors.DeviceLost` (its device crashed underneath it)
  re-launches on an untried device for free; other terminal failures
  fail over on the tenant's budget, up to ``max_failovers``;
* **session re-warm** — a crash wipes the device's parked KV, so
  :meth:`handle_device_down` cuts the dead device's pins loose and the
  next turn of each orphaned session pays full prefill elsewhere; the
  re-prefilled context tokens are surfaced as
  ``fleet_rewarm_tokens_total``.

Multi-turn affinity lives here: a served turn pins its session to the
device (the KV holder), and the pin dissolves when that device sickens —
breaker open, lifecycle down, prober quarantine, or removal — counted by
reason on ``fleet_sessions_rebalanced``.

Fleet-wide counters land on the shared parent registry (unlabeled or
``device``-labeled), alongside the per-device children, so one export
and one :class:`~repro.obs.AlertEngine` cover the whole fleet;
:func:`FleetRouter.default_alert_rules` gives burn-rate coverage of the
fleet SLO, the shed rate, and the hedge rate (a hedge burn is the
cheapest early signal that part of the fleet went gray).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..errors import ConfigurationError
from ..obs import MetricsRegistry, TraceContext
from ..obs.alerts import BurnRateRule
from ..serve.errors import AdmissionRejected
from ..serve.request import ServeRequest
from ..sim import Event
from ..workloads.fleet import FleetRequest
from .device import DeviceNode
from .policies import PlacementPolicy, make_policy
from .resilience import HedgeBudget, ResilienceConfig

__all__ = ["FleetSaturated", "FleetTicket", "FleetRouter"]


class FleetSaturated(AdmissionRejected):
    """Every eligible device refused admission (or none was eligible)."""

    reason = "fleet-saturated"


class FleetTicket:
    """One fleet request's routing lifecycle, across gateway attempts.

    The ticket is what :meth:`FleetRouter.route` returns and what the
    load generator awaits.  It exposes the same read surface as the
    single :class:`~repro.serve.request.ServeRequest` the router used to
    return (``completion``/``done``/``ttft``/``slo_attained``/...), but
    those now describe the *winning* attempt — hedges and failovers stay
    internal.  SLO accounting is ticket-level for exactly that reason: a
    request that hedged is one request, not two.
    """

    def __init__(self, ticket_id: int, request: FleetRequest, sim, deadline=None):
        self.ticket_id = ticket_id
        self.request = request
        self.sim = sim
        self.arrived_at = sim.now
        #: arrival + the class TTFT SLO (None when the class has none) —
        #: same instant the gateway stamps on the attempt, so unhedged
        #: ticket accounting is numerically identical to attempt-level.
        self.deadline: Optional[float] = deadline
        self.completion: Event = Event(sim)
        #: every gateway attempt launched for this ticket, in order.
        self.attempts: List[ServeRequest] = []
        #: device ids already tried (hedges/failovers go elsewhere).
        self.tried: Set[str] = set()
        self.winner: Optional[ServeRequest] = None
        self.state = "pending"  # pending | done | failed | shed
        self.hedges = 0
        self.failovers = 0
        #: attempts cancelled out from under us by a device drain.
        self.drains = 0
        #: context tokens re-prefilled because the pinned device died.
        self.rewarm_tokens = 0
        #: terminal provenance: (sim_time, kind, classification) entries.
        self.failures: List[Tuple[float, str, str]] = []
        self.postmortem: Optional[tuple] = None

    # -- the read surface the loadgen/tests consume --------------------
    @property
    def done(self) -> bool:
        return self.state == "done"

    @property
    def failed(self) -> bool:
        return self.state == "failed"

    @property
    def _latest(self) -> Optional[ServeRequest]:
        return self.winner if self.winner is not None else (
            self.attempts[-1] if self.attempts else None
        )

    @property
    def device_id(self) -> Optional[str]:
        latest = self._latest
        return latest.device_id if latest is not None else None

    @property
    def prompt_tokens(self) -> Optional[int]:
        """Effective (cache-discounted) prompt the serving attempt paid."""
        latest = self._latest
        return latest.prompt_tokens if latest is not None else None

    @property
    def spilled_over(self) -> bool:
        latest = self._latest
        return bool(latest is not None and latest.spilled_over)

    @property
    def first_token_at(self) -> Optional[float]:
        return self.winner.first_token_at if self.winner is not None else None

    @property
    def ttft(self) -> float:
        if self.winner is None or self.winner.first_token_at is None:
            raise ValueError("ticket %d has no first token yet" % self.ticket_id)
        return self.winner.first_token_at - self.arrived_at

    @property
    def e2e_latency(self) -> float:
        if self.winner is None or self.winner.finished_at is None:
            raise ValueError("ticket %d not finished" % self.ticket_id)
        return self.winner.finished_at - self.arrived_at

    @property
    def slo_attained(self) -> Optional[bool]:
        if self.deadline is None:
            return None
        at = self.first_token_at
        return at is not None and at <= self.deadline


class FleetRouter:
    """Routes fleet requests across devices under a placement policy."""

    def __init__(
        self,
        devices: Sequence[DeviceNode],
        policy: Union[PlacementPolicy, str] = "cache-aware",
        registry: Optional[MetricsRegistry] = None,
        resilience: Optional[ResilienceConfig] = None,
        recorder=None,
    ):
        if not devices:
            raise ConfigurationError("a fleet needs at least one device")
        ids = [d.device_id for d in devices]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("duplicate device ids: %s" % sorted(ids))
        sims = {id(d.sim) for d in devices}
        if len(sims) != 1:
            raise ConfigurationError("all fleet devices must share one simulator")
        self.devices: Dict[str, DeviceNode] = {d.device_id: d for d in devices}
        self.sim = devices[0].sim
        self.policy = make_policy(policy) if isinstance(policy, str) else policy
        self.registry = registry if registry is not None else MetricsRegistry()
        #: hedging/failover knobs; None runs the pre-resilience router
        #: (single attempt per ticket, failures terminal) bit-for-bit.
        self.resilience = resilience
        self.recorder = recorder
        self.hedge_budget: Optional[HedgeBudget] = None
        if resilience is not None:
            self.hedge_budget = HedgeBudget(
                self.sim,
                resilience.hedge_budget_capacity,
                resilience.hedge_budget_refill_per_s,
            )
        #: session_id -> device_id of the KV holder (last served turn).
        self.pins: Dict[str, str] = {}
        #: attached by :class:`~repro.obs.telemetry.FleetTelemetry`: the
        #: terminal-ticket hooks feed the tenant accountant and the tail
        #: trace sampler.  ``None`` keeps every hook a no-op.
        self.telemetry = None
        #: attached by :meth:`~repro.fleet.cluster.Fleet.start_memory_view`:
        #: the fleet secure-memory observatory (repro.obs.memory).
        self.memory_view = None
        #: session_id -> dead device whose KV loss this session still owes
        #: a re-warm for (charged on its next routed turn).
        self._rewarm_owed: Dict[str, str] = {}
        self.rebalanced_sessions = 0
        self.tickets: List[FleetTicket] = []
        self.shed: List[FleetTicket] = []
        self.shed_reasons: Dict[str, int] = {}
        self.hedges = 0
        self.hedge_wins = 0
        self.failovers = 0
        self.drained_requests = 0
        self.rewarm_tokens_total = 0
        reg = self.registry
        self._requests_total = reg.counter(
            "fleet_requests_total", "requests offered to the fleet router"
        )
        self._routed_total = reg.counter(
            "fleet_routed_total", "requests admitted, by serving device"
        )
        self._spillover_total = reg.counter(
            "fleet_spillover_total", "admissions that fell through to a lower-ranked device"
        )
        # Unlabeled on purpose: the shed burn-rate rule reads the bare
        # series; per-reason counts live in ``shed_reasons``.
        self._shed_total = reg.counter(
            "fleet_shed_total", "requests refused by every eligible device"
        )
        self._rebalanced = reg.counter(
            "fleet_sessions_rebalanced",
            "session pins dissolved, by reason (breaker-open / device-down / "
            "quarantined / missing-device)",
        )
        self._slo_requests_total = reg.counter(
            "fleet_slo_requests_total", "completed fleet tickets with an SLO verdict"
        )
        self._slo_total = reg.counter(
            "fleet_slo_total", "fleet SLO verdicts, by outcome"
        )
        self._hedges_total = reg.counter(
            "fleet_hedges_total", "speculative hedge attempts launched"
        )
        self._hedge_wins_total = reg.counter(
            "fleet_hedge_wins_total", "tickets whose hedge beat the primary"
        )
        self._hedge_denied_total = reg.counter(
            "fleet_hedge_denied_total", "hedges refused by the tenant budget"
        )
        self._failovers_total = reg.counter(
            "fleet_failovers_total", "ticket re-launches after a failed attempt"
        )
        self._drained_total = reg.counter(
            "fleet_drained_total", "queued attempts drained off a down device"
        )
        self._rewarm_total = reg.counter(
            "fleet_rewarm_tokens_total",
            "context tokens re-prefilled because their KV holder died",
        )
        self._failed_total = reg.counter(
            "fleet_failed_total", "tickets that ended failed, by reason"
        )

    # -- routing -------------------------------------------------------
    def eligible(self, request: FleetRequest) -> List[DeviceNode]:
        return [
            d
            for d in self.devices.values()
            if d.routable
            and d.hosts(request.model_id)
            and not d.breaker_open(request.model_id)
        ]

    def route(self, request: FleetRequest) -> FleetTicket:
        """Place one request; raises :class:`FleetSaturated` on shed."""
        self._requests_total.inc()
        self._rebalance_if_pinned_sick(request)
        ticket = FleetTicket(len(self.tickets), request, self.sim)
        eligible = self.eligible(request)
        if not eligible:
            self._note_shed(ticket, "no-eligible-device")
            exc = FleetSaturated(
                "no eligible device hosts %r" % request.model_id
            )
            exc.ticket = ticket
            raise exc
        ranked = self.policy.rank(list(eligible), request, self)
        served = self._try_devices(ticket, ranked)
        if served is None:
            self._note_shed(ticket, "fleet-saturated")
            exc = FleetSaturated(
                "all %d eligible devices refused request for %r"
                % (len(ranked), request.model_id)
            )
            exc.ticket = ticket
            raise exc
        # The primary attempt's deadline (arrival + class TTFT SLO) is
        # the ticket's: later hedge/failover attempts race against it.
        ticket.deadline = served.deadline
        self.tickets.append(ticket)
        self._note_rewarm(ticket)
        self._maybe_arm_hedge(ticket)
        return ticket

    def _try_devices(
        self,
        ticket: FleetTicket,
        ranked: Sequence[DeviceNode],
        hedge: bool = False,
    ) -> Optional[ServeRequest]:
        """Try admission down the ranking; wire up the accepted attempt."""
        request = ticket.request
        for rank, device in enumerate(ranked):
            if device.device_id in ticket.tried:
                continue
            # Per-attempt trace identity: two racing legs of one hedged
            # ticket must not alias each other's flow in the trace view,
            # and per-device gateways each mint request ids from 1 — so
            # the router stamps the ticket id + attempt index + device.
            ctx = TraceContext(
                ticket.ticket_id,
                span_id=len(ticket.attempts),
                tenant=request.tenant,
                device=device.device_id,
            )
            try:
                served = device.submit(request, ctx=ctx)
            except AdmissionRejected:
                self._spillover_total.inc(device=device.device_id)
                continue
            served.ticket = ticket
            served.hedge = hedge
            if rank > 0:
                served.spilled_over = True
            ticket.attempts.append(served)
            ticket.tried.add(device.device_id)
            self._routed_total.inc(device=device.device_id)
            if not hedge:
                # Hedges pin only if they win; a speculative loser must
                # not steal the session from the KV holder.
                self.pins[request.session_id] = device.device_id
            served.completion.callbacks.append(
                lambda _event, ticket=ticket, served=served: self._attempt_done(
                    ticket, served
                )
            )
            return served
        return None

    # -- attempt outcomes ----------------------------------------------
    def _attempt_done(self, ticket: FleetTicket, served: ServeRequest) -> None:
        if served.cancelled or ticket.state != "pending":
            return  # a cancelled loser, or a straggler past the verdict
        if served.done:
            ticket.winner = served
            ticket.state = "done"
            if served.hedge:
                # The hedge won: its device now holds the session's KV.
                self.hedge_wins += 1
                self._hedge_wins_total.inc()
                self.pins[ticket.request.session_id] = served.device_id
            for other in ticket.attempts:
                if other is served or other.state in (
                    "done", "failed", "cancelled", "rejected",
                ):
                    continue
                loser = self.devices.get(other.device_id)
                if loser is not None:
                    loser.gateway.cancel(other, reason="hedge-loser")
            self._note_done(ticket)
            ticket.completion.succeed(ticket)
            return
        if served.failed:
            if served.failures:
                ticket.failures.append(served.failures[-1])
            live = [
                a
                for a in ticket.attempts
                if a.state not in ("done", "failed", "cancelled", "rejected")
            ]
            if live:
                return  # the other attempt may still win
            self._maybe_failover(ticket, served)

    def _maybe_failover(self, ticket: FleetTicket, failed: ServeRequest) -> None:
        if self.resilience is None:
            self._fail_ticket(ticket, "attempt-failed")
            return
        if ticket.failovers >= self.resilience.max_failovers:
            self._fail_ticket(ticket, "failover-exhausted")
            return
        # A DeviceLost attempt is the fleet's own fault (the device died
        # beneath it) — failing over is free.  Anything else burns the
        # tenant's budget, the same pool hedges draw from.
        device_lost = bool(ticket.failures) and ticket.failures[-1][1] == "DeviceLost"
        if not device_lost and not self.hedge_budget.take(ticket.request.tenant):
            self._fail_ticket(ticket, "failover-budget")
            return
        eligible = [
            d for d in self.eligible(ticket.request) if d.device_id not in ticket.tried
        ]
        if not eligible:
            self._fail_ticket(ticket, "failover-no-device")
            return
        ranked = self.policy.rank(eligible, ticket.request, self)
        served = self._try_devices(ticket, ranked)
        if served is None:
            self._fail_ticket(ticket, "failover-refused")
            return
        ticket.failovers += 1
        self.failovers += 1
        self._failovers_total.inc()
        if not device_lost and self.telemetry is not None:
            # The budget-charged failover spent a tenant hedge token.
            self.telemetry.note_budget_spend(ticket.request.tenant, served.device_id)
        self._note_rewarm(ticket)  # the relaunch is where the debt lands
        if self.recorder is not None:
            self.recorder.record(
                "fleet", "router.failover",
                "ticket %d -> %s" % (ticket.ticket_id, served.device_id),
                tenant=ticket.request.tenant,
                free=device_lost,
            )

    def _fail_ticket(self, ticket: FleetTicket, reason: str) -> None:
        ticket.state = "failed"
        ticket.failures.append((self.sim.now, "FleetFailed", reason))
        self._failed_total.inc(reason=reason)
        if self.telemetry is not None:
            self.telemetry.note_ticket_failed(ticket)
        if self.recorder is not None:
            self.recorder.record(
                "fleet", "router.failed", reason,
                tenant=ticket.request.tenant,
                model=ticket.request.model_id,
            )
            ticket.postmortem = self.recorder.tail()
        ticket.completion.succeed(ticket)

    # -- hedging -------------------------------------------------------
    def _maybe_arm_hedge(self, ticket: FleetTicket) -> None:
        cfg = self.resilience
        if cfg is None or not cfg.hedging:
            return
        if ticket.deadline is None:
            return  # no TTFT SLO: nothing to hedge against
        delay = (
            cfg.hedge_delay
            if cfg.hedge_delay is not None
            else cfg.hedge_slo_fraction * (ticket.deadline - ticket.arrived_at)
        )
        self.sim.process(
            self._hedge_timer(ticket, delay),
            name="fleet-hedge:t%d" % ticket.ticket_id,
        )

    def _hedge_timer(self, ticket: FleetTicket, delay: float):
        yield self.sim.timeout(delay)
        if ticket.state != "pending" or ticket.hedges:
            return
        if any(a.first_token_at is not None for a in ticket.attempts):
            return  # the primary already streamed: hedging can't help TTFT
        if not self.hedge_budget.take(ticket.request.tenant):
            self._hedge_denied_total.inc()
            return
        eligible = [
            d for d in self.eligible(ticket.request) if d.device_id not in ticket.tried
        ]
        if not eligible:
            return
        ranked = self.policy.rank(eligible, ticket.request, self)
        served = self._try_devices(ticket, ranked, hedge=True)
        if self.telemetry is not None:
            # The budget token is burned whether or not a device seated
            # the hedge — meter the spend where it actually landed.
            self.telemetry.note_budget_spend(
                ticket.request.tenant,
                served.device_id if served is not None else None,
            )
        if served is None:
            return
        ticket.hedges += 1
        self.hedges += 1
        self._hedges_total.inc()

    # -- device-down handling ------------------------------------------
    def handle_device_down(self, device: DeviceNode, reason: str = "device-down") -> None:
        """A device crashed: cut its pins loose, drain its queue, relaunch.

        Sessions pinned here lose their parked KV — each owes a re-warm,
        charged (and counted) when its next turn routes elsewhere.
        Queued attempts are cancelled out of the gateway and their
        tickets re-launched on surviving devices immediately; in-flight
        attempts die on their own via :class:`~repro.errors.DeviceLost`
        and take the failover path.
        """
        device.lifecycle.drains += 1
        cut = 0
        for session_id in sorted(self.pins):
            if self.pins[session_id] != device.device_id:
                continue
            del self.pins[session_id]
            self._rewarm_owed[session_id] = device.device_id
            cut += 1
        if cut:
            self.rebalanced_sessions += cut
            self._rebalanced.inc(cut, reason=reason)
        for served in device.gateway.drain_queued(reason=reason):
            self.drained_requests += 1
            self._drained_total.inc(device=device.device_id)
            ticket = served.ticket
            if ticket is None or ticket.state != "pending":
                continue
            ticket.drains += 1
            live = [
                a
                for a in ticket.attempts
                if a.state not in ("done", "failed", "cancelled", "rejected")
            ]
            if live:
                continue  # its hedge still runs elsewhere
            eligible = [
                d
                for d in self.eligible(ticket.request)
                if d.device_id not in ticket.tried
            ]
            relaunched = None
            if eligible:
                ranked = self.policy.rank(eligible, ticket.request, self)
                relaunched = self._try_devices(ticket, ranked)
            if relaunched is None:
                self._fail_ticket(ticket, "drain-no-capacity")
            else:
                self._note_rewarm(ticket)

    def _note_rewarm(self, ticket: FleetTicket) -> None:
        session_id = ticket.request.session_id
        if self._rewarm_owed.pop(session_id, None) is None:
            return
        # The KV the session lost covered its prefix + history; the new
        # device re-prefills those tokens from scratch (minus whatever
        # its own caches happen to discount — the counter reports the
        # debt, the clock charges the truth).
        rewarm = max(0, ticket.request.prompt_tokens - ticket.request.new_tokens)
        ticket.rewarm_tokens = rewarm
        if rewarm:
            self.rewarm_tokens_total += rewarm
            self._rewarm_total.inc(rewarm)

    # -- rebalance -----------------------------------------------------
    def _sick_reason(self, device: Optional[DeviceNode], model_id: Optional[str]) -> Optional[str]:
        """Why a pin on ``device`` should dissolve (None: keep it)."""
        if device is None:
            return "missing-device"
        state = device.lifecycle.state
        if state == "degraded":
            return "quarantined"
        if state != "up":
            return "device-down"
        if model_id is not None:
            if device.breaker_open(model_id):
                return "breaker-open"
        elif any(
            lane.breaker.state == "open"
            for lane in device.gateway.lanes.values()
        ):
            return "breaker-open"
        return None

    def _rebalance_if_pinned_sick(self, request: FleetRequest) -> None:
        pinned = self.pins.get(request.session_id)
        if pinned is None:
            return
        reason = self._sick_reason(self.devices.get(pinned), request.model_id)
        if reason is None:
            return
        del self.pins[request.session_id]
        self.rebalanced_sessions += 1
        self._rebalanced.inc(reason=reason)

    def rebalance(self) -> int:
        """Sweep every pin; dissolve those held by sick devices.

        A pin dissolves when its holder's breaker is open, its lifecycle
        left ``UP`` (down, rebooting, attesting, or prober-quarantined),
        or the device vanished.  Returns the number of sessions cut
        loose.  The router also rebalances lazily per arriving request;
        this sweep is for operators reacting to an alert.
        """
        cut = 0
        for session_id, device_id in list(self.pins.items()):
            reason = self._sick_reason(self.devices.get(device_id), None)
            if reason is None:
                continue
            del self.pins[session_id]
            cut += 1
            self._rebalanced.inc(reason=reason)
        if cut:
            self.rebalanced_sessions += cut
        return cut

    # -- terminal accounting -------------------------------------------
    def _note_shed(self, ticket: FleetTicket, reason: str) -> None:
        ticket.state = "shed"
        ticket.failures.append((self.sim.now, "FleetSaturated", reason))
        self.shed.append(ticket)
        self.shed_reasons[reason] = self.shed_reasons.get(reason, 0) + 1
        self._shed_total.inc()
        if self.telemetry is not None:
            self.telemetry.note_ticket_shed(ticket)
        if self.recorder is not None:
            self.recorder.record(
                "fleet", "router.shed", reason,
                tenant=ticket.request.tenant,
                model=ticket.request.model_id,
            )
            ticket.postmortem = self.recorder.tail()
        ticket.completion.succeed(ticket)

    def _note_done(self, ticket: FleetTicket) -> None:
        if self.telemetry is not None:
            self.telemetry.note_ticket_done(ticket)
        attained = ticket.slo_attained
        if attained is None:
            return
        self._slo_requests_total.inc()
        self._slo_total.inc(outcome="attained" if attained else "violated")

    # -- observability -------------------------------------------------
    def health(self) -> Dict[str, object]:
        """Fleet rollup of every device's :meth:`ServeGateway.health`."""
        devices = {
            device_id: self.devices[device_id].health()
            for device_id in sorted(self.devices)
        }
        return {
            "at": self.sim.now,
            "devices": devices,
            "queue_depth": sum(d["queue_depth"] for d in devices.values()),
            "completed": sum(d["completed"] for d in devices.values()),
            "failed": sum(d["failed"] for d in devices.values()),
            "shed": len(self.shed),
            "pinned_sessions": len(self.pins),
            "rebalanced_sessions": self.rebalanced_sessions,
            "hedges": self.hedges,
            "failovers": self.failovers,
            "healthy": all(d["healthy"] for d in devices.values()),
        }

    def default_alert_rules(
        self,
        slo_objective: float = 0.9,
        shed_objective: float = 0.95,
        hedge_objective: float = 0.9,
    ) -> List[BurnRateRule]:
        """Multi-window burn-rate rules over the fleet-level counters."""
        return [
            BurnRateRule(
                name="fleet-slo-burn",
                total_metric="fleet_slo_requests_total",
                bad_metric="fleet_slo_total",
                bad_labels=(("outcome", "violated"),),
                objective=slo_objective,
            ),
            BurnRateRule(
                name="fleet-shed-burn",
                total_metric="fleet_requests_total",
                bad_metric="fleet_shed_total",
                objective=shed_objective,
            ),
            # A hedge fires when a device sits on a request past its SLO
            # margin — the earliest fleet-wide symptom of gray failure.
            BurnRateRule(
                name="fleet-hedge-burn",
                total_metric="fleet_requests_total",
                bad_metric="fleet_hedges_total",
                objective=hedge_objective,
            ),
        ]
