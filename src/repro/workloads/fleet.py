"""Fleet-scale request traces: tenant mix × devices × session stickiness.

A fleet trace is a stream of *sessions*, not isolated requests: a user
opens the assistant, exchanges a handful of turns (each turn's prompt
carries the whole conversation so far), thinks between turns, and leaves.
That structure is what makes routing interesting — a turn served on the
device that still holds the session's KV skips re-prefilling the context,
and tenants that share a system-prompt prefix benefit from landing where
that prefix is already cached.

Determinism mirrors :func:`~repro.workloads.traces.generate_multitenant_trace`:
every tenant draws from its own RNG keyed by ``(name, seed)``, so adding,
removing or reordering tenants never perturbs the rest of the trace, and
the merged stream is a pure function of ``(duration, tenants, seed)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence

from ..errors import ConfigurationError
from ..faults.plan import FaultSpec
from .prompts import BENCHMARKS

__all__ = [
    "FleetTenantSpec",
    "FleetRequest",
    "generate_fleet_trace",
    "generate_fault_schedule",
]


@dataclass(frozen=True)
class FleetTenantSpec:
    """One tenant population's offered load on the fleet.

    ``sessions_per_hour`` is the Poisson rate of *session starts*; each
    session runs ``~Geometric(1/mean_turns)`` turns with exponential
    think time between them.  ``stickiness`` sets how much conversation
    context each follow-up turn drags along: 1.0 replays the full history
    (every prior turn's prompt and reply), 0.0 makes turns independent.
    ``prefix_pool`` tenants share ``prefix_tokens`` of system prompt
    drawn from that many distinct prefixes — the unit of cross-session
    prefix caching.
    """

    name: str
    model_id: str
    priority: str  # "interactive" | "batch" | "background"
    sessions_per_hour: float
    workload: str = "ultrachat"  # per-turn new-token distribution
    output_tokens: tuple = (8, 48)
    mean_turns: float = 4.0
    mean_think_time: float = 20.0  # seconds between a reply and the next turn
    stickiness: float = 1.0
    prefix_tokens: int = 0
    prefix_pool: int = 1

    def validate(self) -> None:
        if self.sessions_per_hour < 0:
            raise ConfigurationError(
                "tenant %r session rate must be non-negative" % self.name
            )
        if self.priority not in ("interactive", "batch", "background"):
            raise ConfigurationError(
                "tenant %r priority must be interactive/batch/background" % self.name
            )
        if self.workload not in BENCHMARKS:
            raise ConfigurationError(
                "tenant %r has unknown workload %r" % (self.name, self.workload)
            )
        lo, hi = self.output_tokens
        if not 0 <= lo <= hi:
            raise ConfigurationError("tenant %r output_tokens range invalid" % self.name)
        if self.mean_turns < 1:
            raise ConfigurationError("tenant %r mean_turns must be >= 1" % self.name)
        if self.mean_think_time <= 0:
            raise ConfigurationError(
                "tenant %r mean_think_time must be positive" % self.name
            )
        if not 0.0 <= self.stickiness <= 1.0:
            raise ConfigurationError("tenant %r stickiness must be in [0,1]" % self.name)
        if self.prefix_tokens < 0 or self.prefix_pool < 1:
            raise ConfigurationError("tenant %r prefix config invalid" % self.name)


@dataclass(frozen=True)
class FleetRequest:
    """One turn of one session, as the router sees it.

    ``prompt_tokens`` (what the TA must prefill from scratch on a cold
    device) decomposes into the shared prefix, replayed conversation
    context, and this turn's new tokens — the router's cache models
    discount the first two when the target device already holds them.
    """

    at: float
    tenant: str
    session_id: str
    turn: int  # 1-based within the session
    model_id: str
    priority: str
    prefix_id: str  # "" when the tenant has no shared prefix
    prefix_tokens: int
    context_tokens: int  # replayed conversation history (past turns)
    new_tokens: int  # this turn's fresh user tokens
    output_tokens: int

    @property
    def prompt_tokens(self) -> int:
        return self.prefix_tokens + self.context_tokens + self.new_tokens


def generate_fleet_trace(
    duration: float,
    tenants: Sequence[FleetTenantSpec],
    seed: int = 7,
) -> List[FleetRequest]:
    """Merge every tenant's session stream into one sorted fleet trace.

    Sessions that start inside ``duration`` run to completion (their
    later turns may land past the horizon) so multi-turn affinity is
    measurable right up to the end of the trace.
    """
    if duration <= 0:
        raise ConfigurationError("duration must be positive")
    if not tenants:
        raise ConfigurationError("need at least one tenant")
    names = [t.name for t in tenants]
    if len(set(names)) != len(names):
        raise ConfigurationError("duplicate tenant names")
    requests: List[FleetRequest] = []
    for spec in tenants:
        spec.validate()
        if spec.sessions_per_hour == 0:
            continue  # muted tenant: valid, contributes nothing
        workload = BENCHMARKS[spec.workload]
        lo, hi = spec.output_tokens
        rng = random.Random("%s:%d" % (spec.name, seed))
        turn_continue = 1.0 - 1.0 / spec.mean_turns
        start = 0.0
        session_n = 0
        while True:
            start += rng.expovariate(spec.sessions_per_hour / 3600.0)
            if start >= duration:
                break
            session_n += 1
            session_id = "%s/s%06d" % (spec.name, session_n)
            prefix_id = ""
            if spec.prefix_tokens > 0:
                prefix_id = "%s/p%d" % (spec.name, rng.randrange(spec.prefix_pool))
            at = start
            context = 0
            turn = 0
            while True:
                turn += 1
                new_tokens = int(
                    rng.triangular(
                        workload.min_tokens, workload.max_tokens, workload.mode_tokens
                    )
                )
                output = rng.randint(lo, hi)
                requests.append(
                    FleetRequest(
                        at=at,
                        tenant=spec.name,
                        session_id=session_id,
                        turn=turn,
                        model_id=spec.model_id,
                        priority=spec.priority,
                        prefix_id=prefix_id,
                        prefix_tokens=spec.prefix_tokens,
                        context_tokens=context,
                        new_tokens=new_tokens,
                        output_tokens=output,
                    )
                )
                if rng.random() >= turn_continue:
                    break
                context = int(spec.stickiness * (context + new_tokens + output))
                at += rng.expovariate(1.0 / spec.mean_think_time)
    requests.sort(key=lambda r: (r.at, r.tenant, r.session_id, r.turn))
    return requests


def generate_fault_schedule(
    duration: float,
    device_ids: Sequence[str],
    seed: int = 7,
    crashes: int = 2,
    grays: int = 1,
    crash_span: tuple = (0.2, 0.8),
    gray_factor: float = 4.0,
    gray_duration_frac: float = 0.25,
) -> List[FaultSpec]:
    """A deterministic mid-trace fault schedule over a device fleet.

    Picks ``crashes`` distinct devices to crash (one targeted
    ``fleet.device_crash`` spec each, a one-shot window placed inside
    ``crash_span`` of the trace) and ``grays`` further devices to
    gray-degrade (``fleet.gray_slowdown`` with the slowdown factor in
    ``delay``).  Victims and times come from one RNG keyed
    ``("fleet-faults", seed)`` — independent of every tenant stream, so
    arming faults never perturbs the trace itself.  The windows are a
    few seconds wide with probability 1: the resilience tier's fault
    driver checks each site about once a simulated second, so each spec
    fires exactly once, at a time that depends only on ``(seed,
    duration, device order)``.
    """
    if duration <= 0:
        raise ConfigurationError("duration must be positive")
    ids = sorted(set(device_ids))
    if crashes < 0 or grays < 0 or crashes + grays > len(ids):
        raise ConfigurationError(
            "need %d victims but fleet has %d devices" % (crashes + grays, len(ids))
        )
    lo, hi = crash_span
    if not 0.0 <= lo < hi <= 1.0:
        raise ConfigurationError("crash_span must be a sub-interval of [0, 1]")
    rng = random.Random("fleet-faults:%d" % seed)
    victims = rng.sample(ids, crashes + grays)
    specs: List[FaultSpec] = []
    for device_id in victims[:crashes]:
        at = duration * rng.uniform(lo, hi)
        specs.append(
            FaultSpec(
                "fleet.device_crash",
                probability=1.0,
                window=(at, at + 5.0),
                max_fires=1,
                target=device_id,
            )
        )
    for device_id in victims[crashes:]:
        at = duration * rng.uniform(lo, hi)
        specs.append(
            FaultSpec(
                "fleet.gray_slowdown",
                probability=1.0,
                window=(at, at + duration * gray_duration_frac),
                max_fires=1,
                delay=gray_factor,
                target=device_id,
            )
        )
    return specs
