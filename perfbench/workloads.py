"""The three benchmark workloads.

Each workload has four parts:

* ``make_inputs`` — the seeded request list (not timed);
* ``setup`` — everything a user pays before the first measured request:
  building the stack or fleet, provisioning the model, the first cold
  start with its checkpoint save, and starting pressure or telemetry;
* ``run(env, inputs, phase)`` — the measured phase, returning one
  :class:`Served` row per offered request, in offered order; checks it
  makes between requests go inside ``phase.untimed()``;
* ``check`` — correctness and coverage: a list of failure messages,
  empty when the run may be reported.

Every number is read from outside the program: records the public calls
return, and counters the layers already expose (see ``snapshot``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro import PAPER_PRESSURE, TINYLLAMA, TZLLM
from repro.config import RK3588
from repro.core import BatchConfig
from repro.fleet import Fleet, FleetLoadGenerator, SurrogateLLM, scale_platform
from repro.llm import PromptSpec
from repro.llm.runtime import sample_token
from repro.serve import GatewayConfig, ServeGateway, default_policies
from repro.serve.errors import AdmissionRejected
from repro.workloads import FleetTenantSpec, generate_fleet_trace, generate_prompts

#: the gateway's class TTFT limits (interactive 5 s, batch 60 s).
SLO_LIMITS = {
    cls.label: policy.ttft_slo
    for cls, policy in default_policies().items()
    if policy.ttft_slo is not None
}


@dataclass
class Served:
    """One offered request, as the client saw it."""

    priority: str
    due: float
    output_tokens: int
    #: "done", "shed", "failed" or "cancelled".
    state: str = "done"
    ttft: Optional[float] = None
    step_times: List[float] = field(default_factory=list)
    token_ids: List[int] = field(default_factory=list)
    record: object = None
    #: the gateway request or fleet ticket behind it (open loops).
    handle: object = None
    #: simulated lateness of the arrival process (arrival - due).
    late: float = 0.0

    def fill(self, record, first_token_at: float) -> None:
        """Take a completed request's simulated outcome from its record."""
        self.record = record
        self.ttft = first_token_at - self.due
        if record.decode is not None:
            self.step_times = list(record.decode.step_times)
            self.token_ids = list(record.decode.token_ids)


class Workload:
    name = ""
    #: requests each set-up serves before measuring (the first cold start).
    WARMUP_REQUESTS = 1
    #: whether the decode step times are the program's (``decode.tbt_*``).
    REPORTS_TBT = True

    def __init__(self, seed: int, seconds: int):
        self.seed = seed
        self.seconds = seconds

    def expected_tokens(self, row: Served) -> List[int]:
        """The token stream a completed request must carry."""
        model = TINYLLAMA
        return [sample_token(model.model_id, i, model.vocab) for i in range(row.output_tokens)]

    # stacks / TAs / engines the counters are read from
    def stacks(self, env) -> list:
        return []

    def tas(self, env) -> list:
        return []

    def gateways(self, env) -> list:
        return []

    def telemetry(self, env):
        return None


# ----------------------------------------------------------------------
# restore_pressure: the paper's TTFT experiment, closed loop
# ----------------------------------------------------------------------
@dataclass
class _PressureEnv:
    system: TZLLM
    stress: object

    @property
    def sim(self):
        return self.system.sim


class RestorePressure(Workload):
    name = "restore_pressure"
    #: closed-loop requests per run: the fewest that give the p90 tail
    #: ten samples at or beyond it.
    REQUESTS = 100
    BENCHMARKS = ("ultrachat", "personachat", "droidtask")
    OUTPUT_TOKENS = (4, 16)

    def make_inputs(self):
        """``(prompt_tokens, output_tokens)`` pairs: prompts from the
        three benchmarks' length laws in equal shares, interleaved in
        seeded order."""
        per, extra = divmod(self.REQUESTS, len(self.BENCHMARKS))
        prompts = [
            prompt
            for i, name in enumerate(self.BENCHMARKS)
            for prompt in generate_prompts(name, per + (i < extra), self.seed)
        ]
        rng = random.Random("%s:%d" % (self.name, self.seed))
        rng.shuffle(prompts)
        return [(prompt.tokens, rng.randint(*self.OUTPUT_TOKENS)) for prompt in prompts]

    def setup(self) -> _PressureEnv:
        system = TZLLM(TINYLLAMA)
        system.run_infer(8, 0)  # first cold start: cold init + checkpoint save
        stress = system.apply_pressure(PAPER_PRESSURE[TINYLLAMA.model_id])
        return _PressureEnv(system, stress)

    def stacks(self, env):
        return [env.system.stack]

    def tas(self, env):
        return [env.system.ta]

    def run(self, env, inputs, phase) -> List[Served]:
        system = env.system
        sim = system.sim
        ta = system.ta
        params = system.stack.kernel.cma_regions[ta._region_name("params")]
        full_bytes = ta.plan.total_nominal_bytes
        tracer = phase.tracer
        served = []
        self.coverage_misses = []
        for index, (prompt_tokens, output_tokens) in enumerate(inputs):
            if tracer is not None:
                tracer.current_request = index
            if index:
                # the sweep below remaps every stress page: check the
                # pages the previous request migrated first.
                with phase.untimed():
                    self.verify_stress(env, index - 1)
            env.stress.refresh()  # one stress-ng sweep between requests
            migrated = params.total_migrated_bytes
            due = sim.now
            record = system.run_infer(prompt_tokens, output_tokens)
            row = Served("interactive", due, output_tokens)
            row.fill(record, record.first_token_at)
            served.append(row)
            if ta.kv_bytes_in_use != 0 or ta.data_region.allocated != 0:
                self.coverage_misses.append(
                    "request %d left KV %d B / data region %d B"
                    % (index, ta.kv_bytes_in_use, ta.data_region.allocated)
                )
            if record.cached_groups != 0 or record.pipeline.loaded_bytes != full_bytes:
                self.coverage_misses.append(
                    "request %d loaded %d of %d parameter bytes"
                    % (index, record.pipeline.loaded_bytes, full_bytes)
                )
            if params.total_migrated_bytes <= migrated:
                self.coverage_misses.append("request %d migrated no CMA pages" % index)
        with phase.untimed():
            self.verify_stress(env, len(inputs) - 1)
        if tracer is not None:
            tracer.current_request = -1
        return served

    def verify_stress(self, env, index: int) -> None:
        try:
            env.stress.verify_surviving_pages()
        except AssertionError as exc:
            self.coverage_misses.append("stress pages after request %d: %s" % (index, exc))

    def check(self, env, served, before, after) -> List[str]:
        return list(self.coverage_misses)


# ----------------------------------------------------------------------
# open loops: seeded multi-turn session traces
# ----------------------------------------------------------------------
class OpenLoop(Workload):
    """Sessions from :func:`repro.workloads.generate_fleet_trace`, at the
    offered load the tenant mix sets."""

    TENANTS: List[FleetTenantSpec] = []
    #: offered load relative to ``TENANTS``.
    RATE_FACTOR = 1.0
    #: simulated seconds of session starts per measured second.
    SIM_SECONDS_PER_SECOND = 1.0
    #: largest share by which a run's request count may miss the mix's
    #: expected count.
    LOAD_TOLERANCE = 0.02
    #: traces tried per seed before giving up.
    MAX_DRAWS = 1000

    def tenants(self) -> List[FleetTenantSpec]:
        return [
            replace(t, sessions_per_hour=t.sessions_per_hour * self.RATE_FACTOR)
            for t in self.TENANTS
        ]

    def make_inputs(self):
        """The first of the seed's traces whose request count lies within
        ``LOAD_TOLERANCE`` of the expected count.

        A ``serve_batch`` run holds about 200 sessions, so their Poisson
        starts and geometric turn counts alone move its offered load by
        up to a third between seeds, and with it SLO attainment and the
        TTFT tail by nearly their bounds (perfbench/README.md).  Pinning
        the count keeps the Poisson bursts inside a run.
        """
        duration = self.SIM_SECONDS_PER_SECOND * self.seconds
        tenants = self.tenants()
        expected = sum(t.sessions_per_hour * duration / 3600.0 * t.mean_turns for t in tenants)
        for draw in range(self.MAX_DRAWS):
            trace = generate_fleet_trace(duration, tenants, self.seed * self.MAX_DRAWS + draw)
            if abs(len(trace) - expected) <= self.LOAD_TOLERANCE * expected:
                return trace
        raise RuntimeError(
            "no trace of seed %d within %g of %.0f requests"
            % (self.seed, self.LOAD_TOLERANCE, expected)
        )


# ----------------------------------------------------------------------
# serve_batch: multi-tenant batched serving on one warm TA
# ----------------------------------------------------------------------
_TINY = TINYLLAMA.model_id


@dataclass
class _ServeEnv:
    system: TZLLM
    gateway: ServeGateway

    @property
    def sim(self):
        return self.system.sim


class ServeBatch(OpenLoop):
    name = "serve_batch"
    TENANTS = [
        # interactive tenants with system prompts that end mid-block
        # (16-token blocks): the shared tail block is copied on write.
        FleetTenantSpec(
            "chat", _TINY, "interactive", sessions_per_hour=260.0, mean_turns=4.0,
            mean_think_time=20.0, stickiness=1.0, prefix_tokens=100, prefix_pool=2,
            output_tokens=(4, 12),
        ),
        FleetTenantSpec(
            "copilot", _TINY, "interactive", sessions_per_hour=195.0, mean_turns=3.0,
            mean_think_time=15.0, stickiness=0.8, prefix_tokens=150, prefix_pool=3,
            output_tokens=(2, 8),
        ),
        FleetTenantSpec(
            "summarizer", _TINY, "batch", sessions_per_hour=78.0, workload="personachat",
            mean_turns=1.5, mean_think_time=60.0, stickiness=0.5, output_tokens=(12, 24),
        ),
        FleetTenantSpec(
            "indexer", _TINY, "background", sessions_per_hour=52.0, workload="droidtask",
            mean_turns=1.0, mean_think_time=45.0, stickiness=0.0, output_tokens=(16, 32),
        ),
    ]
    SIM_SECONDS_PER_SECOND = 60.0
    MAX_TOKENS = 2048

    def make_inputs(self):
        # a long sticky session outgrows the context window: drop the
        # turns that would not fit.
        limit = self.MAX_TOKENS - 64
        return [r for r in super().make_inputs() if r.prompt_tokens + r.output_tokens <= limit]

    def setup(self) -> _ServeEnv:
        system = TZLLM(
            TINYLLAMA,
            max_tokens=self.MAX_TOKENS,
            cache_fraction=1.0,
            batch_config=BatchConfig(max_batch_size=4, block_tokens=16, prefix_sharing=True),
        )
        system.run_infer(16, 2)  # first cold start; parameters stay resident
        gateway = ServeGateway(system, GatewayConfig(batching=True))
        return _ServeEnv(system, gateway)

    def stacks(self, env):
        return [env.system.stack]

    def tas(self, env):
        return [env.system.ta]

    def gateways(self, env):
        return [env.gateway]

    def run(self, env, inputs, phase) -> List[Served]:
        # The gateway's own LoadGenerator submits without a PromptSpec,
        # which prefix sharing needs, so the arrivals are driven here.
        sim = env.sim
        gateway = env.gateway
        pool = env.system.ta.batch_engine.pool
        base = sim.now
        served: List[Served] = []
        self.high_water_blocks = 0

        def arrivals():
            for request in inputs:
                due = base + request.at
                if sim.now < due:
                    yield sim.timeout(due - sim.now)
                row = Served(request.priority, due, request.output_tokens, late=sim.now - due)
                served.append(row)
                try:
                    row.handle = gateway.submit(
                        request.prompt_tokens,
                        request.output_tokens,
                        priority=request.priority,
                        tenant=request.tenant,
                        prompt_spec=PromptSpec.from_fleet_request(request),
                    )
                except AdmissionRejected:
                    row.state = "shed"
                # backing_blocks only grows between full drains, so
                # sampling at arrivals tracks its peak.
                self.high_water_blocks = max(self.high_water_blocks, pool.backing_blocks)
            pending = [
                row.handle.completion
                for row in served
                if row.handle is not None and not row.handle.completion.triggered
            ]
            if pending:
                yield sim.all_of(pending)

        sim.run_until(sim.process(arrivals(), name="perfbench-arrivals"))
        for row in served:
            request = row.handle
            if request is None:
                continue
            row.state = request.state
            if request.done:
                row.fill(request.record, request.first_token_at)
        return served

    def check(self, env, served, before, after) -> List[str]:
        failures = []
        system = env.system
        ta = system.ta
        engine = ta.batch_engine
        try:
            engine.pool.check_conservation()
        except AssertionError as exc:
            failures.append("KV pool conservation: %s" % exc)
        env.sim.run_until(env.sim.process(system.flush_kv()))
        if ta.kv_bytes_in_use != 0:
            failures.append("KV not drained after flush: %d B" % ta.kv_bytes_in_use)
        for row in served:
            record = row.record
            if record is None or record.resumed:
                continue
            shared = record.kv_hit_tokens + record.kv_cow_tokens + record.kv_miss_tokens
            if shared != record.prompt_tokens:
                failures.append(
                    "sharing record hit+cow+miss=%d != prompt %d"
                    % (shared, record.prompt_tokens)
                )
                break
        done = [row.record for row in served if row.record is not None]
        if after["core.loaded_bytes"] != before["core.loaded_bytes"]:
            failures.append(
                "loaded %d parameter bytes after warm-up"
                % (after["core.loaded_bytes"] - before["core.loaded_bytes"])
            )
        top = engine.config.max_batch_size
        if after["batch.occupancy"].get(top, 0) <= before["batch.occupancy"].get(top, 0):
            failures.append("batch never reached occupancy %d" % top)
        if not any(r.kv_hit_tokens for r in done):
            failures.append("no prefix-hit tokens")
        if not any(r.kv_cow_tokens for r in done):
            failures.append("no copy-on-write tokens")
        if after["batch.evictions"] == before["batch.evictions"]:
            failures.append("no request was parked")
        if after["batch.resumes"] == before["batch.resumes"]:
            failures.append("no parked request resumed")
        return failures


# ----------------------------------------------------------------------
# fleet_route: 8 surrogate devices behind the cache-aware router
# ----------------------------------------------------------------------
ASSISTANT = replace(TINYLLAMA, model_id="assistant-1.1b")
SUMMARIZER = replace(TINYLLAMA, model_id="summarizer-1.1b")
FLEET_MODELS = [ASSISTANT, SUMMARIZER]
_HUB = scale_platform(RK3588, "hub", cpu=1.6, npu=1.8, mem=1.5, flash=1.6)
_TABLET = scale_platform(RK3588, "tablet", cpu=1.25, npu=1.4, mem=1.2, flash=1.2)
_BUDGET = scale_platform(RK3588, "budget", cpu=0.7, npu=0.6, mem=0.75, flash=0.7)
FLEET_PLATFORMS = [
    ("hub-0", _HUB), ("hub-1", _HUB), ("tablet-0", _TABLET),
    ("phone-0", RK3588), ("phone-1", RK3588), ("phone-2", RK3588),
    ("budget-0", _BUDGET), ("budget-1", _BUDGET),
]
FLEET_TENANTS = [
    FleetTenantSpec(
        "chat", ASSISTANT.model_id, "interactive", sessions_per_hour=900.0,
        mean_turns=5.0, mean_think_time=30.0, stickiness=1.0, prefix_tokens=96,
        prefix_pool=4, output_tokens=(4, 12),
    ),
    FleetTenantSpec(
        "copilot", ASSISTANT.model_id, "interactive", sessions_per_hour=700.0,
        mean_turns=4.0, mean_think_time=15.0, stickiness=0.8, prefix_tokens=160,
        prefix_pool=8, output_tokens=(2, 8),
    ),
    FleetTenantSpec(
        "mail", SUMMARIZER.model_id, "batch", sessions_per_hour=350.0,
        workload="personachat", mean_turns=2.0, mean_think_time=60.0, stickiness=0.5,
        prefix_tokens=64, prefix_pool=2, output_tokens=(16, 32),
    ),
    FleetTenantSpec(
        "indexer", SUMMARIZER.model_id, "background", sessions_per_hour=250.0,
        workload="droidtask", mean_turns=1.5, mean_think_time=45.0, stickiness=0.0,
        output_tokens=(24, 48),
    ),
]


@dataclass
class _FleetEnv:
    fleet: Fleet

    @property
    def sim(self):
        return self.fleet.sim


class FleetRoute(OpenLoop):
    name = "fleet_route"
    TENANTS = FLEET_TENANTS
    WARMUP_REQUESTS = 0  # devices start warm
    #: the surrogate prices every token on a device bin at one constant.
    REPORTS_TBT = False
    RATE_FACTOR = 2.0
    SIM_SECONDS_PER_SECOND = 400.0
    #: telemetry keeps scraping this long past the last session start.
    DRAIN_SECONDS = 3600.0

    def setup(self) -> _FleetEnv:
        fleet = Fleet(FLEET_PLATFORMS, FLEET_MODELS, policy="cache-aware", warm=True)
        horizon = self.SIM_SECONDS_PER_SECOND * self.seconds + self.DRAIN_SECONDS
        fleet.start_telemetry(horizon)
        fleet.start_memory_view()
        return _FleetEnv(fleet)

    def gateways(self, env):
        return [device.gateway for device in env.fleet.devices.values()]

    def expected_tokens(self, row: Served) -> List[int]:
        # The surrogate prices tokens without sampling them: its streams
        # are the placeholder ids 0..n-1.
        return list(range(row.output_tokens))

    def telemetry(self, env):
        return env.fleet.telemetry

    def run(self, env, inputs, phase) -> List[Served]:
        if env.sim.now != 0.0:
            raise RuntimeError("the fleet load generator replays trace times from 0")
        loadgen = FleetLoadGenerator(env.fleet.router, inputs).run_blocking()
        tickets = {id(ticket.request): ticket for ticket in loadgen.admitted}
        served: List[Served] = []
        for request in inputs:
            row = Served(request.priority, request.at, request.output_tokens)
            served.append(row)
            ticket = tickets.get(id(request))
            if ticket is None:
                row.state = "shed"
                continue
            row.handle = ticket
            row.late = ticket.arrived_at - request.at
            row.state = ticket.state
            if ticket.done:
                row.fill(ticket.winner.record, ticket.first_token_at)
        return served

    def check(self, env, served, before, after) -> List[str]:
        failures = []
        offered = len(served)
        shed = sum(1 for row in served if row.state == "shed")
        admitted = [row.handle for row in served if row.handle is not None]
        done = sum(1 for t in admitted if t.done)
        failed = sum(1 for t in admitted if t.failed)
        if len(admitted) + shed != offered:
            failures.append("admitted %d + shed %d != offered %d" % (len(admitted), shed, offered))
        if done + failed != len(admitted):
            failures.append("completed %d + failed %d != admitted %d" % (done, failed, len(admitted)))
        per_device: Dict[str, int] = {}
        affinity = 0
        for ticket in admitted:
            first = ticket.attempts[0]
            per_device[first.device_id] = per_device.get(first.device_id, 0) + 1
            if first.prompt_tokens < ticket.request.prompt_tokens:
                affinity += 1
        idle = sorted(set(env.fleet.devices) - set(per_device))
        if idle:
            failures.append("no work admitted on %s" % ", ".join(idle))
        if affinity == 0:
            failures.append("no turn was placed by session or prefix affinity")
        full_stack = [
            d for d, device in env.fleet.devices.items()
            if not isinstance(device.system, SurrogateLLM)
        ]
        if full_stack:
            failures.append("full-stack TA built on %s" % ", ".join(full_stack))
        if after["obs.scrapes"] <= before["obs.scrapes"]:
            failures.append("telemetry never scraped")
        return failures


WORKLOADS = {w.name: w for w in (RestorePressure, ServeBatch, FleetRoute)}


# ----------------------------------------------------------------------
# layer counters, read before and after the measured phase
# ----------------------------------------------------------------------
def snapshot(workload: Workload, env) -> Dict[str, object]:
    """Counters the layers expose, summed over the workload's stacks."""
    ledger = env.sim.ledger
    c: Dict[str, object] = {
        "sim.steps": env.sim.steps,
        "sim.now": env.sim.now,
        "sim.resumes": sum(row["resumes"] for _name, row in ledger.rows()) if ledger is not None else 0,
        "hw.smc": 0,
        "hw.tzasc_ops": 0,
        "hw.npu_busy_s": 0.0,
        "ree.cma_migrated_bytes": 0,
        "ree.reclaimed_frames": 0,
        "ree.shadow_jobs": 0,
        "tee.switch_s": 0.0,
        "tee.secure_jobs": 0,
        "tee.reissues": 0,
        "crypto.decrypted_groups": 0,
        "core.loaded_bytes": 0,
        "batch.steps": 0,
        "batch.tokens": 0,
        "batch.prefill_chunks": 0,
        "batch.evictions": 0,
        "batch.resumes": 0,
        "batch.kv_extends": 0,
        "batch.occupancy": {},
        "kv.tree_evictions": 0,
        "serve.wasted_tokens": 0,
        "serve.rejected": 0,
        "obs.scrapes": 0,
    }
    for stack in workload.stacks(env):
        board = stack.board
        c["hw.smc"] += board.monitor.smc_count
        c["hw.tzasc_ops"] += board.tzasc.config_ops
        c["hw.npu_busy_s"] += board.npu.busy_time
        c["ree.cma_migrated_bytes"] += sum(
            region.total_migrated_bytes for region in stack.kernel.cma_regions.values()
        )
        c["ree.reclaimed_frames"] += stack.kernel.buddy.reclaimed_frames
        c["ree.shadow_jobs"] += stack.ree_npu.shadow_jobs_forwarded
        c["tee.switch_s"] += stack.tee_npu.world_switch_time
        c["tee.secure_jobs"] += stack.tee_npu.secure_jobs_completed
        c["tee.reissues"] += stack.tee_npu.reissues
    for ta in workload.tas(env):
        c["crypto.decrypted_groups"] += ta.backend.decrypted_groups
        c["core.loaded_bytes"] += ta.backend.loaded_nominal
        engine = ta.batch_engine
        if engine is None:
            continue
        c["batch.steps"] += engine.steps
        c["batch.tokens"] += engine.tokens_generated
        c["batch.prefill_chunks"] += engine.prefill_chunks
        c["batch.evictions"] += engine.evictions
        c["batch.resumes"] += engine.resumes
        c["batch.kv_extends"] += engine.kv_extends
        c["batch.occupancy"] = dict(engine.occupancy_steps)
        if engine.tree is not None:
            c["kv.tree_evictions"] += engine.tree.evictions
    for gateway in workload.gateways(env):
        c["serve.wasted_tokens"] += gateway.wasted_tokens
        c["serve.rejected"] += sum(
            sum(stats.rejected.values()) for stats in gateway.accountant.classes.values()
        )
    telemetry = workload.telemetry(env)
    if telemetry is not None:
        c["obs.scrapes"] = telemetry.collector.scrapes
    return c

