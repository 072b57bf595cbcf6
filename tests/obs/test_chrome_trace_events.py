"""Every Chrome trace the package writes is well formed: each event has
``ph`` and ``ts``, the lane-naming metadata events included.

Three exporters write such traces: the pipeline tracer
(:mod:`repro.sim.trace`), the fleet tail sampler
(:mod:`repro.obs.telemetry`) and the memory counter lane
(:mod:`repro.obs.memory`).
"""

import json

import pytest

from repro import TINYLLAMA, TZLLM
from repro.config import RK3588
from repro.fleet import Fleet, FleetLoadGenerator
from repro.obs import MemoryTimeline, TelemetryConfig
from repro.workloads import FleetTenantSpec, generate_fleet_trace


def pipeline_trace():
    system = TZLLM(TINYLLAMA, trace=True)
    system.run_infer(32, 4)
    return system.tracer.to_chrome_trace()


def tail_sampler_trace():
    fleet = Fleet([("d0", RK3588), ("d1", RK3588)], [TINYLLAMA], warm=True)
    fleet.start_telemetry(until=120.0, config=TelemetryConfig(tail_sample_rate=1.0))
    tenant = FleetTenantSpec(
        "chat", TINYLLAMA.model_id, "interactive", sessions_per_hour=360.0
    )
    trace = generate_fleet_trace(60.0, [tenant], seed=1)
    FleetLoadGenerator(fleet.router, trace).run_blocking()
    return fleet.telemetry.sampler.to_chrome_trace()


def memory_lane_trace():
    system = TZLLM(TINYLLAMA)
    timeline = MemoryTimeline(system.sim).attach(system)
    system.run_infer(32, 4)
    return timeline.to_chrome_trace()


@pytest.mark.parametrize("export", [pipeline_trace, tail_sampler_trace, memory_lane_trace])
def test_every_event_has_ph_and_ts(export):
    events = json.loads(export())["traceEvents"]
    assert any(e["ph"] == "M" for e in events)
    assert any(e["ph"] != "M" for e in events)
    assert all("ph" in e and "ts" in e for e in events)
