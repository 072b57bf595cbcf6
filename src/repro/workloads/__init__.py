"""Evaluation workloads: prompts, NN apps, Geekbench, memory stress."""

from .fleet import (
    FleetRequest,
    FleetTenantSpec,
    generate_fault_schedule,
    generate_fleet_trace,
)
from .geekbench import GEEKBENCH_SUITE, GeekbenchApp, migration_slowdown, run_suite
from .nn_apps import MOBILENET_V1, NNAppRunner, NNAppSpec, YOLOV5S
from .prompts import BENCHMARKS, Prompt, benchmark_names, generate_prompts
from .stress import MemoryStress
from .traces import (
    PressurePhase,
    TenantRequest,
    TenantSpec,
    TraceEvent,
    generate_multitenant_trace,
    generate_pressure_phases,
    generate_trace,
)

__all__ = [
    "BENCHMARKS",
    "FleetRequest",
    "FleetTenantSpec",
    "GEEKBENCH_SUITE",
    "GeekbenchApp",
    "MemoryStress",
    "MOBILENET_V1",
    "NNAppRunner",
    "NNAppSpec",
    "PressurePhase",
    "Prompt",
    "TenantRequest",
    "TenantSpec",
    "TraceEvent",
    "YOLOV5S",
    "benchmark_names",
    "generate_fault_schedule",
    "generate_fleet_trace",
    "generate_multitenant_trace",
    "generate_pressure_phases",
    "generate_prompts",
    "generate_trace",
    "migration_slowdown",
    "run_suite",
]
