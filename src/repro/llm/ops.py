"""Operator cost model: a roofline over calibrated engine rates.

Every computation operator carries its FLOPs and the bytes it must touch
(weights streamed once, plus KV-cache reads for attention).  An engine
(CPU big cluster or NPU) is a (compute rate, memory bandwidth) pair; an
operator's duration is the roofline maximum of its compute time and its
streaming time.  This single model reproduces both regimes the paper
reports: prefill is FLOP-bound (NPU 12.5x), decode is bandwidth-bound
(NPU only 1.3x, paper §2.3), with small decode matmuls additionally
penalized by the per-job NPU launch latency (§7.1.2's explanation for
the modest decode gains).
"""

from __future__ import annotations

from ..config import PlatformSpec
from ..errors import ConfigurationError

__all__ = ["Engine", "CPU_ENGINE", "NPU_ENGINE", "op_duration", "prefill_seconds"]


class Engine:
    """Compute engine names used in operator placement."""

    CPU = "cpu"
    NPU = "npu"


CPU_ENGINE = Engine.CPU
NPU_ENGINE = Engine.NPU


def engine_rates(platform: PlatformSpec, engine: str):
    """(flops/s, bytes/s, fixed per-op latency) for an engine."""
    if engine == Engine.CPU:
        return platform.cpu.effective_gflops * 1e9, platform.cpu.mem_bandwidth, 0.0
    if engine == Engine.NPU:
        return (
            platform.npu.effective_gflops * 1e9,
            platform.npu.mem_bandwidth,
            platform.npu.job_launch_latency,
        )
    raise ConfigurationError("unknown engine %r" % engine)


def op_duration(flops: float, bytes_touched: float, platform: PlatformSpec, engine: str) -> float:
    """Roofline duration of one operator on one engine.

    The NPU's fixed launch latency is charged by the device itself at
    launch time, so it is *not* included here; use
    :func:`op_duration_with_launch` for analytic engine choice.
    """
    rate, bandwidth, _launch = engine_rates(platform, engine)
    return max(flops / rate, bytes_touched / bandwidth)


def op_duration_with_launch(
    flops: float, bytes_touched: float, platform: PlatformSpec, engine: str
) -> float:
    """Roofline duration plus the engine's fixed per-op launch cost."""
    rate, bandwidth, launch = engine_rates(platform, engine)
    return launch + max(flops / rate, bytes_touched / bandwidth)


def prefill_seconds(platform: PlatformSpec, model, tokens: int, use_npu: bool) -> float:
    """Analytic prefill time of ``tokens`` prompt tokens of ``model``:
    the price the fleet surrogate and the prefix-sharing analyzer both
    charge.  With the NPU, one launch plus the NPU and CPU-resident
    shares of the FLOPs; without, every FLOP on the big CPU cluster.
    Zero tokens cost nothing."""
    if tokens <= 0:
        return 0.0
    flops = model.prefill_flops(tokens)
    if use_npu:
        cpu_frac = platform.timing.cpu_resident_prefill_fraction
        npu_part = flops * (1.0 - cpu_frac) / (platform.npu.effective_gflops * 1e9)
        cpu_part = flops * cpu_frac / (platform.cpu.effective_gflops * 1e9)
        return platform.npu.job_launch_latency + npu_part + cpu_part
    return flops / (platform.cpu.effective_gflops * 1e9)
