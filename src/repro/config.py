"""Platform specification and timing calibration for the TZ-LLM models.

All constants with a physical meaning are calibrated against the numbers
the paper reports for the evaluation testbed (Orange Pi 5 Plus, RK3588):

======================================  =======================  ==========
quantity                                paper anchor             constant
======================================  =======================  ==========
flash sequential read                   2 GB/s (§2.4.2)          ``FlashSpec.seq_read_bw``
CMA migration, 1 thread                 1.9 GB/s (§2.4.2)        ``MemorySpec.cma_migration_bw``
CMA migration, 4 threads                3.8 GB/s (§2.4.2)        sqrt-scaling in :mod:`repro.ree.cma`
model decryption (8 GB)                 0.9 s (§2.3)             ``CryptoSpec.decrypt_bw_per_core``
framework cold init                     2.3 s (§2.3)             ``TimingSpec.framework_init``
CPU prefill, Llama-3-8B @512 tok        164 s (§2.3)             ``CPUSpec.effective_gflops``
NPU prefill speedup                     12.5x (§2.3)             ``NPUSpec.effective_gflops``
NPU decode speedup, Llama-3-8B          1.3x (§2.3)              ``NPUSpec.mem_bandwidth``
NPU driver detach-attach re-init        32 ms (§2.3)             ``NPUSpec.driver_reinit_time``
S2PT 4 KB overhead on Geekbench         avg 2.0% / max 9.8%      ``S2PTSpec``
======================================  =======================  ==========

Units: bytes, seconds, Hz.  ``GiB``-style helpers are binary; the paper's
"GB" figures for bandwidths are treated as decimal GB (1e9), matching how
vendors quote NVMe/DDR rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

__all__ = [
    "KiB",
    "MiB",
    "GiB",
    "GB",
    "PAGE_SIZE",
    "CPUSpec",
    "NPUSpec",
    "FlashSpec",
    "MemorySpec",
    "TrustZoneSpec",
    "CryptoSpec",
    "TimingSpec",
    "S2PTSpec",
    "PlatformSpec",
    "RK3588",
]

KiB = 1024
MiB = 1024 ** 2
GiB = 1024 ** 3
GB = 10 ** 9  # decimal, for bandwidths
PAGE_SIZE = 4 * KiB


@dataclass(frozen=True)
class CPUSpec:
    """CPU cluster: 4x Cortex-A76 (big) + 4x Cortex-A55 (little).

    ``effective_gflops`` is the aggregate useful rate of the big cluster on
    q8 transformer kernels, back-derived from the paper's 164 s CPU prefill
    of Llama-3-8B at 512 tokens (2 * 7.9e9 params * 512 tok / 164 s).
    """

    big_cores: int = 4
    little_cores: int = 4
    big_freq_hz: float = 2.4e9
    little_freq_hz: float = 1.8e9
    effective_gflops: float = 44.4  # aggregate, big cluster
    #: memory bandwidth usable by CPU decode kernels (weights streamed once
    #: per token); yields ~1.4 tok/s for 7.9 GB q8 weights.
    mem_bandwidth: float = 11.0 * GB


@dataclass(frozen=True)
class NPUSpec:
    """RK3588 NPU: 3 cores, 6 TOPS peak.

    ``effective_gflops`` is calibrated so that prefill with the NPU is
    12.5x faster than CPU-only prefill once the CPU-resident operators
    (norms, attention softmax) are accounted for.  ``job_launch_latency``
    is the fixed per-job cost (command fetch, kickoff, completion IRQ) that
    makes tiny decode matmuls underutilize the NPU — the paper's
    explanation for the modest decode gains.
    """

    cores: int = 3
    peak_tops: float = 6.0
    effective_gflops: float = 722.0
    mem_bandwidth: float = 14.3 * GB  # ~1.3x CPU decode bandwidth
    job_launch_latency: float = 1.0e-3
    #: full driver detach-attach between worlds (the rejected design).
    driver_reinit_time: float = 32.0e-3


@dataclass(frozen=True)
class FlashSpec:
    """1 TB NVMe SSD over PCIe 3.0 x4."""

    seq_read_bw: float = 2.0 * GB
    #: single aio stream cannot exceed the aggregate on this controller.
    per_stream_bw: Optional[float] = None
    read_latency: float = 80e-6  # per-request setup latency


@dataclass(frozen=True)
class MemorySpec:
    """16 GB LPDDR4X and the allocator cost model."""

    total_bytes: int = 16 * GiB
    page_size: int = PAGE_SIZE
    #: single-thread CMA migration throughput under pressure (copy+remap).
    cma_migration_bw: float = 1.9 * GB
    #: thread-scaling exponent: aggregate = bw * threads**alpha
    #: (1 thread -> 1.9 GB/s, 4 threads -> 3.8 GB/s as measured).
    cma_thread_scaling_alpha: float = 0.5
    #: buddy fast-path allocation rate for free 4 KiB pages (page-table and
    #: zeroing costs only; pressure-insensitive in Fig. 3).
    buddy_alloc_bw: float = 25.0 * GB
    #: total DRAM bandwidth; migration traffic steals from applications
    #: (drives the Fig. 16 interference model).
    bus_bandwidth: float = 17.0 * GB
    #: dropping reclaimable pages (clean page cache / stress-ng pressure
    #: pages) to make room — page-table work only, far cheaper than
    #: migration's copy (keeps the Fig. 3 buddy line nearly flat).
    reclaim_bw: float = 25.0 * GB


@dataclass(frozen=True)
class TrustZoneSpec:
    """TrustZone hardware programming costs."""

    tzasc_regions: int = 8
    smc_latency: float = 8e-6  # one EL3 world switch
    tzasc_config_time: float = 20e-6
    tzpc_config_time: float = 20e-6
    gic_config_time: float = 20e-6


@dataclass(frozen=True)
class CryptoSpec:
    """Model decryption cost: 8 GB in 0.9 s aggregate on 4 big cores."""

    decrypt_bw_per_core: float = 2.37 * GB
    checksum_bw_per_core: float = 6.0 * GB

    def aggregate_decrypt_bw(self, cores: int) -> float:
        return self.decrypt_bw_per_core * cores


@dataclass(frozen=True)
class TimingSpec:
    """Software-path constants."""

    framework_init: float = 2.3  # cold llama.cpp init + metadata + tokenizer
    checkpoint_restore: float = 0.20  # restore initialized state from flash
    checkpoint_save: float = 0.35
    kv_activation_alloc: float = 0.10  # per inference, not pipelined (minor)
    ta_invoke_latency: float = 30e-6  # CA -> TZ driver -> TEE OS -> TA
    io_delegate_latency: float = 25e-6  # TA -> CA aio round trip setup
    #: CPU fraction of prefill FLOPs that must stay on the CPU (norms,
    #: softmax/attention glue) when the NPU runs the matmuls.
    cpu_resident_prefill_fraction: float = 0.06


@dataclass(frozen=True)
class S2PTSpec:
    """Stage-2 page-table alternative (motivation experiment, Fig. 2)."""

    #: slowdown per unit of application memory intensity with fragmented
    #: 4 KiB stage-2 mappings; calibrated to max 9.8% / avg 2.0%.
    walk_overhead_factor: float = 0.098
    #: with 2 MiB huge mappings intact (before fragmentation).
    huge_page_overhead_factor: float = 0.012


@dataclass(frozen=True)
class PlatformSpec:
    """Complete testbed description, defaulting to the RK3588 board."""

    name: str = "rk3588-orangepi5plus"
    cpu: CPUSpec = field(default_factory=CPUSpec)
    npu: NPUSpec = field(default_factory=NPUSpec)
    flash: FlashSpec = field(default_factory=FlashSpec)
    memory: MemorySpec = field(default_factory=MemorySpec)
    trustzone: TrustZoneSpec = field(default_factory=TrustZoneSpec)
    crypto: CryptoSpec = field(default_factory=CryptoSpec)
    timing: TimingSpec = field(default_factory=TimingSpec)
    s2pt: S2PTSpec = field(default_factory=S2PTSpec)

    def with_memory(self, total_bytes: int) -> "PlatformSpec":
        return replace(self, memory=replace(self.memory, total_bytes=total_bytes))


#: The paper's testbed.
RK3588 = PlatformSpec()
