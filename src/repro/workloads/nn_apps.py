"""REE neural-network applications that share the NPU (§7.3, Fig. 15).

YOLOv5s object detection and MobileNetV1 image classification, modelled
as periodic NPU jobs through the full REE driver's unified queue — so
when the LLM runs, both sides genuinely contend for the device and the
co-driver's switching costs show up in both throughputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..config import PlatformSpec
from ..errors import ConfigurationError
from ..hw.common import AddrRange
from ..hw.npu import NPUJob
from ..ree.npu_driver import REENPUDriver
from ..sim import Simulator

__all__ = ["NNAppSpec", "YOLOV5S", "MOBILENET_V1", "NNAppRunner"]


@dataclass(frozen=True)
class NNAppSpec:
    name: str
    #: dense FLOPs for one inference (one NPU job per frame).
    flops_per_inference: float
    #: CPU-side pre/post-processing per frame (image decode, NMS, ...).
    cpu_overhead: float = 0.5e-3

    def job_duration(self, platform: PlatformSpec) -> float:
        return self.flops_per_inference / (platform.npu.effective_gflops * 1e9)


YOLOV5S = NNAppSpec("YOLOv5s", flops_per_inference=7.2e9, cpu_overhead=1.5e-3)
MOBILENET_V1 = NNAppSpec("MobileNetV1", flops_per_inference=1.1e9, cpu_overhead=0.5e-3)


class NNAppRunner:
    """Submits frames back to back for a duration; reports throughput."""

    def __init__(
        self,
        sim: Simulator,
        platform: PlatformSpec,
        driver: REENPUDriver,
        spec: NNAppSpec,
        ctx: AddrRange,
    ):
        self.sim = sim
        self.platform = platform
        self.driver = driver
        self.spec = spec
        self.ctx = ctx
        self.completed = 0
        self.started_at: Optional[float] = None
        self.stopped_at: Optional[float] = None

    def _job(self) -> NPUJob:
        quarter = max(64, self.ctx.size // 4)
        return NPUJob(
            duration=self.spec.job_duration(self.platform),
            commands=AddrRange(self.ctx.base, quarter),
            io_pagetable=AddrRange(self.ctx.base + quarter, quarter),
            inputs=[AddrRange(self.ctx.base + 2 * quarter, quarter)],
            outputs=[AddrRange(self.ctx.base + 3 * quarter, quarter)],
            tag="nn:" + self.spec.name,
        )

    def run_for(self, duration: float):
        """Generator: pump frames until ``duration`` elapses."""
        if duration <= 0:
            raise ConfigurationError("duration must be positive")
        self.started_at = self.sim.now
        deadline = self.sim.now + duration
        while self.sim.now < deadline:
            yield self.sim.timeout(self.spec.cpu_overhead)
            completion = self.driver.submit(self._job())
            yield completion
            self.completed += 1
        self.stopped_at = self.sim.now
        return self.throughput

    def run_until(self, event):
        """Generator: pump frames until ``event`` triggers (e.g. a
        concurrent LLM request completing), finishing the in-flight
        frame."""
        self.started_at = self.sim.now
        while not event.triggered:
            yield self.sim.timeout(self.spec.cpu_overhead)
            completion = self.driver.submit(self._job())
            yield completion
            self.completed += 1
        self.stopped_at = self.sim.now
        return self.throughput

    @property
    def throughput(self) -> float:
        """Inferences per second over the run window."""
        if self.started_at is None:
            return 0.0
        end = self.stopped_at if self.stopped_at is not None else self.sim.now
        elapsed = end - self.started_at
        return self.completed / elapsed if elapsed > 0 else 0.0
