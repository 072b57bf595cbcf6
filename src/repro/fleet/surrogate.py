"""A calibrated analytical device model for fleet-scale experiments.

Full-fidelity :class:`~repro.core.system.TZLLM` simulation walks every
granule restore, NPU job and SMC — tens of milliseconds of host CPU per
simulated request.  At fleet scale (10^5+ requests across many devices)
that fidelity is unaffordable and unnecessary: routing policies care
about the *shape* of device timing (cold restore vs warm hit, prefill
scaling with effective prompt length, bandwidth-bound decode), not about
individual granules.

:class:`SurrogateLLM` computes those times analytically from the same
:class:`~repro.config.PlatformSpec` and :class:`~repro.llm.models.ModelSpec`
that drive the full simulator:

* **cold restore** — framework checkpoint restore plus the model's bytes
  through ``min(flash sequential read, aggregate decrypt bandwidth)``,
  the pipelined restore's steady-state bottleneck (§5);
* **prefill** — prompt FLOPs split between the NPU and the CPU-resident
  fraction (norms, attention glue) per the platform's timing spec;
* **decode** — weight-streaming bandwidth bound per token, the regime
  the paper measures for single-batch decode.

It speaks :class:`~repro.core.system.TZLLM`'s system protocol (a ``tas``
dict and an ``infer(..., model_id=)`` generator yielding on the shared
clock and returning an :class:`~repro.core.llm_ta.InferenceRecord`), so
:class:`~repro.serve.gateway.ServeGateway` drives it unchanged — with
admission, priorities, preemption gates, breakers and SLO accounting all
still real.  Determinism: the surrogate holds no RNG at all.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from ..config import GiB, PlatformSpec, RK3588
from ..core.llm_ta import InferenceRecord
from ..errors import ConfigurationError, DeviceLost
from ..llm.models import ModelSpec
from ..llm.ops import prefill_seconds
from ..llm.runtime import DecodeResult

__all__ = ["SurrogateConfig", "SurrogateLLM", "scale_platform"]


def scale_platform(
    base: PlatformSpec,
    name: str,
    cpu: float = 1.0,
    npu: float = 1.0,
    mem: float = 1.0,
    flash: float = 1.0,
) -> PlatformSpec:
    """A heterogeneous fleet member: ``base`` with scaled subsystem rates.

    Scales compute throughput, memory bandwidth and flash read rate —
    the axes that differentiate phone-class, tablet-class and hub-class
    devices — while keeping protocol costs (SMC, TZASC programming)
    identical, since those are architectural, not binned.
    """
    return replace(
        base,
        name=name,
        cpu=replace(
            base.cpu,
            effective_gflops=base.cpu.effective_gflops * cpu,
            mem_bandwidth=base.cpu.mem_bandwidth * mem,
        ),
        npu=replace(
            base.npu,
            effective_gflops=base.npu.effective_gflops * npu,
            mem_bandwidth=base.npu.mem_bandwidth * mem,
        ),
        memory=replace(
            base.memory, total_bytes=int(base.memory.total_bytes * mem)
        ),
        flash=replace(base.flash, seq_read_bw=base.flash.seq_read_bw * flash),
    )


@dataclass
class SurrogateConfig:
    """Knobs of the analytical model (all orthogonal to the platform)."""

    #: memory available for resident model parameters (the rest is OS +
    #: apps + KV); models beyond the budget evict least-recently-used.
    model_budget_bytes: int = 8 * GiB
    #: token-boundary preemption granularity: the decode loop re-checks
    #: the gate every this many tokens (one simulator event each).
    preempt_check_tokens: int = 16
    #: use the framework checkpoint (paper's §5.3) instead of cold init.
    use_checkpoint: bool = True
    use_npu: bool = True


class _SurrogateTA:
    """Per-model slice of the surrogate: residency state + timing."""

    __slots__ = ("model", "resident", "last_used")

    def __init__(self, model: ModelSpec):
        self.model = model
        self.resident = False
        self.last_used = -1.0


class SurrogateLLM:
    """N protected models on one analytically-timed device."""

    def __init__(
        self,
        models: Sequence[ModelSpec],
        platform: PlatformSpec = RK3588,
        config: Optional[SurrogateConfig] = None,
        sim=None,
        device_name: str = "",
    ):
        if not models:
            raise ConfigurationError("need at least one model")
        ids = [m.model_id for m in models]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("duplicate model ids")
        if sim is None:
            from ..sim import Simulator

            sim = Simulator()
        self.sim = sim
        self.platform = platform
        self.config = config or SurrogateConfig()
        self.device_name = device_name
        self.tas: Dict[str, _SurrogateTA] = {
            m.model_id: _SurrogateTA(m) for m in models
        }
        #: one fault per entry, consumed in order by the next infer on the
        #: model — lets tests and chaos drills open a lane breaker.
        self._faults: Dict[str, List[BaseException]] = {}
        #: gray-failure multiplier on every analytically-priced duration
        #: (restore, prefill, decode, probes).  1.0 = healthy; a gray
        #: device inflates latency without raising a single error.
        self.slowdown = 1.0
        #: crash epoch: bumped by :meth:`crash`; in-flight inferences
        #: compare their birth epoch after every yield and die with
        #: :class:`~repro.errors.DeviceLost` when the device rebooted
        #: beneath them.
        self.epoch = 0
        self.crashes = 0
        #: True between :meth:`crash` and :meth:`restore`: the secure
        #: world is gone, so new inferences die on arrival too.
        self.down = False

    # -- timing model --------------------------------------------------
    def restore_time(self, model: ModelSpec) -> float:
        """Cold path: framework state + parameters through the pipeline
        bottleneck (flash read vs aggregate decrypt, whichever is slower)."""
        spec = self.platform
        framework = (
            spec.timing.checkpoint_restore
            if self.config.use_checkpoint
            else spec.timing.framework_init
        )
        bottleneck = min(
            spec.flash.seq_read_bw,
            spec.crypto.aggregate_decrypt_bw(spec.cpu.big_cores),
        )
        return framework + model.param_bytes / bottleneck

    def prefill_time(self, model: ModelSpec, prompt_tokens: int) -> float:
        return prefill_seconds(
            self.platform, model, max(1, prompt_tokens), self.config.use_npu
        )

    def decode_time_per_token(self, model: ModelSpec) -> float:
        """Single-batch decode streams the weights once per token."""
        return model.param_bytes / self.platform.cpu.mem_bandwidth

    # -- residency -----------------------------------------------------
    def warm(self, model_id: str) -> None:
        """Pre-load a model (provisioning-time warm-up, no clock cost)."""
        self._make_resident(self._ta(model_id))

    def _ta(self, model_id: str) -> _SurrogateTA:
        try:
            return self.tas[model_id]
        except KeyError:
            raise ConfigurationError("no TA hosts model %r" % model_id)

    def _make_resident(self, ta: _SurrogateTA) -> None:
        ta.resident = True
        ta.last_used = self.sim.now
        budget = self.config.model_budget_bytes
        used = sum(t.model.param_bytes for t in self.tas.values() if t.resident)
        # Evict least-recently-used models until the newcomer fits.
        while used > budget:
            victims = [t for t in self.tas.values() if t.resident and t is not ta]
            if not victims:
                break  # a single oversized model stays resident
            victim = min(victims, key=lambda t: (t.last_used, t.model.model_id))
            victim.resident = False
            used -= victim.model.param_bytes

    # -- fault injection ----------------------------------------------
    def inject_fault(self, model_id: str, exc: BaseException) -> None:
        """Queue one failure for the next inference on ``model_id``."""
        self._faults.setdefault(model_id, []).append(exc)

    # -- whole-device failure ------------------------------------------
    def crash(self) -> None:
        """The device dies: all secure-world state is lost at once.

        Residency is cleared (parameters must cold-restore after the
        reboot), queued lane faults are dropped with the old world, and
        the epoch bump makes every in-flight inference raise
        :class:`~repro.errors.DeviceLost` at its next clock edge.
        """
        self.epoch += 1
        self.crashes += 1
        self.down = True
        self.slowdown = 1.0  # whatever grayed the old world died with it
        for ta in self.tas.values():
            ta.resident = False
        self._faults.clear()

    def restore(self) -> None:
        """Post-reboot: the rebuilt secure world accepts work again."""
        self.down = False

    def probe_latency(self, probe_tokens: int = 8, clean: bool = False) -> float:
        """An analytic health probe: TA invoke + a tiny prefill.

        The prober compares the live value (gray slowdown included)
        against ``clean=True`` — the healthy baseline — to score EWMA
        degradation without modeling probe traffic through admission.
        """
        model = self.tas[min(self.tas)].model
        base = self.platform.timing.ta_invoke_latency + self.prefill_time(
            model, probe_tokens
        )
        return base if clean else base * self.slowdown

    # -- the serving interface -----------------------------------------
    def infer(
        self,
        prompt_tokens: int,
        output_tokens: int = 0,
        preempt=None,
        ctx=None,
        prompt=None,
        model_id: Optional[str] = None,
    ):
        """Generator: one request on the named model (the
        :meth:`~repro.core.system.TZLLM.infer` protocol; ``prompt`` is
        ignored, as the fleet layer already discounted cached tokens)."""
        sim = self.sim
        ta = self._ta(model_id)
        model = ta.model
        if self.down:
            # Dispatched in the same instant the device died (or onto a
            # not-yet-restored one): there is no world to run in.
            raise DeviceLost(
                "device %s is down" % (self.device_name or "surrogate")
            )
        epoch = self.epoch
        faults = self._faults.get(model_id)
        if faults:
            raise faults.pop(0)
        record = InferenceRecord(
            prompt_tokens=prompt_tokens,
            output_tokens=output_tokens,
            started_at=sim.now,
        )
        ttft = self.platform.timing.ta_invoke_latency
        if not ta.resident:
            restore = self.restore_time(model)
            ttft += restore
            record.init_time = restore
        else:
            record.cached_bytes = model.param_bytes
        ttft += self.platform.timing.kv_activation_alloc
        ttft += self.prefill_time(model, prompt_tokens)
        yield sim.timeout(ttft * self.slowdown)
        if self.epoch != epoch:
            raise DeviceLost(
                "device %s crashed mid-prefill" % (self.device_name or "surrogate")
            )
        self._make_resident(ta)
        record.ttft = sim.now - record.started_at
        record.first_token_at = sim.now
        tpt = self.decode_time_per_token(model)
        decoded = 0
        preempted = False
        chunk = max(1, self.config.preempt_check_tokens)
        while decoded < output_tokens:
            if preempt is not None and preempt():
                preempted = True
                break
            step = min(chunk, output_tokens - decoded)
            yield sim.timeout(step * tpt * self.slowdown)
            if self.epoch != epoch:
                raise DeviceLost(
                    "device %s crashed mid-decode" % (self.device_name or "surrogate")
                )
            decoded += step
        record.preempted = preempted
        if output_tokens > 0 or decoded:
            record.decode = DecodeResult(
                token_ids=list(range(decoded)),
                step_times=[tpt] * decoded,
                stopped_early=preempted,
            )
        ta.last_used = sim.now
        return record
