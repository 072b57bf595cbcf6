"""The REE TrustZone driver (the +197 LoC the paper adds to Linux).

Bridges three delegations between worlds:

* **CMA ballooning** — handles the TEE's ``ree.cma_alloc`` /
  ``ree.cma_release`` SMCs by carving/releasing contiguous runs from the
  named CMA region.  Being REE code it is *untrusted*: adversary hooks can
  forge the returned address (the CMA Iago attack the TEE's contiguity
  check must catch) or refuse service (DoS, out of scope).
* **TA invocation** — forwards client-application requests into the TEE.
* **Delegated file I/O** — the LLM TA's model reads are issued here as
  asynchronous I/O against the REE filesystem, landing directly in
  allocated-but-unprotected secure-region memory (no bounce buffer, §4.2).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ConfigurationError, MemoryError_
from ..hw.common import World
from ..ree.pages import Allocation
from ..sim import Simulator
from .kernel import REEKernel

__all__ = ["TZDriver"]


class TZDriver:
    """The kernel's TrustZone driver: CMA ballooning + TA invocation."""

    def __init__(self, sim: Simulator, kernel: REEKernel):
        self.sim = sim
        self.kernel = kernel
        self.monitor = kernel.board.monitor
        #: contiguous allocations per CMA region, in allocation order
        #: (released strictly from the tail, matching extend-and-shrink).
        self._allocs: Dict[str, List[Allocation]] = {}
        #: adversary hook: forge the address returned to the TEE.
        self.alloc_result_hook: Optional[Callable[[int], int]] = None
        #: observability attach points (repro.obs.instrument).
        self.metrics = None
        self.recorder = None
        #: everything the REE *observes* about secure-memory scaling:
        #: (region, size) per allocation — the §6 size side channel.
        self.alloc_observations: List[Tuple[str, int]] = []
        self.monitor.register("ree.cma_alloc", self._handle_cma_alloc)
        self.monitor.register("ree.cma_release", self._handle_cma_release)

    # ------------------------------------------------------------------
    # CMA ballooning handlers (called via SMC from the TEE)
    # ------------------------------------------------------------------
    def _region(self, name: str):
        region = self.kernel.cma_regions.get(name)
        if region is None:
            raise ConfigurationError("no CMA region %r" % name)
        return region

    def _handle_cma_alloc(self, region_name: str, expected_addr: int, n_bytes: int, threads: int):
        region = self._region(region_name)
        db = self.kernel.db
        if expected_addr % db.granule != 0 or n_bytes % db.granule != 0:
            raise ConfigurationError("unaligned CMA request")
        start_frame = db.addr_frame(expected_addr)
        n_frames = n_bytes // db.granule
        alloc = yield from region.allocate_range(
            start_frame, n_frames, threads=threads, tag="tee:" + region_name
        )
        self._allocs.setdefault(region_name, []).append(alloc)
        if self.metrics is not None:
            self.metrics.counter(
                "tz_cma_alloc_calls_total", "CMA balloon extends handled for the TEE"
            ).inc(region=region_name)
        self.alloc_observations.append((region_name, n_bytes))
        addr = db.frame_addr(min(alloc.frames))
        if self.alloc_result_hook is not None:
            addr = self.alloc_result_hook(addr)
        return addr

    def _handle_cma_release(self, region_name: str, n_bytes: int):
        region = self._region(region_name)
        db = self.kernel.db
        if n_bytes % db.granule != 0:
            raise ConfigurationError("unaligned CMA release")
        remaining = n_bytes // db.granule
        allocs = self._allocs.get(region_name, [])
        if self.metrics is not None:
            self.metrics.counter(
                "tz_cma_release_calls_total", "CMA balloon shrinks handled for the TEE"
            ).inc(region=region_name)
        while remaining > 0:
            if not allocs:
                raise MemoryError_("TEE released more CMA memory than allocated")
            tail = allocs[-1]
            take = min(remaining, tail.n_frames)
            if take == tail.n_frames:
                region.release(tail)
                allocs.pop()
            else:
                region.release_tail(tail, take)
            remaining -= take
        # Releasing is cheap (page-free fast path).
        yield self.sim.timeout(self.kernel.buddy.alloc_seconds(n_bytes, self.kernel.spec.memory) / 2)
        return None

    # ------------------------------------------------------------------
    # client-application side
    # ------------------------------------------------------------------
    def invoke_ta(self, func: str, *args, **kwargs):
        """A CA invokes a TEE service through the driver (generator)."""
        result = yield from self.monitor.smc(World.NONSECURE, func, *args, **kwargs)
        return result

    def delegated_read_into(
        self, path: str, offset: int, size: int, phys_addr: int, nominal: float = None
    ):
        """Delegated model-file read: aio into physical memory (generator).

        The destination must still be *non-secure* (allocated but not yet
        protected); the write goes through the TZASC as a non-secure CPU
        store, so a protocol bug that protected the memory first really
        faults.
        """
        data = yield from self.kernel.fs.read(path, offset, size, nominal=nominal)
        self.kernel.board.memory.cpu_write(phys_addr, data, World.NONSECURE)
        if self.metrics is not None:
            self.metrics.counter(
                "tz_delegated_read_bytes_total", "Model bytes read on behalf of the TEE"
            ).inc(len(data), path="direct")
        return len(data)

    def delegated_read_bounce(self, path: str, offset: int, size: int, nominal: float = None):
        """Recovery-path read: return the bytes via a bounce buffer.

        The fast path (:meth:`delegated_read_into`) lands aio directly in
        allocated-but-unprotected secure memory — impossible once the
        destination range is TZASC-protected.  The corrupted-chunk
        re-fetch therefore reads into an ordinary REE buffer and hands
        the ciphertext up; the TEE verifies, decrypts, and writes the
        plaintext through its own mapping.  Slower (one extra DRAM copy),
        but only ever taken on the error path.
        """
        data = yield from self.kernel.fs.read(path, offset, size, nominal=nominal)
        charge = size if nominal is None else nominal
        yield self.sim.timeout(charge / self.kernel.spec.memory.bus_bandwidth)
        if self.metrics is not None:
            self.metrics.counter(
                "tz_delegated_read_bytes_total", "Model bytes read on behalf of the TEE"
            ).inc(len(data), path="bounce")
        return data
