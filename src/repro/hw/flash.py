"""NVMe flash storage: named blobs behind a bandwidth-shared pipe.

The device stores raw blobs (the REE filesystem layers names and
encryption on top).  Reads and writes consume simulated time on a
processor-shared pipe calibrated to the board's 2 GB/s sequential-read
throughput, plus a small per-request latency.  Concurrent aio requests
therefore really contend for bandwidth, which is what makes the paper's
"hide allocation under I/O latency" arguments measurable.
"""

from __future__ import annotations

from typing import Dict

from ..config import FlashSpec
from ..errors import ConfigurationError, StorageError
from ..sim import BandwidthResource, Simulator

__all__ = ["Flash"]


class Flash:
    """The NVMe device: named blobs behind a shared-bandwidth pipe."""

    def __init__(self, sim: Simulator, spec: FlashSpec, name: str = "flash"):
        self.sim = sim
        self.spec = spec
        self.pipe = BandwidthResource(
            sim, spec.seq_read_bw, per_stream=spec.per_stream_bw, name=name
        )
        self._blobs: Dict[str, bytearray] = {}
        self.reads = 0
        self.writes = 0
        #: fault-injection sites (repro.faults): ``flash.read_error``
        #: fails a read after its setup latency; ``flash.bit_flip``
        #: silently corrupts one bit of the returned data.
        self.fault_injector = None
        self.read_errors = 0
        #: observability attach points (repro.obs.instrument).
        self.metrics = None
        self.recorder = None

    # ------------------------------------------------------------------
    # instantaneous management (provisioning, not simulated I/O)
    # ------------------------------------------------------------------
    def provision(self, name: str, data: bytes) -> None:
        """Place a blob on flash without charging simulated time.

        Used for test/bench setup (the model file is already on the
        device before the experiment starts, as in the paper).
        """
        self._blobs[name] = bytearray(data)

    def exists(self, name: str) -> bool:
        return name in self._blobs

    def size(self, name: str) -> int:
        return len(self._require(name))

    def delete(self, name: str) -> None:
        self._blobs.pop(name, None)

    def peek(self, name: str, offset: int = 0, size: int = -1) -> bytes:
        """Read blob content without timing (attacker's offline flash dump)."""
        blob = self._require(name)
        if size < 0:
            size = len(blob) - offset
        return bytes(blob[offset : offset + size])

    def _require(self, name: str) -> bytearray:
        blob = self._blobs.get(name)
        if blob is None:
            raise StorageError("no blob %r on flash" % name)
        return blob

    # ------------------------------------------------------------------
    # timed I/O (generators; yield from within a process)
    # ------------------------------------------------------------------
    def read(self, name: str, offset: int, size: int, nominal: float = None):
        """Timed read; returns the bytes.

        ``nominal`` charges transfer time for a different (usually larger)
        byte count than is physically stored — used by the scaled-down
        model containers, whose tensors carry full-size timing semantics
        over small real payloads.
        """
        blob = self._require(name)
        if offset < 0 or offset + size > len(blob):
            raise ConfigurationError(
                "read [%d, %d) beyond blob %r of %d bytes" % (offset, offset + size, name, len(blob))
            )
        self.reads += 1
        metrics = self.metrics
        if metrics is not None:
            metrics.counter("flash_reads_total", "Flash read requests").inc()
            metrics.counter("flash_read_bytes_total", "Bytes read from flash").inc(size)
        injector = self.fault_injector
        if injector is not None and injector.fires("flash.read_error"):
            # The controller aborts after request setup: the latency is
            # paid, the transfer never happens.
            self.read_errors += 1
            if metrics is not None:
                metrics.counter("flash_read_errors_total", "Failed flash reads").inc()
            if self.recorder is not None:
                self.recorder.record(
                    "fault", "flash.read_error", "injected read error",
                    blob=name, offset=offset,
                )
            yield self.sim.timeout(self.spec.read_latency)
            raise StorageError(
                "injected flash read error on %r at offset %d" % (name, offset)
            )
        if not self.sim.advance(self.spec.read_latency):
            yield self.sim.timeout(self.spec.read_latency)
        yield self.pipe.transfer(size if nominal is None else nominal, tag=("read", name))
        data = bytes(blob[offset : offset + size])
        if injector is not None:
            flipped = injector.corrupt("flash.bit_flip", data)
            if flipped is not data:
                if metrics is not None:
                    metrics.counter("flash_bit_flips_total", "Silently corrupted reads").inc()
                if self.recorder is not None:
                    self.recorder.record(
                        "fault", "flash.bit_flip", "corrupted read", blob=name
                    )
                data = flipped
        return data

    def write(self, name: str, offset: int, data: bytes):
        """Timed write (creates or extends the blob)."""
        blob = self._blobs.setdefault(name, bytearray())
        if offset > len(blob):
            raise ConfigurationError("sparse write to %r" % name)
        self.writes += 1
        yield self.sim.timeout(self.spec.read_latency)
        yield self.pipe.transfer(len(data), tag=("write", name))
        end = offset + len(data)
        if end > len(blob):
            blob.extend(b"\x00" * (end - len(blob)))
        blob[offset:end] = data
        return len(data)
