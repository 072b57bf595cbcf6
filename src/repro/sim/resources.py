"""Resources for the discrete-event simulator.

Three resource flavours cover everything the TZ-LLM models need:

* :class:`Resource` — counting semaphore with FIFO or priority queueing
  (CPU core pools, the NPU, driver locks).
* :class:`BandwidthResource` — processor-sharing pipe: concurrent transfers
  split a fixed byte rate equally (flash I/O, memory-bus migration traffic).
* :class:`TokenBucket` is intentionally absent: the paper's devices are all
  rate-limited, not burst-limited.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Dict, List, Optional

from .core import Event, SimulationError, Simulator

__all__ = [
    "Request",
    "Resource",
    "ResourceStats",
    "BandwidthResource",
    "PipeStats",
    "TagStats",
    "Transfer",
]


def _percentile(values: List[float], q: float) -> float:
    """The ``q``-quantile (q in [0, 1]) by linear interpolation between
    ranks: the repo's one percentile formula.  It lives in the sim layer,
    which must not import analysis;
    :func:`repro.analysis.metrics.percentile` validates its arguments and
    calls it, so a resource's ``p99_wait`` and an analysis-side summary
    of the same samples agree exactly.  Returns 0.0 for an empty list
    (stats reports tolerate no samples).
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = q * (len(ordered) - 1)
    low = int(rank)
    frac = rank - low
    if frac == 0.0:
        return ordered[low]
    return ordered[low] * (1.0 - frac) + ordered[low + 1] * frac


class ResourceStats:
    """Always-on queueing accounting for one :class:`Resource`.

    Tracks per-request wait time (arrival → grant) and service time
    (grant → release) plus two time integrals — occupied slots and queue
    length — so a profiler can compute utilization, mean queue length,
    and a Little's-law sanity check without re-simulating.  Updates are
    O(1) per state change; nothing is formatted until asked.
    """

    __slots__ = (
        "created_at",
        "arrivals",
        "grants",
        "releases",
        "cancellations",
        "wait_times",
        "service_times",
        "_busy_area",
        "_queue_area",
        "_last_change",
    )

    def __init__(self, now: float):
        self.created_at = now
        self.arrivals = 0
        self.grants = 0
        self.releases = 0
        self.cancellations = 0
        self.wait_times: List[float] = []
        self.service_times: List[float] = []
        self._busy_area = 0.0  # ∫ held-slots dt
        self._queue_area = 0.0  # ∫ queue-length dt
        self._last_change = now

    def advance(self, now: float, held: int, queued: int) -> None:
        """Integrate the areas up to ``now`` with the *previous* state."""
        elapsed = now - self._last_change
        if elapsed > 0:
            self._busy_area += held * elapsed
            self._queue_area += queued * elapsed
            self._last_change = now

    # ------------------------------------------------------------------
    def window(self, now: float) -> float:
        return now - self.created_at

    def mean_wait(self) -> float:
        return sum(self.wait_times) / len(self.wait_times) if self.wait_times else 0.0

    def p99_wait(self) -> float:
        return _percentile(self.wait_times, 0.99)

    def mean_service(self) -> float:
        return (
            sum(self.service_times) / len(self.service_times)
            if self.service_times
            else 0.0
        )

    def utilization(self, now: float, capacity: int) -> float:
        window = self.window(now)
        if window <= 0 or capacity <= 0:
            return 0.0
        return self._busy_area / (window * capacity)

    def mean_queue_length(self, now: float) -> float:
        window = self.window(now)
        return self._queue_area / window if window > 0 else 0.0

    def littles_law_residual(self, now: float) -> float:
        """Relative gap between L and λW over the window (0 = exact).

        Little's law for the waiting room: mean queue length L equals the
        arrival-to-grant rate λ times mean wait W.  Finite windows leave
        edge effects (requests still queued at ``now``), so the residual
        is a sanity check, not an identity.
        """
        window = self.window(now)
        if window <= 0 or not self.wait_times:
            return 0.0
        L = self.mean_queue_length(now)
        lam = self.grants / window
        lw = lam * self.mean_wait()
        scale = max(L, lw, 1e-12)
        return abs(L - lw) / scale

    def to_dict(self, now: float, capacity: int) -> Dict[str, float]:
        return {
            "arrivals": self.arrivals,
            "grants": self.grants,
            "releases": self.releases,
            "cancellations": self.cancellations,
            "mean_wait": self.mean_wait(),
            "p99_wait": self.p99_wait(),
            "mean_service": self.mean_service(),
            "utilization": self.utilization(now, capacity),
            "mean_queue_length": self.mean_queue_length(now),
            "littles_law_residual": self.littles_law_residual(now),
        }


class Request(Event):
    """Event granted when the resource admits the requester.

    Usable as a handle: pass it back to :meth:`Resource.release`.  Cancel a
    queued request with :meth:`cancel` (used when a waiter times out).

    A holder that prices several units of work under one grant sets
    ``on_contention``: the resource calls it whenever another request
    has to queue while this one holds a slot, so the holder can hand
    the slot over at its next unit boundary.
    """

    on_contention: Optional[Callable[[], None]] = None

    def __init__(self, resource: "Resource", priority: float, data: Any):
        super().__init__(resource.sim)
        self.resource = resource
        self.priority = priority
        self.data = data
        self.cancelled = False
        self.arrived_at = resource.sim.now
        self.granted_at: Optional[float] = None

    def cancel(self) -> None:
        """Withdraw a queued request; no-op if already granted."""
        if self.triggered:
            return
        self.cancelled = True
        self.resource._drop(self)


class Resource:
    """Counting semaphore over ``capacity`` identical slots.

    With ``priority=True``, waiters are admitted lowest-priority-value
    first (ties FIFO); otherwise strictly FIFO.
    """

    def __init__(self, sim: Simulator, capacity: int, priority: bool = False, name: str = ""):
        if capacity < 1:
            raise SimulationError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._prioritized = priority
        self._users: List[Request] = []
        self._queue: List = []
        self._seq = itertools.count()
        self.stats = ResourceStats(sim.now)

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queued(self) -> int:
        return len(self._queue)

    def _account(self) -> None:
        self.stats.advance(self.sim.now, len(self._users), len(self._queue))

    def request(self, priority: float = 0.0, data: Any = None) -> Request:
        self._account()
        req = Request(self, priority, data)
        self.stats.arrivals += 1
        key = priority if self._prioritized else 0.0
        heapq.heappush(self._queue, (key, next(self._seq), req))
        self._admit()
        if not req._triggered:
            for holder in self._users:
                if holder.on_contention is not None:
                    holder.on_contention()
        return req

    def release(self, request: Request) -> None:
        self._account()
        try:
            self._users.remove(request)
        except ValueError:
            raise SimulationError("releasing a request that does not hold %s" % self.name)
        self.stats.releases += 1
        if request.granted_at is not None:
            self.stats.service_times.append(self.sim.now - request.granted_at)
        self._admit()

    def _drop(self, request: Request) -> None:
        self._account()
        self.stats.cancellations += 1
        self._queue = [entry for entry in self._queue if entry[2] is not request]
        heapq.heapify(self._queue)

    def _admit(self) -> None:
        while self._queue and len(self._users) < self.capacity:
            self._account()
            _key, _seq, req = heapq.heappop(self._queue)
            if req.cancelled:
                continue
            req.granted_at = self.sim.now
            self.stats.grants += 1
            self.stats.wait_times.append(self.sim.now - req.arrived_at)
            self._users.append(req)
            req.succeed(req)


class TagStats:
    """Per-tag accounting for a :class:`BandwidthResource`.

    ``occupancy`` is transfer-seconds: the integral of this tag's active
    transfer count over time (two concurrent 1-second transfers make 2).
    """

    __slots__ = ("bytes", "transfers", "completed", "occupancy", "service_time")

    def __init__(self):
        self.bytes = 0.0
        self.transfers = 0
        self.completed = 0
        self.occupancy = 0.0
        self.service_time = 0.0

    def to_dict(self) -> Dict[str, float]:
        return {
            "bytes": self.bytes,
            "transfers": self.transfers,
            "completed": self.completed,
            "occupancy": self.occupancy,
            "service_time": self.service_time,
        }


class PipeStats:
    """Whole-pipe accounting for a :class:`BandwidthResource`.

    ``busy_time`` is wall (virtual) time with at least one transfer in
    flight; ``active_area`` is the integral of the concurrent-transfer
    count.  Both are advanced lazily on the same settle boundaries the
    progress accounting already uses, so ``busy_time + idle == window``
    exactly — the invariant the queueing report leans on.
    """

    __slots__ = ("created_at", "busy_time", "active_area", "tags")

    def __init__(self, now: float):
        self.created_at = now
        self.busy_time = 0.0
        self.active_area = 0.0
        self.tags: Dict[str, TagStats] = {}

    def tag(self, tag: Any) -> TagStats:
        key = "untagged" if tag is None else str(tag)
        stats = self.tags.get(key)
        if stats is None:
            stats = self.tags[key] = TagStats()
        return stats

    def window(self, now: float) -> float:
        return now - self.created_at

    def idle_time(self, now: float) -> float:
        return max(0.0, self.window(now) - self.busy_time)

    def utilization(self, now: float) -> float:
        window = self.window(now)
        return self.busy_time / window if window > 0 else 0.0

    def to_dict(self, now: float) -> Dict[str, object]:
        return {
            "busy_time": self.busy_time,
            "idle_time": self.idle_time(now),
            "active_area": self.active_area,
            "utilization": self.utilization(now),
            "tags": {k: v.to_dict() for k, v in sorted(self.tags.items())},
        }


class Transfer(Event):
    """A transfer in flight on a :class:`BandwidthResource`.

    Triggers (with the transfer itself as value) when the last byte moves.
    ``remaining`` is kept up to date lazily by the owning resource.
    """

    def __init__(self, resource: "BandwidthResource", size: float, tag: Any):
        super().__init__(resource.sim)
        if size < 0:
            raise SimulationError("negative transfer size")
        self.resource = resource
        self.size = float(size)
        self.remaining = float(size)
        self.tag = tag
        self.started_at = resource.sim.now
        self.finished_at: Optional[float] = None


class BandwidthResource:
    """A pipe with fixed aggregate bandwidth, processor-shared.

    ``n`` concurrent transfers each progress at ``bandwidth / n`` bytes per
    second, optionally capped at ``per_stream`` (models flash controllers
    whose single-queue throughput is below the aggregate).  Completion
    times are recomputed whenever the set of active transfers changes,
    which makes sharing exact rather than approximate.
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth: float,
        per_stream: Optional[float] = None,
        name: str = "",
    ):
        if bandwidth <= 0:
            raise SimulationError("bandwidth must be positive")
        self.sim = sim
        self.bandwidth = float(bandwidth)
        self.per_stream = float(per_stream) if per_stream else None
        self.name = name
        self._active: List[Transfer] = []
        self._last_update = sim.now
        self._wake_generation = 0
        self.total_bytes = 0.0
        self.stats = PipeStats(sim.now)

    # ------------------------------------------------------------------
    @property
    def active_count(self) -> int:
        return len(self._active)

    def current_rate(self) -> float:
        """Per-transfer byte rate right now (0 if idle)."""
        if not self._active:
            return 0.0
        rate = self.bandwidth / len(self._active)
        if self.per_stream is not None:
            rate = min(rate, self.per_stream)
        return rate

    def sync(self) -> None:
        """Bring lazy progress/occupancy accounting up to ``sim.now``.

        Readers (the profiler's queueing report) call this before looking
        at :attr:`stats` mid-run; the pending wake-up stays valid because
        settling never changes the completion schedule.
        """
        self._settle()

    def transfer(self, size: float, tag: Any = None) -> Transfer:
        """Start moving ``size`` bytes; returns the completion event."""
        self._settle()
        xfer = Transfer(self, size, tag)
        self.total_bytes += xfer.size
        tag_stats = self.stats.tag(tag)
        tag_stats.bytes += xfer.size
        tag_stats.transfers += 1
        if xfer.size == 0:
            xfer.finished_at = self.sim.now
            tag_stats.completed += 1
            xfer.succeed(xfer)
            return xfer
        self._active.append(xfer)
        self._rearm()
        return xfer

    # ------------------------------------------------------------------
    def _settle(self) -> None:
        """Account progress since the last queue change."""
        now = self.sim.now
        elapsed = now - self._last_update
        self._last_update = now
        if elapsed <= 0 or not self._active:
            return
        self.stats.busy_time += elapsed
        self.stats.active_area += len(self._active) * elapsed
        for xfer in self._active:
            self.stats.tag(xfer.tag).occupancy += elapsed
        rate = self.current_rate()
        # A transfer with less than a nanosecond of work left is done:
        # float roundtrip error on large transfers leaves residues that
        # would otherwise schedule unrepresentably small wake-ups.
        epsilon = max(1e-9, rate * 1e-9)
        done: List[Transfer] = []
        for xfer in self._active:
            xfer.remaining -= rate * elapsed
            if xfer.remaining <= epsilon:
                xfer.remaining = 0.0
                done.append(xfer)
        for xfer in done:
            self._active.remove(xfer)
            xfer.finished_at = now
            tag_stats = self.stats.tag(xfer.tag)
            tag_stats.completed += 1
            tag_stats.service_time += now - xfer.started_at
            xfer.succeed(xfer)

    def _rearm(self) -> None:
        """Schedule a wake-up at the next completion instant."""
        self._wake_generation += 1
        if not self._active:
            return
        generation = self._wake_generation
        rate = self.current_rate()
        next_done = min(xfer.remaining for xfer in self._active) / rate
        wake = self.sim.timeout(next_done)
        wake.add_callback(lambda _event: self._on_wake(generation))

    def _on_wake(self, generation: int) -> None:
        if generation != self._wake_generation:
            return  # superseded by a later queue change
        self._settle()
        self._rearm()
