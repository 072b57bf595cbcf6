"""Unit tests for simulator resources (semaphores, bandwidth pipes)."""

import pytest

from repro.sim import BandwidthResource, Resource, SimulationError, Simulator


def test_resource_capacity_limits_concurrency():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    active = []
    peaks = []

    def worker(tag):
        req = res.request()
        yield req
        active.append(tag)
        peaks.append(len(active))
        yield sim.timeout(1)
        active.remove(tag)
        res.release(req)

    for i in range(5):
        sim.process(worker(i))
    sim.run()
    assert max(peaks) == 2
    assert sim.now == pytest.approx(3.0)  # 5 jobs, 2 wide, 1s each


def test_resource_fifo_order():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def worker(tag):
        req = res.request()
        yield req
        order.append(tag)
        yield sim.timeout(1)
        res.release(req)

    for i in range(4):
        sim.process(worker(i))
    sim.run()
    assert order == [0, 1, 2, 3]


def test_priority_resource_admits_lowest_priority_value_first():
    sim = Simulator()
    res = Resource(sim, capacity=1, priority=True)
    order = []

    def holder():
        req = res.request(priority=0)
        yield req
        yield sim.timeout(1)
        res.release(req)

    def worker(tag, prio):
        yield sim.timeout(0.1)  # queue up behind the holder
        req = res.request(priority=prio)
        yield req
        order.append(tag)
        res.release(req)

    sim.process(holder())
    sim.process(worker("low-urgency", 5))
    sim.process(worker("high-urgency", 1))
    sim.process(worker("mid-urgency", 3))
    sim.run()
    assert order == ["high-urgency", "mid-urgency", "low-urgency"]


def test_cancel_queued_request_skips_waiter():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def holder():
        req = res.request()
        yield req
        yield sim.timeout(1)
        res.release(req)

    sim.process(holder())
    sim.run(until=0.5)

    cancelled = res.request()
    survivor = res.request()
    cancelled.cancel()
    sim.run()
    assert survivor.triggered
    assert not cancelled.triggered
    assert res.queued == 0
    res.release(survivor)


def test_release_without_hold_is_error():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    req = res.request()
    sim.run()
    res.release(req)
    with pytest.raises(SimulationError):
        res.release(req)


def test_bandwidth_single_transfer_takes_size_over_rate():
    sim = Simulator()
    pipe = BandwidthResource(sim, bandwidth=100.0)

    def proc():
        yield pipe.transfer(250.0)

    done = sim.process(proc())
    sim.run_until(done)
    assert sim.now == pytest.approx(2.5)


def test_bandwidth_shared_equally_between_two():
    sim = Simulator()
    pipe = BandwidthResource(sim, bandwidth=100.0)
    finish = {}

    def proc(tag, size):
        yield pipe.transfer(size)
        finish[tag] = sim.now

    sim.process(proc("a", 100.0))
    sim.process(proc("b", 100.0))
    sim.run()
    # Both share 100 B/s -> 50 each -> both done at t=2.
    assert finish["a"] == pytest.approx(2.0)
    assert finish["b"] == pytest.approx(2.0)


def test_bandwidth_late_joiner_slows_first():
    sim = Simulator()
    pipe = BandwidthResource(sim, bandwidth=100.0)
    finish = {}

    def first():
        yield pipe.transfer(100.0)
        finish["first"] = sim.now

    def second():
        yield sim.timeout(0.5)
        yield pipe.transfer(100.0)
        finish["second"] = sim.now

    sim.process(first())
    sim.process(second())
    sim.run()
    # first: 50 bytes alone (0.5s), then shares; remaining 50 at 50 B/s -> 1.5s
    assert finish["first"] == pytest.approx(1.5)
    # second: 50 B/s while sharing until t=1.5 (50 bytes), then full rate:
    # remaining 50 at 100 B/s -> 2.0s
    assert finish["second"] == pytest.approx(2.0)


def test_bandwidth_per_stream_cap():
    sim = Simulator()
    pipe = BandwidthResource(sim, bandwidth=100.0, per_stream=30.0)

    def proc():
        yield pipe.transfer(60.0)

    done = sim.process(proc())
    sim.run_until(done)
    assert sim.now == pytest.approx(2.0)  # capped at 30 B/s despite 100 free


def test_zero_byte_transfer_completes_immediately():
    sim = Simulator()
    pipe = BandwidthResource(sim, bandwidth=10.0)
    xfer = pipe.transfer(0)
    assert xfer.triggered
    assert pipe.current_rate() == 0.0


def test_bandwidth_total_bytes_accounted():
    sim = Simulator()
    pipe = BandwidthResource(sim, bandwidth=10.0)

    def proc():
        yield pipe.transfer(30.0)
        yield pipe.transfer(20.0)

    done = sim.process(proc())
    sim.run_until(done)
    assert pipe.total_bytes == pytest.approx(50.0)
    assert sim.now == pytest.approx(5.0)


def test_many_concurrent_transfers_conserve_work():
    sim = Simulator()
    pipe = BandwidthResource(sim, bandwidth=100.0)
    finish = []

    def proc(size):
        yield pipe.transfer(size)
        finish.append(sim.now)

    sizes = [10.0, 20.0, 30.0, 40.0]
    for size in sizes:
        sim.process(proc(size))
    sim.run()
    # Aggregate work = 100 bytes at 100 B/s -> the last finishes at t=1.
    assert max(finish) == pytest.approx(1.0)
    assert sorted(finish) == finish


def test_per_stream_cap_tracks_changing_concurrency():
    # The cap binds at low concurrency, fair-share at high: with
    # bandwidth 100 and per_stream 40, one or two streams run at 40 B/s
    # each, three run at 100/3.
    sim = Simulator()
    pipe = BandwidthResource(sim, bandwidth=100.0, per_stream=40.0)
    finish = {}

    def xfer(name, start, size):
        yield sim.timeout(start)
        yield pipe.transfer(size, tag=name)
        finish[name] = sim.now

    sim.process(xfer("a", 0.0, 40.0))
    sim.process(xfer("b", 0.5, 40.0))
    sim.process(xfer("c", 1.0, 40.0))
    sim.run()
    # a: 40 B/s throughout (cap binds alone and when sharing with b).
    assert finish["a"] == pytest.approx(1.0)
    # b: 40 B/s from 0.5 (cap still binds at 2 streams: 100/2 > 40).
    assert finish["b"] == pytest.approx(1.5)
    # c: starts at 1.0 as a finishes, 40 B/s alongside b then alone.
    assert finish["c"] == pytest.approx(2.0)
    # Time-integral accounting survives the concurrency changes.
    assert pipe.stats.busy_time == pytest.approx(2.0)
    assert pipe.stats.active_area == pytest.approx(3.0)  # 0.5*1+1.0*2+0.5*1


def test_zero_size_transfer_does_not_disturb_stats():
    sim = Simulator()
    pipe = BandwidthResource(sim, bandwidth=10.0)

    def proc():
        yield pipe.transfer(0.0, tag="empty")
        yield pipe.transfer(10.0, tag="real")
        yield pipe.transfer(0.0, tag="empty")

    done = sim.process(proc())
    sim.run_until(done)
    empty = pipe.stats.tags["empty"]
    assert empty.transfers == 2
    assert empty.completed == 2
    assert empty.bytes == 0.0
    assert empty.occupancy == 0.0
    assert empty.service_time == 0.0
    # The zero-size transfers never touch the pipe's busy time.
    assert pipe.stats.busy_time == pytest.approx(1.0)
    assert pipe.stats.active_area == pytest.approx(1.0)


def test_pipe_settle_times_sum_to_virtual_window():
    # busy + idle == window exactly, across idle gaps and overlap, and
    # the per-tag occupancies sum to the pipe's active area.
    sim = Simulator()
    pipe = BandwidthResource(sim, bandwidth=100.0)

    def xfer(start, size, tag):
        yield sim.timeout(start)
        yield pipe.transfer(size, tag=tag)

    sim.process(xfer(0.0, 100.0, "a"))     # busy [0, 1.5] shared with b
    sim.process(xfer(0.5, 50.0, "b"))
    sim.process(xfer(3.0, 100.0, "c"))     # idle gap, then busy [3, 4]
    sim.run()
    pipe.sync()
    now = sim.now
    stats = pipe.stats
    assert stats.busy_time + stats.idle_time(now) == pytest.approx(stats.window(now))
    assert stats.busy_time == pytest.approx(2.5)  # [0, 1.5] + [3, 4]
    occupancy = sum(t.occupancy for t in stats.tags.values())
    assert occupancy == pytest.approx(stats.active_area)
    # Per-tag service time equals finish - start for each transfer.
    assert stats.tags["c"].service_time == pytest.approx(1.0)


def test_pipe_sync_midrun_is_idempotent():
    sim = Simulator()
    pipe = BandwidthResource(sim, bandwidth=10.0)
    observed = {}

    def xfer():
        yield pipe.transfer(20.0, tag="x")

    def observer():
        yield sim.timeout(1.0)
        pipe.sync()
        pipe.sync()  # double-settle must not double-count
        observed["busy"] = pipe.stats.busy_time
        observed["occ"] = pipe.stats.tag("x").occupancy

    done = sim.process(xfer())
    sim.process(observer())
    sim.run_until(done)
    assert observed["busy"] == pytest.approx(1.0)
    assert observed["occ"] == pytest.approx(1.0)
    # ...and the completion schedule was untouched by the mid-run reads.
    assert sim.now == pytest.approx(2.0)
    assert pipe.stats.busy_time == pytest.approx(2.0)
