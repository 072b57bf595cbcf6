"""Unit tests for the REE kernel wiring, filesystem, and S2PT model."""

import pytest

from repro.config import RK3588, PAGE_SIZE, S2PTSpec
from repro.errors import ConfigurationError, OutOfMemory, StorageError
from repro.hw import Board
from repro.ree.kernel import REEKernel
from repro.ree.s2pt import S2PTState, s2pt_slowdown
from repro.sim import Simulator

PG = PAGE_SIZE


def make_kernel(total_frames=128, os_footprint=8 * PG):
    sim = Simulator()
    board = Board(sim, RK3588.with_memory(total_frames * PG))
    kernel = REEKernel(sim, board, granule=PG, os_footprint=os_footprint)
    return sim, kernel


def test_boot_charges_os_footprint():
    _sim, kernel = make_kernel(os_footprint=8 * PG)
    kernel.boot()
    assert kernel.used_bytes == 8 * PG
    assert kernel.used_bytes / kernel.db.total_bytes == pytest.approx(8 / 128)


def test_cma_reservations_stack_downward():
    _sim, kernel = make_kernel()
    a = kernel.reserve_cma("a", 16 * PG)
    b = kernel.reserve_cma("b", 16 * PG)
    assert a.start_frame == 112
    assert b.start_frame == 96
    kernel.boot()
    with pytest.raises(ConfigurationError):
        kernel.reserve_cma("c", PG)


def test_duplicate_cma_name_rejected():
    _sim, kernel = make_kernel()
    kernel.reserve_cma("a", PG)
    with pytest.raises(ConfigurationError):
        kernel.reserve_cma("a", PG)


def test_cma_too_large_rejected():
    _sim, kernel = make_kernel(total_frames=16)
    with pytest.raises(OutOfMemory):
        kernel.reserve_cma("huge", 32 * PG)


def test_allocation_requires_boot():
    _sim, kernel = make_kernel()
    with pytest.raises(ConfigurationError):
        kernel.map_anonymous(PG)


def test_alloc_timed_charges_buddy_rate():
    sim, kernel = make_kernel(os_footprint=0)
    kernel.boot()
    proc = sim.process(kernel.alloc_timed(64 * PG))
    alloc = sim.run_until(proc)
    assert alloc.n_frames == 64
    assert sim.now == pytest.approx(64 * PG / kernel.spec.memory.buddy_alloc_bw)


def test_free_bytes_tracks_allocations():
    _sim, kernel = make_kernel(os_footprint=0)
    kernel.boot()
    before = kernel.free_bytes
    alloc = kernel.map_anonymous(10 * PG)
    assert kernel.free_bytes == before - 10 * PG
    kernel.free(alloc)
    assert kernel.free_bytes == before


# ---------------------------------------------------------------------------
# filesystem
# ---------------------------------------------------------------------------
def test_fs_create_read_roundtrip():
    sim, kernel = make_kernel()
    kernel.boot()
    kernel.fs.create("/models/m.gguf", b"0123456789")

    def proc():
        data = yield from kernel.fs.read("/models/m.gguf", 2, 5)
        return data

    done = sim.process(proc())
    assert sim.run_until(done) == b"23456"
    assert kernel.fs.stat("/models/m.gguf") == 10


def test_fs_async_reads_overlap():
    sim, kernel = make_kernel()
    kernel.boot()
    kernel.fs.create("/a", b"x" * 1000)
    kernel.fs.create("/b", b"y" * 1000)

    def proc():
        first = sim.process(kernel.fs.read("/a", 0, 1000))
        second = sim.process(kernel.fs.read("/b", 0, 1000))
        a = yield first
        b = yield second
        return a, b

    done = sim.process(proc())
    a, b = sim.run_until(done)
    assert (a, b) == (b"x" * 1000, b"y" * 1000)
    assert kernel.fs.aio_peak == 2


def test_fs_tamper_hook_corrupts_reads():
    sim, kernel = make_kernel()
    kernel.boot()
    kernel.fs.create("/m", b"honest-bytes")
    kernel.fs.tamper_hook = lambda path, offset, data: b"forged!" + data[7:]

    def proc():
        data = yield from kernel.fs.read("/m", 0, 12)
        return data

    done = sim.process(proc())
    assert sim.run_until(done)[:7] == b"forged!"


def test_fs_missing_file_rejected():
    sim, kernel = make_kernel()
    kernel.boot()
    with pytest.raises(StorageError):
        kernel.fs.stat("/ghost")


# ---------------------------------------------------------------------------
# S2PT model
# ---------------------------------------------------------------------------
def test_s2pt_disabled_no_overhead():
    assert s2pt_slowdown(1.0, S2PTState(enabled=False), S2PTSpec()) == 1.0


def test_s2pt_fragmented_hits_paper_max():
    spec = S2PTSpec()
    worst = s2pt_slowdown(1.0, S2PTState(enabled=True, fragmented=True), spec)
    assert worst == pytest.approx(1.098)


def test_s2pt_huge_pages_much_cheaper():
    spec = S2PTSpec()
    frag = s2pt_slowdown(0.5, S2PTState(enabled=True, fragmented=True), spec)
    huge = s2pt_slowdown(0.5, S2PTState(enabled=True, fragmented=False), spec)
    assert huge < frag


def test_s2pt_intensity_bounds_checked():
    with pytest.raises(ConfigurationError):
        s2pt_slowdown(1.5, S2PTState(enabled=True), S2PTSpec())
