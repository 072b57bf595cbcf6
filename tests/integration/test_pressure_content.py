"""Content differential of the memory work on the restore path under pressure.

A ``MemoryStress`` sweep stamps only the frames new to it or whose first
page physical memory's write clock lists as written since its last sweep
(``PhysicalMemory.written_since``), and CMA migration copies a granule
page to page, emptying only the stale destination pages no source page
covers (``copy_range``).  The reference trusts no clock: every
materialized page counts as written, so each sweep stamps every mapped
frame, one ``_raw_write`` per blob, and a copy first zeroes the
destination's materialized pages, then writes each materialized source
page's slice; the test checks that the restores' migrations ran through
that copy.  Several sweeps and cold restores on a small pressured
stack must leave every page's bytes (read as whole pages, zeros past a
page's stored extent included) and the materialized index after each
sweep and each restore, and the inference records and the clock, exactly
as the reference leaves them.  A write path that forgets to move the
clock leaves a stale frame unstamped, which shows as a byte difference.
(A restore's migrations overwrite the frames a sweep found stale, so the
bytes are compared after the sweep too.)  After each sweep every mapped
frame must also start with its own pattern: the stressor's check accepts
any frame's pattern, as a migrated page rightly keeps its source's.
"""

import hashlib

from repro import TINYLLAMA, TZLLM
from repro.config import GiB, MiB, PAGE_SIZE, RK3588
from repro.hw import PhysicalMemory

#: ``(prompt_tokens, output_tokens)`` of the cold restores.
REQUESTS = [(64, 2), (300, 1), (17, 3), (500, 1)]


def every_page_written(self, mark):
    """``written_since`` without the clock: every materialized page."""
    return list(self._materialized)


def write_each(self, addresses, blobs):
    """``_raw_write_many`` as one ``_raw_write`` per blob."""
    for base, data in zip(addresses, blobs):
        self._raw_write(base, data)


def zero_then_write(self, src, dst, size):
    """``copy_range`` as plain writes: zero the destination, then copy."""
    for index in self._materialized_in(dst, size):
        start = max(dst, index * PAGE_SIZE)
        stop = min(dst + size, (index + 1) * PAGE_SIZE)
        self._raw_write(start, bytes(stop - start))
    for index in self._materialized_in(src, size):
        start = max(src, index * PAGE_SIZE)
        stop = min(src + size, (index + 1) * PAGE_SIZE)
        self._raw_write(dst + start - src, self._raw_read(start, stop - start))


def page_bytes(memory, index):
    """The whole page ``index``."""
    return memory._raw_read(index * PAGE_SIZE, PAGE_SIZE)


def snapshot(memory):
    """The materialized page numbers and a digest of their bytes."""
    digest = hashlib.blake2b()
    for index in memory._materialized:
        digest.update(page_bytes(memory, index))
    return list(memory._materialized), digest.hexdigest()


def frames_without_their_pattern(stress):
    """The mapped frames whose first 64 bytes are not their own pattern."""
    memory = stress.kernel.board.memory
    return sorted(
        frame
        for alloc in stress.allocs
        if not alloc.freed
        for frame in alloc.frames
        if memory._raw_read(stress.kernel.db.frame_addr(frame), 64) != (b"S%07d" % frame) * 8
    )


def sweeps_and_restores():
    """Pressure that leaves 256 MiB to the OS and spills into the CMA
    regions, so every restore migrates and reclaims stress frames."""
    system = TZLLM(TINYLLAMA, platform=RK3588.with_memory(2 * GiB), os_footprint=256 * MiB)
    system.run_infer(8, 0)  # first cold start: cold init + checkpoint save
    stress = system.apply_pressure(2 * GiB)
    memory = system.stack.board.memory
    records, surviving, snapshots = [], [], [snapshot(memory)]
    for prompt_tokens, output_tokens in REQUESTS:
        stress.refresh()
        assert frames_without_their_pattern(stress) == []
        snapshots.append(snapshot(memory))
        records.append(system.run_infer(prompt_tokens, output_tokens))
        snapshots.append(snapshot(memory))
        surviving.append(stress.verify_surviving_pages())
    return {
        "records": records,
        "now": system.sim.now,
        "surviving": surviving,
        "reclaimed": system.stack.kernel.buddy.reclaimed_frames,
        "snapshots": snapshots,
        "pages": {index: page_bytes(memory, index) for index in memory._pages},
    }


def test_sweeps_and_restores_match_plain_writes(monkeypatch):
    shipped = sweeps_and_restores()
    copied = []

    def copy_range(self, src, dst, size):
        copied.append((src, dst))
        zero_then_write(self, src, dst, size)

    with monkeypatch.context() as patch:
        patch.setattr(PhysicalMemory, "written_since", every_page_written)
        patch.setattr(PhysicalMemory, "_raw_write_many", write_each)
        patch.setattr(PhysicalMemory, "copy_range", copy_range)
        reference = sweeps_and_restores()
    assert copied  # the restores' migrations ran through the plain writes
    assert shipped["reclaimed"] > 0 and all(shipped["surviving"])
    assert shipped["snapshots"][-1][0] == sorted(shipped["pages"])
    assert shipped == reference
