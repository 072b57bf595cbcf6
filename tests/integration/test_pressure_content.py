"""Content differential of the memory work on the restore path under pressure.

``MemoryStress`` sweeps write a frame's pattern only where its page does
not already hold it (``PhysicalMemory._raw_write_many`` skips such a
blob), and CMA migration copies a granule page to page, zeroing only the
stale destination pages no source page covers (``copy_range``).  The
reference writes every blob through ``_raw_write`` and copies by first
zeroing the destination's materialized pages, then writing each
materialized source page's slice.  Several sweeps and cold restores on a
small pressured stack must leave every page's bytes and the materialized
index after each sweep and each restore, and the inference records and
the clock, exactly as the reference leaves them.  (A restore's
migrations overwrite the frames a sweep found stale, so the bytes are
compared after the sweep too.)
"""

import hashlib

from repro import TINYLLAMA, TZLLM
from repro.config import GiB, MiB, PAGE_SIZE, RK3588
from repro.hw import PhysicalMemory

#: ``(prompt_tokens, output_tokens)`` of the cold restores.
REQUESTS = [(64, 2), (300, 1), (17, 3), (500, 1)]


def write_each(self, addresses, blobs):
    """``_raw_write_many`` as one ``_raw_write`` per blob."""
    for base, data in zip(addresses, blobs):
        self._raw_write(base, data)


def zero_then_write(self, src, dst, size):
    """``copy_range`` as plain writes: zero the destination, then copy."""
    pages = self._pages
    for index in self._materialized_in(dst, size):
        start = max(dst, index * PAGE_SIZE)
        stop = min(dst + size, (index + 1) * PAGE_SIZE)
        self._raw_write(start, bytes(stop - start))
    for index in self._materialized_in(src, size):
        page_base = index * PAGE_SIZE
        start = max(src, page_base)
        stop = min(src + size, page_base + PAGE_SIZE)
        self._raw_write(dst + start - src, bytes(pages[index][start - page_base : stop - page_base]))


def snapshot(memory):
    """The materialized page numbers and a digest of their bytes."""
    digest = hashlib.blake2b()
    for index in memory._materialized:
        digest.update(memory._pages[index])
    return list(memory._materialized), digest.hexdigest()


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
        "pages": {index: bytes(page) for index, page in memory._pages.items()},
    }


def test_sweeps_and_restores_match_plain_writes(monkeypatch):
    shipped = sweeps_and_restores()
    with monkeypatch.context() as patch:
        patch.setattr(PhysicalMemory, "_raw_write_many", write_each)
        patch.setattr(PhysicalMemory, "copy_range", zero_then_write)
        reference = sweeps_and_restores()
    assert shipped["reclaimed"] > 0 and all(shipped["surviving"])
    assert shipped["snapshots"][-1][0] == sorted(shipped["pages"])
    assert shipped == reference
