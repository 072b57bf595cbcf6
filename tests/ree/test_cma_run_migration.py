"""Differential test of CMA migration: one pass per run against the
per-frame loop it replaced.

``CMARegion.allocate_range`` reads a run's owners once, and reads them
again only after a backoff; each occupied frame in order then takes a
destination, has its bytes copied and is retargeted.  The reference
below is the loop it replaced: per frame, an owner lookup, the fault
site, a destination, one ``copy_range`` and one ``move_frame``.  On random
layouts of free, movable and unmovable frames, reclaimable owners, dry
outside pools, transient pins with backoff, and another process that
frees, allocates or writes during a backoff, both must leave the same
bytes, owners, frame sets (in iteration order), pools, counters,
write-clock order, clock and error.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PAGE_SIZE, MemorySpec
from repro.errors import MemoryError_, MigrationError, OutOfMemory
from repro.hw import PhysicalMemory
from repro.ree.buddy import BuddyAllocator
from repro.ree.cma import CMARegion, MigrationRecord
from repro.ree.pages import FrameDB
from repro.sim import Simulator

#: 32 granules of two pages; the CMA region is the upper half.
TOTAL, CMA_START = 32, 16
GRANULE = 2 * PAGE_SIZE
PAGES = TOTAL * GRANULE // PAGE_SIZE


class PerFrameCMA(CMARegion):
    """Reference: the migration loop one frame at a time, each frame
    looked up, copied and retargeted on its own."""

    def allocate_range(self, start_frame, n_frames, threads=1, tag=""):
        migrated_bytes = 0
        for frame in range(start_frame, start_frame + n_frames):
            owner = self.db.owner(frame)
            if owner is None:
                continue
            if not owner.movable:
                raise MemoryError_("unmovable page inside CMA region %s" % self.name)
            attempt = 1
            while True:
                try:
                    migrated_bytes += self._migrate_out(frame)
                    break
                except MigrationError:
                    if attempt >= self.migration_retry_attempts:
                        raise
                    self.migration_retries += 1
                    yield self.sim.timeout(
                        self.migration_retry_backoff * (2 ** (attempt - 1))
                    )
                    attempt += 1
        if migrated_bytes:
            start = self.sim.now
            burst = self.migration_seconds(migrated_bytes, threads)
            if not self.sim.advance(burst):
                yield self.sim.timeout(burst)
            self.migrations.append(MigrationRecord(start, self.sim.now, migrated_bytes, threads))
            self.total_migrated_bytes += migrated_bytes
        claim = self.buddy.alloc_seconds(n_frames * self.db.granule, self.spec)
        if not self.sim.advance(claim):
            yield self.sim.timeout(claim)
        frames = list(range(start_frame, start_frame + n_frames))
        for frame in frames:
            self._free.discard(frame)
        return self.db.claim(frames, movable=False, tag=tag or self.name, contiguous=True)

    def _migrate_out(self, frame):
        owner = self.db.owner(frame)
        if owner is None:
            raise MemoryError_("occupied frame %d has no owner" % frame)
        if self.fault_injector is not None and self.fault_injector.fires(
            "cma.migration_fail"
        ):
            self.migration_failures += 1
            raise MigrationError(
                "frame %d transiently pinned during migration out of %s" % (frame, self.name)
            )
        dest = self.buddy.take_frame_outside()
        self.memory.copy_range(
            self.db.frame_addr(frame), self.db.frame_addr(dest), self.db.granule
        )
        self.db.move_frame(owner, frame, dest)
        self._free.add(frame)
        return self.db.granule


class ScriptedPins:
    """Fault site ``cma.migration_fail`` firing as scripted, then never."""

    def __init__(self, script):
        self.script = list(script)
        self.consulted = 0

    def fires(self, site):
        assert site == "cma.migration_fail"
        self.consulted += 1
        return self.consulted <= len(self.script) and self.script[self.consulted - 1]


@st.composite
def layouts(draw):
    n_allocs = draw(st.integers(1, 4))
    return {
        # (movable, reclaimable) per allocation
        "kinds": draw(
            st.lists(
                st.tuples(st.sampled_from([True, True, True, False]), st.booleans()),
                min_size=n_allocs,
                max_size=n_allocs,
            )
        ),
        # each granule's owner: an allocation index, or -1 for free
        "owners": draw(st.lists(st.integers(-1, n_allocs - 1), min_size=TOTAL, max_size=TOTAL)),
        "order_seed": draw(st.integers(0, 2**16)),
        # (page, offset, length, byte) stamped before the run
        "writes": draw(
            st.lists(
                st.tuples(
                    st.integers(0, PAGES - 1),
                    st.integers(0, PAGE_SIZE - 1),
                    st.integers(1, 96),
                    st.integers(1, 255),
                ),
                max_size=24,
            )
        ),
        "run": draw(
            st.integers(CMA_START, TOTAL - 1).flatmap(
                lambda start: st.tuples(st.just(start), st.integers(1, TOTAL - start))
            )
        ),
        "threads": draw(st.integers(1, 4)),
        "pins": draw(st.lists(st.booleans(), max_size=8)),
        # another process at ``at`` seconds: free an allocation, take
        # movable frames, which may spill into the run, or stamp every
        # owned granule as a stress sweep does
        "meddle": draw(
            st.none()
            | st.tuples(
                st.sampled_from(["free", "alloc", "stamp"]),
                st.integers(0, 8),
                st.sampled_from([0.0, 100e-6, 300e-6, 600e-6, 1e-3]),
            )
        ),
    }


def build(layout, cls):
    """A 32-granule system laid out as ``layout``, with ``cls`` as the CMA."""
    sim = Simulator()
    db = FrameDB(TOTAL * GRANULE, GRANULE)
    buddy = BuddyAllocator(db)
    memory = PhysicalMemory(TOTAL * GRANULE)
    region = cls(sim, db, buddy, memory, CMA_START, TOTAL - CMA_START, MemorySpec())
    buddy.finalize()
    rng = random.Random(layout["order_seed"])
    allocs = []
    for index, (movable, reclaimable) in enumerate(layout["kinds"]):
        frames = [f for f, owner in enumerate(layout["owners"]) if owner == index]
        rng.shuffle(frames)  # the set's iteration order follows the claim's
        if not frames:
            continue
        alloc = db.claim(frames, movable=movable, tag="a%d" % index)
        for frame in frames:
            if frame < CMA_START:
                buddy._free_outside.remove(frame)
            else:
                region._free.discard(frame)
        if reclaimable:
            buddy.register_reclaimable(alloc)
        allocs.append(alloc)
    for page, offset, length, value in layout["writes"]:
        memory._raw_write(page * PAGE_SIZE + offset, bytes([value]) * min(length, PAGE_SIZE - offset))
    region.fault_injector = ScriptedPins(layout["pins"])
    return sim, db, buddy, memory, region, allocs


def outcome(layout, cls):
    """Run the layout's allocation (and meddler); everything observable."""
    sim, db, buddy, memory, region, allocs = build(layout, cls)
    mark = memory.write_mark()
    start, n_frames = layout["run"]
    proc = sim.process(region.allocate_range(start, n_frames, threads=layout["threads"]))
    if layout["meddle"] is not None:
        action, arg, at = layout["meddle"]

        def meddler():
            yield sim.timeout(at)
            if action == "free":
                live = [a for a in allocs if not a.freed]
                if live:
                    buddy.free(live[arg % len(live)])
            elif action == "stamp":
                for alloc in allocs:
                    for frame in sorted(alloc.frames) if not alloc.freed else ():
                        memory._raw_write(db.frame_addr(frame) + arg, b"M%03d" % frame)
            elif arg:
                try:
                    allocs.append(buddy.allocate(arg, movable=True))
                except OutOfMemory:
                    pass

        sim.process(meddler())
    try:
        result = sorted(sim.run_until(proc).frames)
        error = None
    except MemoryError_ as exc:
        result, error = None, (type(exc).__name__, str(exc))
    after_run = sim.now
    sim.run()
    return {
        "result": result,
        "error": error,
        "now": (after_run, sim.now),
        "pages": {index: bytes(page) for index, page in memory._pages.items()},
        "materialized": list(memory._materialized),
        "written": memory.written_since(mark),
        "owners": list(db._owner),
        "frames": [(list(a.frames), a.freed) for a in allocs],
        "outside": list(buddy._free_outside),
        "cma_free": list(region._free),
        "reclaimable": list(buddy._reclaimable),
        "counters": (
            buddy.reclaimed_frames,
            region.total_migrated_bytes,
            region.migration_retries,
            region.migration_failures,
            region.fault_injector.consulted,
            [(m.start, m.end, m.bytes_migrated, m.threads) for m in region.migrations],
        ),
    }


@given(layout=layouts())
@settings(max_examples=300, deadline=None)
def test_run_migration_matches_the_per_frame_loop(layout):
    assert outcome(layout, CMARegion) == outcome(layout, PerFrameCMA)


def layout_of(owners, kinds, run, pins=(), meddle=None, writes=None):
    if writes is None:  # a pattern in the first page of every granule
        writes = [(2 * f, 8 * (f % 4), 40, f + 1) for f in range(TOTAL)]
    return {
        "kinds": kinds,
        "owners": owners,
        "order_seed": 7,
        "writes": writes,
        "run": run,
        "threads": 2,
        "pins": list(pins),
        "meddle": meddle,
    }


#: the outside half full of a reclaimable mapping (0) that also spills
#: into the region, an unmovable one (1) inside the region, and free
#: granules at the region's top.
CROWDED = [0] * 16 + [0, -1, 0, 0, -1, 0, 0, 0, 1, 0, -1, 0, -1, -1, -1, -1]


def test_dry_pool_reclaims_every_destination():
    layout = layout_of(CROWDED, [(True, True), (False, False)], (16, 8))
    shipped = outcome(layout, CMARegion)
    assert shipped["error"] is None and shipped["counters"][0] == 6  # six reclaimed
    assert shipped == outcome(layout, PerFrameCMA)


def test_unmovable_and_out_of_memory_errors_mid_run():
    unmovable = layout_of(CROWDED, [(True, True), (False, False)], (16, 12))
    shipped = outcome(unmovable, CMARegion)
    assert shipped["error"][0] == "MemoryError_" and shipped["counters"][1] == 0
    assert shipped == outcome(unmovable, PerFrameCMA)
    # not reclaimable: the third frame finds no destination
    oom = layout_of([0] * 14 + [-1, -1] + [0] * 16, [(True, False)], (16, 8))
    shipped = outcome(oom, CMARegion)
    assert shipped["error"][0] == "OutOfMemory" and shipped["owners"][16:18] == [None, None]
    assert shipped == outcome(oom, PerFrameCMA)


def test_pins_back_off_and_surface_after_the_last_attempt():
    retried = layout_of(CROWDED, [(True, True), (False, False)], (16, 8), pins=[0, 1, 1, 0])
    shipped = outcome(retried, CMARegion)
    assert shipped["error"] is None and shipped["counters"][2:5] == (2, 2, 8)
    assert shipped == outcome(retried, PerFrameCMA)
    surfaced = layout_of(CROWDED, [(True, True), (False, False)], (16, 8), pins=[0, 0, 1, 1, 1])
    shipped = outcome(surfaced, CMARegion)
    assert shipped["error"][0] == "MigrationError" and shipped["counters"][1] == 0
    assert shipped == outcome(surfaced, PerFrameCMA)


def test_another_process_changes_the_run_during_a_backoff():
    # a free during the first backoff empties the pinned frame's owner
    freed = layout_of(
        CROWDED, [(True, True), (False, False)], (16, 8), pins=[1], meddle=("free", 0, 100e-6)
    )
    shipped = outcome(freed, CMARegion)
    assert shipped["error"] == ("MemoryError_", "occupied frame 16 has no owner")
    assert shipped == outcome(freed, PerFrameCMA)
    # an allocation during the backoff spills into the run's free top
    spilled = layout_of(
        CROWDED[:16] + [0, -1, 0, 0] + [-1] * 12,
        [(True, True)],
        (16, 16),
        pins=[0, 1],
        meddle=("alloc", 10, 100e-6),
    )
    shipped = outcome(spilled, CMARegion)
    assert shipped["error"] is None and shipped["counters"][1] > 3 * GRANULE
    assert shipped == outcome(spilled, PerFrameCMA)
    # a write during the backoff lands on frame 16's new home (pool head
    # 12), which must already hold frame 16's bytes
    stamped = layout_of(
        [0] * 12 + [-1] * 4 + CROWDED[16:],
        [(True, True), (False, False)],
        (16, 3),
        pins=[0, 1],
        meddle=("stamp", 4, 100e-6),
    )
    shipped = outcome(stamped, CMARegion)
    assert shipped["pages"][2 * 12][4:8] == b"M012"
    assert shipped == outcome(stamped, PerFrameCMA)
