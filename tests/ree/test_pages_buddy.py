"""Unit tests for the frame database and buddy allocator."""

import heapq
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PAGE_SIZE, MemorySpec
from repro.errors import ConfigurationError, MemoryError_, OutOfMemory
from repro.ree.buddy import BuddyAllocator
from repro.ree.cma import CMARegion
from repro.ree.pages import FrameDB, _runs
from repro.sim import Simulator

PG = PAGE_SIZE


def make_db(n_frames=64, granule=PG):
    return FrameDB(n_frames * granule, granule)


def make_buddy(db):
    buddy = BuddyAllocator(db)
    buddy.finalize()
    return buddy


def test_framedb_validates_geometry():
    with pytest.raises(ConfigurationError):
        FrameDB(100, PG)  # not a granule multiple
    with pytest.raises(ConfigurationError):
        FrameDB(PG * 4, granule=100)  # granule not page multiple


def test_claim_and_release_roundtrip():
    db = make_db()
    alloc = db.claim([1, 2, 3], movable=True, tag="t")
    assert db.owner(2) is alloc and alloc.movable
    db.release(alloc)
    assert db.owner(2) is None
    with pytest.raises(MemoryError_):
        db.release(alloc)  # double free


def test_claim_occupied_frame_rejected():
    db = make_db()
    db.claim([5], movable=False, tag="a")
    with pytest.raises(MemoryError_):
        db.claim([5], movable=True, tag="b")


def test_move_frame_retargets_allocation():
    db = make_db()
    alloc = db.claim([10], movable=True, tag="app")
    db.move_frame(alloc, 10, 20)
    assert db.owner(10) is None and db.owner(20) is alloc
    assert alloc.owns(20) and not alloc.owns(10)


def test_move_unmovable_rejected():
    db = make_db()
    alloc = db.claim([10], movable=False, tag="kernel")
    with pytest.raises(MemoryError_):
        db.move_frame(alloc, 10, 20)


def test_release_frames_partial():
    db = make_db()
    alloc = db.claim([1, 2, 3, 4], movable=False, tag="x")
    db.release_frames(alloc, [3, 4])
    assert alloc.n_frames == 2
    assert db.owner(3) is None
    db.release_frames(alloc, [1, 2])
    assert alloc.freed


def test_buddy_prefers_outside_cma_when_plentiful():
    db = make_db(64)
    buddy = BuddyAllocator(db)

    class FakeCMA:
        start_frame, end_frame = 48, 64
        free_frames = 16

        def spill_frames(self, count):
            raise AssertionError("should not spill")

    buddy.attach_cma(FakeCMA())
    buddy.finalize()
    # Outside free (48) minus the request (16) still exceeds CMA free
    # (16), so the balancing heuristic stays out of the region.
    alloc = buddy.allocate(16, movable=True)
    assert max(alloc.frames) < 48


def test_buddy_balances_into_cma_when_it_dominates_free_memory():
    db = make_db(64)
    buddy = BuddyAllocator(db)

    class FakeCMA:
        start_frame, end_frame = 16, 64
        free_frames = 48

        def __init__(self):
            self.given = []

        def spill_frames(self, count):
            take = list(range(self.end_frame - len(self.given) - count,
                              self.end_frame - len(self.given)))
            self.given.extend(take)
            FakeCMA.free_frames -= count
            return take

    fake = FakeCMA()
    buddy.attach_cma(fake)
    buddy.finalize()
    alloc = buddy.allocate(32, movable=True)
    # CMA held 48 of 64 free frames: the movable allocation draws on it.
    assert any(f >= 16 for f in alloc.frames)
    assert fake.given


def test_buddy_unmovable_never_spills():
    db = make_db(64)
    buddy = BuddyAllocator(db)

    class FakeCMA:
        start_frame, end_frame = 32, 64
        free_frames = 32

        def spill_frames(self, count):
            raise AssertionError("unmovable must not spill")

    buddy.attach_cma(FakeCMA())
    buddy.finalize()
    buddy.allocate(32, movable=False)  # exactly fills outside
    with pytest.raises(OutOfMemory):
        buddy.allocate(1, movable=False)


def test_buddy_oom_reports_availability():
    db = make_db(8)
    buddy = make_buddy(db)
    buddy.allocate(8, movable=True)
    with pytest.raises(OutOfMemory):
        buddy.allocate(1, movable=True)


def test_buddy_free_returns_frames():
    db = make_db(8)
    buddy = make_buddy(db)
    a = buddy.allocate(8, movable=True)
    buddy.free(a)
    b = buddy.allocate(8, movable=True)
    assert b.n_frames == 8


def test_buddy_alloc_seconds_linear():
    db = make_db(8)
    buddy = make_buddy(db)
    spec = MemorySpec()
    assert buddy.alloc_seconds(2 * spec.buddy_alloc_bw, spec) == pytest.approx(2.0)


def test_buddy_lowest_index_first_determinism():
    db = make_db(16)
    buddy = make_buddy(db)
    a = buddy.allocate(4, movable=True)
    assert sorted(a.frames) == [0, 1, 2, 3]
    buddy.free(a)
    b = buddy.allocate(4, movable=True)
    assert sorted(b.frames) == [0, 1, 2, 3]


def test_freed_reclaimable_allocation_is_never_reclaimed():
    # A freed allocation keeps its frame set.  Were it still registered,
    # reclaim would free frames that now belong to whoever reused them.
    db = make_db(16)
    buddy = make_buddy(db)
    stale = buddy.allocate(4, movable=True)
    buddy.register_reclaimable(stale)
    buddy.free(stale)
    reuser = buddy.allocate(4, movable=True)
    assert buddy.reclaim_outside(2) == 0
    fresh = buddy.allocate(2, movable=True)
    assert reuser.frames == {0, 1, 2, 3}
    assert not reuser.frames & fresh.frames


def eager_victims(allocs, cma_frames, n_frames):
    """Reference victim selection: every non-CMA frame of each
    reclaimable allocation, in its frame order, cut to what is still
    owed.  Returns ``(alloc_id, frames)`` per allocation reclaimed from."""
    picked = []
    freed = 0
    for alloc in allocs:
        if freed >= n_frames:
            break
        victims = [f for f in alloc.frames if f not in cma_frames]
        take = victims[: n_frames - freed]
        if take:
            picked.append((alloc.alloc_id, take))
            freed += len(take)
    return picked


@given(
    cma_start=st.integers(min_value=0, max_value=32),
    cma_size=st.integers(min_value=8, max_value=32),
    plan=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=12),
            st.sampled_from(["reclaimable", "pinned", "hole"]),
        ),
        min_size=1,
        max_size=10,
    ),
    requests=st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_reclaim_outside_matches_eager_victim_selection(cma_start, cma_size, plan, requests):
    db = make_db(64)
    buddy = BuddyAllocator(db)
    region = CMARegion(Simulator(), db, buddy, None, cma_start, cma_size, MemorySpec())
    buddy.finalize()
    cma_frames = set(range(region.start_frame, region.end_frame))
    # Movable allocations straddle the region once it holds most free
    # memory; freeing the holes afterwards interleaves the free pool.
    registered, holes = [], []
    for size, role in plan:
        if size > buddy.free_outside_cma + buddy.free_inside_cma:
            break
        alloc = buddy.allocate(size, movable=True)
        if role == "reclaimable":
            buddy.register_reclaimable(alloc)
            registered.append(alloc)
        elif role == "hole":
            holes.append(alloc)
    for alloc in holes:
        buddy.free(alloc)

    released = []
    release_frames = db.release_frames

    def spy(alloc, frames):
        released.append((alloc.alloc_id, list(frames)))
        release_frames(alloc, frames)

    db.release_frames = spy
    for n_frames in requests:
        live = [alloc for alloc in registered if not alloc.freed]
        expected = eager_victims(live, cma_frames, n_frames)
        before = buddy.reclaimed_frames
        released.clear()
        freed = buddy.reclaim_outside(n_frames)
        assert released == expected
        assert freed == sum(len(take) for _, take in expected) <= n_frames
        assert buddy.reclaimed_frames - before == freed
        # Fully drained allocations leave the list; the rest keep their order.
        assert list(buddy._reclaimable.values()) == [a for a in live if not a.freed]


def test_run_claim_rejects_a_taken_frame_and_changes_nothing():
    db = make_db(64)
    db.claim([20, 25], movable=False, tag="a")
    before = [db.owner(f) for f in range(64)]
    with pytest.raises(MemoryError_, match="frame 20 is not free"):
        db.claim(list(range(10, 30)) + [40, 41], movable=True, tag="b")
    # The error names the first taken frame in the caller's order.
    with pytest.raises(MemoryError_, match="frame 25 is not free"):
        db.claim([30, 29, 25, 20], movable=True, tag="c")
    assert [db.owner(f) for f in range(64)] == before


def test_run_release_rejects_a_frame_owned_by_another_allocation():
    db = make_db(64)
    a = db.claim(range(0, 10), movable=True, tag="a")
    b = db.claim(range(10, 20), movable=True, tag="b")
    a.frames.add(12)  # bookkeeping gone wrong: a lists one of b's frames
    with pytest.raises(MemoryError_, match="frame 12 not owned by allocation %d" % a.alloc_id):
        db.release(a)
    assert not a.freed
    assert db.owner(3) is a and db.owner(12) is b
    assert db.free_frames == 44


def runs_per_frame(frames):
    """Reference: the runs of ``frames`` found one frame at a time."""
    runs = []
    for frame in frames:
        if runs and frame == runs[-1][1]:
            runs[-1] = (runs[-1][0], frame + 1)
        else:
            runs.append((frame, frame + 1))
    return runs


@given(
    start=st.integers(0, 10**6),
    # (run length, step to the next run): steps of 2 leave one-frame gaps
    segments=st.lists(
        st.tuples(st.integers(1, 70) | st.just(1), st.sampled_from([2, 2, 3, 1000])),
        max_size=12,
    ),
)
@settings(max_examples=200, deadline=None)
def test_runs_match_the_per_frame_walk(start, segments):
    frames = []
    for length, step in segments:
        frames += range(start, start + length)
        start += length - 1 + step
    assert _runs(frames) == runs_per_frame(frames)


@given(
    taken=st.sets(st.integers(0, 95), max_size=6),
    head=st.sets(st.integers(0, 63), max_size=40),
    spill=st.sets(st.integers(64, 95), max_size=32),
)
@settings(max_examples=200, deadline=None)
def test_claim_of_the_buddy_shape_matches_a_per_frame_claim(taken, head, spill):
    # the buddy's claims: an ascending head from outside the CMA regions,
    # then a descending spill from a region
    frames = sorted(head) + sorted(spill, reverse=True)
    db = make_db(96)
    if taken:
        db.claim(sorted(taken), movable=True, tag="taken")
    owners = list(db._owner)
    first_taken = next((f for f in frames if owners[f] is not None), None)
    if first_taken is not None:
        with pytest.raises(MemoryError_, match="frame %d is not free$" % first_taken):
            db.claim(frames, movable=True, tag="new")
        assert db._owner == owners
    elif frames:
        alloc = db.claim(frames, movable=True, tag="new")
        for frame in frames:
            owners[frame] = alloc.alloc_id
        assert db._owner == owners
        assert list(alloc.frames) == list(set(frames))


class HeapPoolBuddy(BuddyAllocator):
    """Reference: the allocator with its outside pool as a binary heap,
    popped and pushed one frame at a time, lowest frame first."""

    def finalize(self):
        super().finalize()
        heapq.heapify(self._free_outside)

    def allocate(self, n_frames, movable, tag=""):
        if n_frames <= 0:
            raise OutOfMemory("allocation of %d frames" % n_frames)
        available = self.free_outside_cma + (self.free_inside_cma if movable else 0)
        if n_frames > available:
            self.reclaim_outside(n_frames - available)
            available = self.free_outside_cma + (self.free_inside_cma if movable else 0)
        if n_frames > available:
            raise OutOfMemory("%d frames requested, %d available" % (n_frames, available))
        frames = []
        from_cma = 0
        if movable and self._cma_regions:
            outside = len(self._free_outside)
            inside = self.free_inside_cma
            if outside - n_frames >= inside:
                from_cma = 0
            elif inside - n_frames >= outside:
                from_cma = min(n_frames, inside)
            else:
                balanced = (n_frames - outside + inside + 1) // 2
                from_cma = min(n_frames, inside, max(0, balanced))
        from_outside = min(n_frames - from_cma, len(self._free_outside))
        for _ in range(from_outside):
            frames.append(heapq.heappop(self._free_outside))
        remaining = n_frames - len(frames)
        for region in sorted(self._cma_regions, key=lambda r: -r.free_frames):
            if remaining == 0:
                break
            spilled = region.spill_frames(min(remaining, region.free_frames))
            frames.extend(spilled)
            remaining -= len(spilled)
        return self.db.claim(frames, movable=movable, tag=tag)

    def take_frame_outside(self):
        if not self._free_outside:
            self.reclaim_outside(1)
        if not self._free_outside:
            raise OutOfMemory("no free frames outside CMA for migration")
        return heapq.heappop(self._free_outside)

    def return_frames(self, frames):
        for frame in frames:
            for region in self._cma_regions:
                if region.start_frame <= frame < region.end_frame:
                    region.return_frames([frame])
                    break
            else:
                heapq.heappush(self._free_outside, frame)

    def _return_outside(self, frames):
        for frame in frames:
            heapq.heappush(self._free_outside, frame)


def pool_system(cls):
    """96 frames with two CMA regions, the claims the database saw, and
    the allocator."""
    db = make_db(96)
    buddy = cls(db)
    regions = [
        CMARegion(Simulator(), db, buddy, None, 72, 24, MemorySpec(), name="params"),
        CMARegion(Simulator(), db, buddy, None, 60, 12, MemorySpec(), name="data"),
    ]
    buddy.finalize()
    claims = []
    claim = db.claim

    def recording_claim(frames, *args, **kwargs):
        frames = list(frames)
        claims.append(frames)
        return claim(frames, *args, **kwargs)

    db.claim = recording_claim
    return buddy, regions, claims


def outcome(call):
    try:
        return call()
    except OutOfMemory:
        return "oom"


@pytest.mark.parametrize("seed", range(16))
def test_sorted_pool_matches_the_heap_pool_frame_for_frame(seed):
    rng = random.Random(seed)
    ref, ref_regions, ref_claims = pool_system(HeapPoolBuddy)
    new, new_regions, new_claims = pool_system(BuddyAllocator)
    ref_live, new_live, taken = [], [], []
    for _ in range(200):
        op = rng.choice(["alloc", "alloc", "free", "reclaim", "take", "return"])
        if op == "alloc":
            n, movable = rng.randint(1, 24), rng.random() < 0.7
            expected = outcome(lambda: ref.allocate(n, movable))
            got = outcome(lambda: new.allocate(n, movable))
            assert (expected == "oom") == (got == "oom")
            if got != "oom":
                assert list(got.frames) == list(expected.frames)
                ref_live.append(expected)
                new_live.append(got)
                if rng.random() < 0.5:
                    ref.register_reclaimable(expected)
                    new.register_reclaimable(got)
        elif op == "free":
            live = [i for i, alloc in enumerate(new_live) if not alloc.freed]
            if live:
                index = rng.choice(live)
                ref.free(ref_live[index])
                new.free(new_live[index])
        elif op == "reclaim":
            n = rng.randint(0, 10)
            assert new.reclaim_outside(n) == ref.reclaim_outside(n)
        elif op == "take":
            frame = outcome(new.take_frame_outside)
            assert frame == outcome(ref.take_frame_outside)
            if frame != "oom":
                taken.append(frame)
        elif taken:
            back = rng.sample(taken, rng.randint(1, len(taken)))
            taken = [f for f in taken if f not in back]
            ref.return_frames(back)
            new.return_frames(back)
        assert new._free_outside == sorted(ref._free_outside)
        assert [r._free for r in new_regions] == [r._free for r in ref_regions]
        assert [list(a.frames) for a in new_live] == [list(a.frames) for a in ref_live]
        assert new.db._owner == ref.db._owner
    assert new_claims == ref_claims
