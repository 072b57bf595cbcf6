"""Shared-prefix KV reuse: the PrefixTree over a refcounted block pool.

Covers the content-addressed key scheme, whole-block hit taking by
reference, copy-on-write at the divergence point, adopt-in-place of
exclusively cached tails, publish-on-success semantics, LRU eviction
that skips referenced blocks, the admission probe, and strict
accounting (reservation underflow and ``init_prompt`` re-entry raise
instead of clamping).
"""

import pytest

from repro.errors import ConfigurationError, OutOfMemory
from repro.llm import TINYLLAMA, KVBlockPool, PagedKVCache, PromptSpec
from repro.llm.kv_cache import PrefixTree

B = 16  # block_tokens everywhere in this file


def make(total_blocks=64):
    pool = KVBlockPool(TINYLLAMA, B, total_blocks)
    tree = PrefixTree(pool)
    return pool, tree


def shared_init(pool, tree, spec, owner):
    kv = PagedKVCache(pool, owner=owner)
    result = kv.init_prompt_shared(spec, tree)
    return kv, result


# ----------------------------------------------------------------------
# key scheme
# ----------------------------------------------------------------------
def test_keys_mirror_the_offline_analyzer():
    pool, tree = make()
    assert tree.prefix_key("acme/p0", 3) == ("p", TINYLLAMA.model_id, "acme/p0", 3)
    assert PrefixTree.session_key("acme/s000001", 2) == ("s", "acme/s000001", 2)


def test_tree_attaches_to_its_pool():
    pool, tree = make()
    assert pool.tree is tree
    other = KVBlockPool(TINYLLAMA, B, 4)
    kv = PagedKVCache(other, owner="t/r1")
    with pytest.raises(ConfigurationError):
        kv.init_prompt_shared(PromptSpec(new_tokens=8), tree)


# ----------------------------------------------------------------------
# whole-block prefix hits
# ----------------------------------------------------------------------
def test_second_request_hits_published_prefix_blocks():
    pool, tree = make()
    spec = PromptSpec(prefix_id="a/p0", prefix_tokens=3 * B, session_id="a/s1",
                      new_tokens=B)
    first, r1 = shared_init(pool, tree, spec, "a/r1")
    assert r1.hit_tokens == 0 and r1.miss_tokens == spec.prompt_tokens
    first.publish(tree)
    first.release()
    # The prefix (and the fully-new session block) stay cached, refless.
    assert pool.cached_blocks == 4 and pool.used_blocks == 4

    spec2 = PromptSpec(prefix_id="a/p0", prefix_tokens=3 * B, session_id="a/s2",
                       new_tokens=B)
    second, r2 = shared_init(pool, tree, spec2, "a/r2")
    assert r2.prefix_hit_tokens == 3 * B
    assert r2.hit_blocks == 3
    assert r2.miss_tokens == B  # only the private session block computes
    # Three blocks are shared (ref taken, no fresh allocation).
    assert pool.shared_saved_blocks == 0  # refs == blocks: tree residency is not a ref
    assert pool.active_blocks == 4
    pool.check_conservation()
    second.release()
    pool.check_conservation()


def test_shared_block_refcounts_across_concurrent_holders():
    pool, tree = make()
    spec = PromptSpec(prefix_id="a/p0", prefix_tokens=2 * B, session_id="a/s1",
                      new_tokens=B)
    seed, _ = shared_init(pool, tree, spec, "a/r1")
    seed.publish(tree)
    holders = []
    for n in range(3):
        spec_n = PromptSpec(prefix_id="a/p0", prefix_tokens=2 * B,
                            session_id="a/s%d" % (n + 2), new_tokens=B)
        holders.append(shared_init(pool, tree, spec_n, "a/r%d" % (n + 2))[0])
    # 1 seed + 3 holders hold the 2 prefix blocks; each also owns 1
    # private session block: 2 shared + 4 private = 6 physical blocks.
    assert pool.used_blocks == 6
    assert pool.total_refs == 2 * 4 + 4
    assert pool.shared_saved_blocks == 6  # 3 extra refs on each prefix block
    pool.check_conservation()
    seed.release()
    for kv in holders:
        kv.release()
        pool.check_conservation()
    # Published blocks (2 prefix + the seed's full session block) stay
    # cached for the next request.
    assert pool.active_blocks == 0 and pool.cached_blocks == 3


def test_prefix_pad_block_is_private_and_wasted_tokens_tracked():
    pool, tree = make()
    spec = PromptSpec(prefix_id="a/p0", prefix_tokens=2 * B + 4,
                      session_id="a/s1", new_tokens=B)
    kv, result = shared_init(pool, tree, spec, "a/r1")
    # 2 shareable prefix blocks + 1 pad + 1 session block.
    assert len(kv.block_ids) == 4
    assert kv.waste_tokens == B - 4
    kv.publish(tree)
    # The pad block is never published (its KV depends on what follows).
    assert len(tree) == 3
    kv.release()


# ----------------------------------------------------------------------
# session stream: replay hits and COW at the divergence point
# ----------------------------------------------------------------------
def test_session_replay_hits_only_inside_context():
    pool, tree = make()
    turn1 = PromptSpec(session_id="a/s1", new_tokens=2 * B)
    kv1, r1 = shared_init(pool, tree, turn1, "a/r1")
    kv1.publish(tree)
    kv1.release()
    # Turn 2 replays turn 1's stream as context and adds new tokens.
    turn2 = PromptSpec(session_id="a/s1", context_tokens=2 * B, new_tokens=2 * B)
    kv2, r2 = shared_init(pool, tree, turn2, "a/r2")
    assert r2.session_hit_tokens == 2 * B  # the replayed span
    assert r2.miss_tokens == 2 * B  # this turn's new content
    kv2.publish(tree)
    kv2.release()
    pool.check_conservation()


def test_partial_tail_adopted_in_place_when_exclusively_cached():
    pool, tree = make()
    turn1 = PromptSpec(session_id="a/s1", new_tokens=B + 6)
    kv1, _ = shared_init(pool, tree, turn1, "a/r1")
    kv1.publish(tree)
    kv1.release()
    tail_block = tree.peek(PrefixTree.session_key("a/s1", 1))[0]
    assert pool.refcount(tail_block) == 0  # exclusively cached
    turn2 = PromptSpec(session_id="a/s1", context_tokens=B + 6, new_tokens=B - 6)
    kv2, r2 = shared_init(pool, tree, turn2, "a/r2")
    # The 6 valid tail tokens came back without a copy: adopt in place.
    assert r2.cow_tokens == 6 and r2.cow_blocks == 1
    assert pool.cows == 0
    assert tail_block in kv2.block_ids
    kv2.publish(tree)
    # Republished under the same key, now covering the full block.
    assert tree.peek(PrefixTree.session_key("a/s1", 1))[1] == B
    kv2.release()
    pool.check_conservation()


def test_partial_tail_copies_on_write_when_referenced():
    pool, tree = make()
    turn1 = PromptSpec(session_id="a/s1", new_tokens=B + 6)
    kv1, _ = shared_init(pool, tree, turn1, "a/r1")
    kv1.publish(tree)  # kv1 still holds its blocks (still decoding)
    tail_block = tree.peek(PrefixTree.session_key("a/s1", 1))[0]
    assert pool.refcount(tail_block) == 1
    turn2 = PromptSpec(session_id="a/s1", context_tokens=B + 6, new_tokens=B - 6)
    kv2, r2 = shared_init(pool, tree, turn2, "a/r2")
    assert r2.cow_tokens == 6
    assert pool.cows == 1
    assert tail_block not in kv2.block_ids  # diverged into a private copy
    pool.check_conservation()
    kv1.release()
    kv2.release()
    pool.check_conservation()


# ----------------------------------------------------------------------
# publish-on-success
# ----------------------------------------------------------------------
def test_failed_attempt_does_not_poison_the_tree():
    pool, tree = make()
    spec = PromptSpec(prefix_id="a/p0", prefix_tokens=2 * B, session_id="a/s1",
                      new_tokens=B)
    kv, _ = shared_init(pool, tree, spec, "a/r1")
    kv.release()  # faulted attempt: released before publish
    kv.publish(tree)
    assert len(tree) == 0
    assert pool.used_blocks == 0
    pool.check_conservation()


def test_probe_predicts_the_taken_hits():
    pool, tree = make()
    spec = PromptSpec(prefix_id="a/p0", prefix_tokens=3 * B, session_id="a/s1",
                      new_tokens=2 * B)
    seed, _ = shared_init(pool, tree, spec, "a/r1")
    seed.publish(tree)
    seed.release()
    repeat = PromptSpec(prefix_id="a/p0", prefix_tokens=3 * B, session_id="a/s1",
                        context_tokens=2 * B, new_tokens=B)
    predicted = tree.probe(repeat)
    kv, result = shared_init(pool, tree, repeat, "a/r2")
    assert predicted == result.hit_blocks == 5
    kv.release()


# ----------------------------------------------------------------------
# eviction under pressure
# ----------------------------------------------------------------------
def test_allocation_evicts_lru_cached_blocks_but_never_referenced_ones():
    pool, tree = make(total_blocks=4)
    spec = PromptSpec(prefix_id="a/p0", prefix_tokens=2 * B, session_id="a/s1",
                      new_tokens=B)
    kv1, _ = shared_init(pool, tree, spec, "a/r1")
    kv1.publish(tree)
    kv1.release()
    assert pool.free_blocks == 1 and pool.cached_blocks == 3
    # A 3-block private prompt must evict 2 cached blocks (LRU first).
    kv2 = PagedKVCache(pool, owner="b/r2")
    kv2.init_prompt(3 * B)
    assert tree.evictions == 2
    assert pool.cached_blocks == 1
    pool.check_conservation()
    # With everything referenced or resident and nothing evictable left,
    # exhaustion still raises.
    kv3 = PagedKVCache(pool, owner="b/r3")
    with pytest.raises(OutOfMemory):
        kv3.init_prompt(2 * B)
    kv2.release()
    pool.check_conservation()


class _NoteLog:
    """Timeline stand-in that records every pool note in order."""

    def __init__(self):
        self.notes = []

    def note(self, kind, op, source, amount, owner, extra):
        self.notes.append((op, amount, owner, extra))


def copy_then_drop_evict(tree, blocks):
    """``evict_for`` as it was written before the one-pass walk: copy
    the key list, then drop refless entries LRU-first while walking it."""
    freed = 0
    for key in list(tree._entries):
        if freed >= blocks:
            break
        block = tree._entries[key][0]
        if tree.pool.refcount(block) == 0:
            tree._drop_entry(key, owner="tree-evict")
            tree.evictions += 1
            freed += 1
    return freed


def resident_tree_with_held_entries():
    """Ten resident session blocks, LRU first; entries 0, 1 and 5 stay
    referenced by their allocating holder, the rest are refless."""
    pool, tree = make(total_blocks=12)
    for i in range(10):
        block = pool.alloc_block(owner="a/r%d" % i)
        tree.insert(tree.session_key("a/s1", i), block, B)
        if i not in (0, 1, 5):
            pool.release_block(block, owner="a/r%d" % i)
    pool.timeline = _NoteLog()
    return pool, tree


@pytest.mark.parametrize("blocks", [1, 3, 4, 7, 20])
def test_evict_for_frees_the_victims_of_the_copy_then_drop_loop(blocks):
    reference_pool, reference = resident_tree_with_held_entries()
    pool, tree = resident_tree_with_held_entries()
    assert tree.evict_for(blocks) == copy_then_drop_evict(reference, blocks)
    assert tree.evictions == reference.evictions == min(blocks, 7)
    assert pool.timeline.notes == reference_pool.timeline.notes
    assert list(tree._entries.items()) == list(reference._entries.items())
    assert pool._free == reference_pool._free
    # The referenced entries at the LRU end survive every eviction.
    assert [key[2] for key in tree._entries][:2] == [0, 1]
    pool.check_conservation()


def test_flush_drops_residency_but_not_live_references():
    pool, tree = make()
    spec = PromptSpec(prefix_id="a/p0", prefix_tokens=2 * B, session_id="a/s1",
                      new_tokens=B)
    kv, _ = shared_init(pool, tree, spec, "a/r1")
    kv.publish(tree)
    dropped = tree.flush()
    assert dropped == 3 and len(tree) == 0
    # The live holder keeps its blocks; only the cached flag went.
    assert pool.active_blocks == 3 and pool.cached_blocks == 0
    pool.check_conservation()
    kv.release()
    assert pool.used_blocks == 0


def test_can_admit_counts_cached_blocks_as_headroom():
    pool, tree = make(total_blocks=4)
    spec = PromptSpec(prefix_id="a/p0", prefix_tokens=4 * B, session_id="a/s1")
    kv, _ = shared_init(pool, tree, spec, "a/r1")
    kv.publish(tree)
    kv.release()
    assert pool.free_blocks == 0 and pool.cached_blocks == 4
    assert pool.can_admit(4)  # evictable residency is headroom
    pool.reserve(4, owner="b/r2")
    assert not pool.can_admit(1)
    pool.cancel_reservation(4, owner="b/r2")


# ----------------------------------------------------------------------
# strict accounting satellites
# ----------------------------------------------------------------------
def test_cancel_reservation_underflow_raises():
    pool, _ = make()
    pool.reserve(2, owner="t/r1")
    with pytest.raises(ConfigurationError):
        pool.cancel_reservation(3, owner="t/r1")
    with pytest.raises(ConfigurationError):
        pool.cancel_reservation(-1, owner="t/r1")
    pool.cancel_reservation(2, owner="t/r1")
    assert pool.reserved == 0


def test_alloc_from_reservation_without_hold_raises():
    pool, _ = make()
    with pytest.raises(ConfigurationError):
        pool.alloc_block(from_reservation=True, owner="t/r1")
    pool.check_conservation()  # the failed alloc left nothing behind


def test_paged_init_prompt_reentry_raises():
    pool, tree = make()
    paged = PagedKVCache(pool, owner="t/r1")
    paged.init_prompt(32)
    with pytest.raises(ConfigurationError):
        paged.init_prompt(16)
    with pytest.raises(ConfigurationError):
        paged.init_prompt_shared(PromptSpec(new_tokens=16), tree)
    paged.release()
    with pytest.raises(ConfigurationError):
        paged.init_prompt(16)  # released caches stay dead


def test_release_of_unheld_reference_raises():
    pool, _ = make()
    kv = PagedKVCache(pool, owner="t/r1")
    kv.init_prompt(B)
    block = kv.block_ids[0]
    with pytest.raises(ConfigurationError):
        pool.release_block(block, parked=True)  # no parked ref exists
    kv.release()
    with pytest.raises(ConfigurationError):
        pool.release_block(block)  # already freed
