"""KV-cache bookkeeping for the second TZASC region (§4.2).

The paper's deployed layout holds one request's KV: it is sized for the
prompt at prefill, grows by one token per decode step, and is fully
released after the inference.  Every TA keeps it in blocks, through a
batch engine of size one by default.  Two structures share this module:

* :class:`KVBlockPool` + :class:`PagedKVCache` — the data region carved
  into fixed-size *token blocks* (vLLM/Orca-style); each in-flight
  sequence holds a list of block ids instead of a contiguous range, and
  a free list recycles blocks between sequences.  The TZASC range itself stays a single
  contiguous, end-grown span (``docs/batching.md`` explains why this
  preserves the §4.2 no-fragmentation claim).
* :class:`PrefixTree` over the same pool — shared-prefix KV reuse with
  per-block refcounts and copy-on-write.  Whole blocks of a prompt that
  hash to content a previous request already prefilled (the tenant's
  system prompt, or an earlier turn of the same session) are *referenced*
  instead of recomputed; only the cache-miss suffix pays prefill.  The
  offline analyzer (:mod:`repro.analysis.prefix_share`) replays traces
  through this same tree, so this module alone defines block-keyed reuse.

Accounting is strict by design: reservation underflow, double release,
and unheld-block operations raise :class:`~repro.errors
.ConfigurationError` instead of clamping — once blocks are shared, a
silent ``max(0, ...)`` would mask exactly the refcount corruption the
conservation invariant (``free + active + parked + cached == total``)
exists to catch.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigurationError, OutOfMemory
from .models import ModelSpec

__all__ = [
    "KVBlockPool",
    "PagedKVCache",
    "BlockCheckpoint",
    "PromptSpec",
    "PrefixTree",
    "ShareResult",
]

# Per-block category indices (the pool's accounting buckets).  A block
# is *active* while any live sequence references it, *parked* while only
# preempted sequences do, and *cached* while nobody references it but
# the prefix tree keeps its content resident for future reuse.
_ACTIVE, _PARKED, _CACHED = 0, 1, 2
_CATEGORY_NAMES = ("active", "parked", "cached")


@dataclass(frozen=True)
class BlockCheckpoint:
    """A parked sequence's KV state: exactly which blocks hold its cache.

    Frozen so the checkpoint taken at eviction is byte-identical to the
    one restore sees — the determinism tests compare the tuples.
    """

    block_ids: Tuple[int, ...]
    tokens: int


@dataclass(frozen=True)
class PromptSpec:
    """Content identity of a prompt, for shared-prefix KV reuse.

    The token *count* alone cannot say what is reusable; this carries
    the same identity fields the fleet trace does (:class:`~repro
    .workloads.fleet.FleetRequest`): a content-addressed shared prefix
    (the tenant's system prompt) and a session-private stream (replayed
    conversation context plus this turn's new tokens).
    """

    prefix_id: str = ""
    prefix_tokens: int = 0
    session_id: str = ""
    context_tokens: int = 0
    new_tokens: int = 0

    def __post_init__(self):
        if min(self.prefix_tokens, self.context_tokens, self.new_tokens) < 0:
            raise ConfigurationError("PromptSpec token counts must be >= 0")
        if self.prefix_tokens and not self.prefix_id:
            raise ConfigurationError("prefix_tokens without a prefix_id")

    @property
    def prompt_tokens(self) -> int:
        return self.prefix_tokens + self.context_tokens + self.new_tokens

    @classmethod
    def from_fleet_request(cls, request) -> "PromptSpec":
        """Build the spec a :class:`~repro.workloads.fleet.FleetRequest`
        implies (same fields, same meaning)."""
        return cls(
            prefix_id=request.prefix_id,
            prefix_tokens=request.prefix_tokens if request.prefix_id else 0,
            session_id=request.session_id,
            context_tokens=request.context_tokens,
            new_tokens=request.new_tokens,
        )

    def worst_case_blocks(self, block_tokens: int, output_tokens: int = 0) -> int:
        """Physical blocks if *nothing* hits: the two streams round up
        independently (the prefix tail block is padded so the session
        stream starts block-aligned — that is what makes prefix blocks
        content-addressable across prompts of different lengths)."""
        blocks = 0
        if self.prefix_tokens:
            blocks += -(-self.prefix_tokens // block_tokens)
        stream = self.context_tokens + self.new_tokens + output_tokens
        blocks += -(-stream // block_tokens)
        return blocks


@dataclass
class ShareResult:
    """What ``init_prompt_shared`` found in the prefix tree."""

    hit_tokens: int = 0
    prefix_hit_tokens: int = 0
    session_hit_tokens: int = 0
    #: tokens recovered by copy-on-write from partial tail blocks — kept
    #: separate from ``hit_tokens``, which counts whole-block hits only.
    cow_tokens: int = 0
    #: tokens that must actually be prefilled (the cache-miss suffix).
    miss_tokens: int = 0
    hit_blocks: int = 0
    cow_blocks: int = 0


class KVBlockPool:
    """Fixed-size token blocks over the data region's KV span.

    The pool owns a budget of ``total_blocks`` block slots.  Allocation
    always hands out the *lowest-numbered* free block (a min-heap free
    list): freed blocks are recycled before the span grows, which keeps
    the high-water mark — and therefore the protected TZASC range — as
    low as the live working set allows.  ``reserved`` is the admission
    side's hold: the gateway reserves a request's worst-case block count
    at dispatch, and each allocation made on behalf of that request
    consumes one unit of the hold (check-then-reserve is race-free
    because dispatch never yields).

    Every held block carries a refcount split by holder state
    (active/parked) plus a cached flag; the conservation identity is
    ``free + active + parked + cached == total`` where each category
    counts *blocks* (a block shared by a live and a parked sequence is
    active — the stricter holder wins).  Reservation and refcount
    underflow raise instead of clamping.
    """

    def __init__(self, model: ModelSpec, block_tokens: int, total_blocks: int):
        if block_tokens < 1:
            raise ConfigurationError("block_tokens must be positive")
        if total_blocks < 1:
            raise ConfigurationError("total_blocks must be positive")
        self.model = model
        self.block_tokens = block_tokens
        self.total_blocks = total_blocks
        self._free: List[int] = list(range(total_blocks))  # already a heap
        #: block id -> [active_refs, parked_refs, cached_flag]
        self._blocks: Dict[int, List[int]] = {}
        #: blocks per category, kept incrementally: [active, parked, cached]
        self._cats = [0, 0, 0]
        #: total holder references (cached residency is not a reference)
        self.total_refs = 0
        self.reserved = 0
        #: one past the highest block id ever handed out since the last
        #: full drain: the number of block slots the secure region must
        #: back.  TZASC shrink is end-only, so this only resets when the
        #: pool is completely empty (cached blocks keep the span backed).
        self.backing_blocks = 0
        #: copy-on-write count since construction.
        self.cows = 0
        #: prefix-tree attach point (set by :class:`PrefixTree`).
        self.tree: Optional["PrefixTree"] = None
        #: the unreleased caches (:class:`PagedKVCache`) drawing on this
        #: pool, in creation order: the holders of every block reference.
        self.caches: Dict["PagedKVCache", None] = {}
        #: memory-timeline attach point (repro.obs.memory).
        self.timeline = None

    @property
    def block_bytes(self) -> int:
        return self.model.kv_bytes(self.block_tokens)

    @property
    def free_blocks(self) -> int:
        return len(self._free)

    @property
    def used_blocks(self) -> int:
        return self.total_blocks - len(self._free)

    @property
    def active_blocks(self) -> int:
        """Blocks referenced by at least one live (unparked) sequence."""
        return self._cats[_ACTIVE]

    @property
    def parked_blocks(self) -> int:
        """Blocks whose only references belong to parked sequences."""
        return self._cats[_PARKED]

    @property
    def cached_blocks(self) -> int:
        """Unreferenced blocks the prefix tree keeps resident.  These
        are reclaimable on demand, so admission counts them as head
        room, but they still occupy backed span until evicted."""
        return self._cats[_CACHED]

    @property
    def shared_saved_blocks(self) -> int:
        """Block allocations avoided by sharing right now: holder
        references in excess of the physical blocks backing them."""
        return self.total_refs - (self._cats[_ACTIVE] + self._cats[_PARKED])

    @property
    def bytes_used(self) -> int:
        return self.used_blocks * self.block_bytes

    def blocks_for_tokens(self, tokens: int) -> int:
        return -(-tokens // self.block_tokens)

    def can_admit(self, blocks: int) -> bool:
        """Would ``blocks`` fit on top of every existing hold?  Cached
        blocks count as free headroom — allocation evicts them."""
        return (self.free_blocks + self.cached_blocks) - self.reserved >= blocks

    def reserve(self, blocks: int, owner: str = "") -> None:
        if not self.can_admit(blocks):
            raise OutOfMemory(
                "cannot reserve %d KV blocks (%d free, %d cached, %d already reserved)"
                % (blocks, self.free_blocks, self.cached_blocks, self.reserved)
            )
        self.reserved += blocks
        if self.timeline is not None:
            self.timeline.note("kv", "reserve", self, blocks, owner, ())

    def cancel_reservation(self, blocks: int, owner: str = "") -> None:
        if blocks < 0 or blocks > self.reserved:
            raise ConfigurationError(
                "cancel of %d reserved KV blocks but only %d are held"
                % (blocks, self.reserved)
            )
        self.reserved -= blocks
        if self.timeline is not None:
            self.timeline.note("kv", "cancel", self, blocks, owner, ())

    # -- allocation and reference lifecycle ----------------------------
    def alloc_block(self, from_reservation: bool = False, owner: str = "") -> int:
        if not self._free and self.tree is not None:
            # Under pressure the prefix tree's unreferenced residents
            # are the first to go (they are pure opportunity, not state).
            self.tree.evict_for(1)
        if not self._free:
            raise OutOfMemory("KV block pool exhausted (%d blocks)" % self.total_blocks)
        if from_reservation:
            if self.reserved <= 0:
                raise ConfigurationError(
                    "allocation drains a reservation but none is held"
                )
            self.reserved -= 1
        block = heapq.heappop(self._free)
        self._blocks[block] = [1, 0, 0]
        self._cats[_ACTIVE] += 1
        self.total_refs += 1
        self.backing_blocks = max(self.backing_blocks, block + 1)
        if self.timeline is not None:
            self.timeline.note(
                "kv", "alloc", self, block, owner, 1 if from_reservation else 0
            )
        return block

    def _state(self, block: int) -> List[int]:
        state = self._blocks.get(block)
        if state is None:
            raise ConfigurationError("operation on unheld KV block %d" % block)
        return state

    @staticmethod
    def _category(state: List[int]) -> int:
        if state[_ACTIVE] > 0:
            return _ACTIVE
        if state[_PARKED] > 0:
            return _PARKED
        return _CACHED

    def _recategorize(self, state: List[int], before: int) -> bool:
        after = self._category(state)
        if after != before:
            self._cats[before] -= 1
            self._cats[after] += 1
            return True
        return False

    def ref_block(self, block: int, owner: str = "") -> None:
        """Take one more live reference on an already-held block — the
        sharing fast path (zero compute, zero copy)."""
        state = self._state(block)
        before = self._category(state)
        state[_ACTIVE] += 1
        self.total_refs += 1
        self._recategorize(state, before)
        if self.timeline is not None:
            self.timeline.note("kv", "ref", self, block, owner, _CATEGORY_NAMES[before])

    def cow_block(
        self,
        src: int,
        owner: str = "",
        from_reservation: bool = False,
        tokens: int = 0,
    ) -> int:
        """Copy-on-write: allocate a private block seeded from ``src``
        (``tokens`` of its content survive the divergence)."""
        self._state(src)  # the source must still be held/resident
        block = self.alloc_block(from_reservation=from_reservation, owner=owner)
        self.cows += 1
        if self.timeline is not None:
            self.timeline.note("kv", "cow", self, tokens, owner, (src, block))
        return block

    def release_block(self, block: int, owner: str = "", parked: bool = False) -> None:
        """Drop one reference; the block frees only when the last
        reference goes and the prefix tree holds no residency."""
        state = self._state(block)
        idx = _PARKED if parked else _ACTIVE
        if state[idx] <= 0:
            raise ConfigurationError(
                "release of a %s reference not held on block %d"
                % (_CATEGORY_NAMES[idx], block)
            )
        before = self._category(state)
        state[idx] -= 1
        self.total_refs -= 1
        if state[_ACTIVE] == 0 and state[_PARKED] == 0 and not state[_CACHED]:
            self._free_block(block, owner, _CATEGORY_NAMES[before])
        else:
            self._recategorize(state, before)
            if self.timeline is not None:
                after = _CATEGORY_NAMES[self._category(state)]
                self.timeline.note(
                    "kv", "unref", self, block, owner, (_CATEGORY_NAMES[before], after)
                )

    def _free_block(self, block: int, owner: str, category: str) -> None:
        del self._blocks[block]
        self._cats[_CATEGORY_NAMES.index(category)] -= 1
        heapq.heappush(self._free, block)
        if self.used_blocks == 0:
            self.backing_blocks = 0
        if self.timeline is not None:
            self.timeline.note("kv", "release", self, block, owner, category)

    # -- park/restore (per-reference, shared-safe) ---------------------
    def park_block(self, block: int) -> bool:
        """Move one reference active -> parked; True if the block's
        accounting category changed (last active holder left)."""
        state = self._state(block)
        if state[_ACTIVE] <= 0:
            raise ConfigurationError("park of an unheld active reference")
        before = self._category(state)
        state[_ACTIVE] -= 1
        state[_PARKED] += 1
        return self._recategorize(state, before)

    def restore_block(self, block: int) -> bool:
        """Move one reference parked -> active; True on category change."""
        state = self._state(block)
        if state[_PARKED] <= 0:
            raise ConfigurationError("restore of an unheld parked reference")
        before = self._category(state)
        state[_PARKED] -= 1
        state[_ACTIVE] += 1
        return self._recategorize(state, before)

    # -- prefix-tree residency -----------------------------------------
    def cache_block(self, block: int, owner: str = "") -> None:
        state = self._state(block)
        if state[_CACHED]:
            return
        before = self._category(state)
        state[_CACHED] = 1
        self._recategorize(state, before)
        if self.timeline is not None:
            self.timeline.note("kv", "cache", self, 1, owner, block)

    def uncache_block(self, block: int, owner: str = "") -> None:
        state = self._state(block)
        if not state[_CACHED]:
            return
        before = self._category(state)
        state[_CACHED] = 0
        if state[_ACTIVE] == 0 and state[_PARKED] == 0:
            self._free_block(block, owner, _CATEGORY_NAMES[before])
        else:
            self._recategorize(state, before)
        if self.timeline is not None:
            self.timeline.note("kv", "uncache", self, 1, owner, block)

    def refcount(self, block: int) -> int:
        state = self._blocks.get(block)
        return 0 if state is None else state[_ACTIVE] + state[_PARKED]

    def check_conservation(self) -> None:
        """Raise unless every accounting identity holds (test hook)."""
        if self.free_blocks + sum(self._cats) != self.total_blocks:
            raise ConfigurationError(
                "pool conservation violated: %d free + %s categorized != %d total"
                % (self.free_blocks, self._cats, self.total_blocks)
            )
        if len(self._blocks) != sum(self._cats):
            raise ConfigurationError("category counts diverge from held blocks")
        refs = sum(s[_ACTIVE] + s[_PARKED] for s in self._blocks.values())
        if refs != self.total_refs:
            raise ConfigurationError(
                "refcount sum %d != tracked total %d" % (refs, self.total_refs)
            )
        for block, state in self._blocks.items():
            if self._category(state) == _CACHED and not state[_CACHED]:
                raise ConfigurationError("refless block %d not cached" % block)


class PrefixTree:
    """Content-addressed residency over a :class:`KVBlockPool`.

    Shared prefixes hash by content — ``("p", model_id, prefix_id, i)`` — so
    any request carrying the same system prompt hits blocks a previous
    request already prefilled; conversation streams hash by position —
    ``("s", session_id, i)`` — so only a later turn of the same session
    reuses them.  Cross-tenant sharing never happens because prefix ids
    are minted per tenant upstream (the paper's §3.1 isolation stance).

    Entries are MRU-ordered; eviction walks from the LRU end and only
    reclaims blocks nobody references (pure cache, not live state).
    """

    def __init__(self, pool: KVBlockPool):
        self.pool = pool
        pool.tree = self
        #: key -> [block, valid_tokens], ordered by recency.
        self._entries: "OrderedDict[Tuple, List[int]]" = OrderedDict()
        self._by_block: Dict[int, Tuple] = {}
        self.hits = 0
        self.misses = 0
        self.inserts = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def prefix_key(self, prefix_id: str, index: int) -> Tuple:
        return ("p", self.pool.model.model_id, prefix_id, index)

    @staticmethod
    def session_key(session_id: str, index: int) -> Tuple:
        return ("s", session_id, index)

    def lookup(self, key: Tuple) -> Optional[List[int]]:
        """Resident entry for ``key`` (MRU touch), else None."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def peek(self, key: Tuple) -> Optional[List[int]]:
        """Like :meth:`lookup` but without perturbing recency — the
        admission probe may poll the same head many times."""
        return self._entries.get(key)

    def probe(self, spec: PromptSpec) -> int:
        """Predicted whole-block hits for ``spec``: what admission may
        subtract from the worst-case block budget.  COW opportunities
        are deliberately excluded — they still consume a fresh block."""
        block_tokens = self.pool.block_tokens
        hits = 0
        if spec.prefix_tokens and spec.prefix_id:
            for i in range(spec.prefix_tokens // block_tokens):
                entry = self.peek(self.prefix_key(spec.prefix_id, i))
                if entry is not None and entry[1] >= block_tokens:
                    hits += 1
        if spec.session_id:
            stream = spec.context_tokens + spec.new_tokens
            for i in range(stream // block_tokens):
                if i * block_tokens >= spec.context_tokens:
                    break  # beyond the replayed span: new content
                entry = self.peek(self.session_key(spec.session_id, i))
                if entry is not None and entry[1] >= block_tokens:
                    hits += 1
        return hits

    def insert(self, key: Tuple, block: int, valid_tokens: int) -> None:
        """Publish ``block`` as the resident content for ``key``.

        First-published wins unless the newcomer carries strictly more
        valid tokens (a grown tail block replaces its shorter past)."""
        entry = self._entries.get(key)
        if entry is not None:
            if valid_tokens <= entry[1]:
                self._entries.move_to_end(key)
                return
            self._drop_entry(key, owner="tree")
        stale = self._by_block.get(block)
        if stale is not None:
            # One block backs one key: republishing under a new key
            # (a COW-adopted tail) retires the old mapping first.
            self._drop_entry(stale, owner="tree")
        self.pool.cache_block(block, owner="tree")
        self._entries[key] = [block, valid_tokens]
        self._by_block[block] = key
        self.inserts += 1

    def remove(self, key: Tuple) -> None:
        if key in self._entries:
            self._drop_entry(key, owner="tree")

    def _drop_entry(self, key: Tuple, owner: str) -> None:
        block, _ = self._entries.pop(key)
        del self._by_block[block]
        self.pool.uncache_block(block, owner=owner)

    def evict_for(self, blocks: int) -> int:
        """Free up to ``blocks`` unreferenced cached blocks (LRU first);
        referenced entries are skipped — their content is live state,
        reclaimed naturally when the holders release.  Victims are
        collected first and dropped after the walk, so the walk never
        mutates the entries it iterates and stops at the last victim
        instead of visiting every entry."""
        refcount = self.pool.refcount
        victims = []
        for key, entry in self._entries.items():
            if len(victims) >= blocks:
                break
            if refcount(entry[0]) == 0:
                victims.append(key)
        for key in victims:
            self._drop_entry(key, owner="tree-evict")
        self.evictions += len(victims)
        return len(victims)

    def flush(self) -> int:
        """Drop every residency (refless blocks free immediately;
        referenced blocks merely lose their cached flag)."""
        dropped = len(self._entries)
        for key in list(self._entries):
            self._drop_entry(key, owner="tree-flush")
        return dropped

    @property
    def hit_rate(self) -> float:
        looked = self.hits + self.misses
        return self.hits / looked if looked else 0.0

    def to_dict(self) -> Dict:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 6),
            "inserts": self.inserts,
            "evictions": self.evictions,
        }


class PagedKVCache:
    """One sequence's KV cache as a list of pool blocks.

    Growth allocates whole blocks from the shared pool on boundary
    crossings instead of assuming a private contiguous range.
    ``release()`` is idempotent: the TA's try/finally may race the
    engine's cleanup, and blocks must go back to the free list exactly
    once.

    With a :class:`PrefixTree`, :meth:`init_prompt_shared` walks the
    tree instead of allocating blindly: whole-block hits take references
    (zero compute), partial tail blocks copy-on-write at the divergence
    point, and only the miss suffix needs real prefill.  On success the
    sequence :meth:`publish`\\ es its prompt-span blocks back into the
    tree for the next request.
    """

    def __init__(self, pool: KVBlockPool, reserved_blocks: int = 0, owner: str = ""):
        self.pool = pool
        self.model = pool.model
        self.block_ids: List[int] = []
        self.tokens = 0
        #: unconsumed admission hold; each block allocation drains one.
        self.reserved_blocks = reserved_blocks
        self.released = False
        self.parked = False
        #: timeline attribution (``tenant/rNNN``); set by the TA from the
        #: request's trace context before the first allocation.
        self.owner = owner
        #: dead tokens padding the shared-prefix tail block so the
        #: session stream starts block-aligned; zero without sharing.
        self.waste_tokens = 0
        #: (key, block, valid_tokens) publications deferred until the
        #: prefill actually succeeded — a faulted attempt must not
        #: poison the tree with never-computed content.
        self._pending: List[Tuple[Tuple, int, int]] = []
        pool.caches[self] = None

    @property
    def bytes_used(self) -> int:
        """Physical footprint: whole blocks, not just live tokens."""
        return len(self.block_ids) * self.pool.block_bytes

    def _alloc_one(self) -> int:
        use_hold = self.reserved_blocks > 0
        block = self.pool.alloc_block(from_reservation=use_hold, owner=self.owner)
        if use_hold:
            self.reserved_blocks -= 1
        return block

    def ensure_capacity(self, tokens: int) -> None:
        """Allocate blocks (without advancing ``tokens``) so the cache
        can hold ``tokens`` — the engine pre-allocates a step's growth
        before extending the region backing it."""
        needed = self.pool.blocks_for_tokens(tokens + self.waste_tokens)
        while len(self.block_ids) < needed:
            self.block_ids.append(self._alloc_one())

    def _grow_to(self, tokens: int) -> None:
        self.ensure_capacity(tokens)
        self.tokens = tokens

    def _check_fresh(self) -> None:
        if self.released:
            raise ConfigurationError("init_prompt on a released KV cache")
        if self.block_ids or self.tokens:
            # Re-initializing would orphan the held blocks: a retried
            # prefill after a fault must build a fresh cache (or call
            # release() first) so blocks cannot be double-held.
            raise ConfigurationError(
                "init_prompt on a non-empty paged KV cache (%d blocks live)"
                % len(self.block_ids)
            )

    def init_prompt(self, prompt_tokens: int) -> None:
        self._check_fresh()
        self._grow_to(prompt_tokens)

    def init_prompt_shared(self, spec: PromptSpec, tree: PrefixTree) -> ShareResult:
        """Take the prompt's blocks through the prefix tree: reference
        whole-block hits, COW partial tails, allocate the misses.

        Returns the :class:`ShareResult`; ``tokens`` is set to the full
        prompt immediately (the blocks all exist), the caller schedules
        real prefill compute for ``miss_tokens`` only.
        """
        self._check_fresh()
        if tree.pool is not self.pool:
            raise ConfigurationError("prefix tree belongs to a different pool")
        block_tokens = self.pool.block_tokens
        result = ShareResult()

        def take_hit(entry: List[int], tokens: int) -> None:
            self.pool.ref_block(entry[0], owner=self.owner)
            self.block_ids.append(entry[0])
            result.hit_tokens += tokens
            result.hit_blocks += 1
            tree.hits += 1

        def take_cow(key: Optional[Tuple], entry: List[int], publish_valid: int) -> None:
            src, valid = entry
            if self.pool.refcount(src) == 0:
                # Exclusively cached: adopt in place and retire the tree
                # entry — we will republish it longer on success.
                self.pool.ref_block(src, owner=self.owner)
                if key is not None:
                    tree.remove(key)
                self.block_ids.append(src)
            else:
                # Referenced by someone else: diverging writes get a
                # private copy seeded with the shared prefix of content.
                self.block_ids.append(
                    self.pool.cow_block(src, owner=self.owner, tokens=valid)
                )
                if self.reserved_blocks > 0:
                    self.reserved_blocks -= 1
                    self.pool.cancel_reservation(1, owner=self.owner)
            result.cow_tokens += valid
            result.cow_blocks += 1
            if key is not None:
                self._pending.append((key, self.block_ids[-1], publish_valid))

        def take_miss(key: Optional[Tuple], publish_valid: int) -> None:
            self.block_ids.append(self._alloc_one())
            tree.misses += 1
            if key is not None:
                self._pending.append((key, self.block_ids[-1], publish_valid))

        # --- shared-prefix stream: content-addressed whole blocks -----
        if spec.prefix_tokens and spec.prefix_id:
            for i in range(spec.prefix_tokens // block_tokens):
                key = tree.prefix_key(spec.prefix_id, i)
                entry = tree.lookup(key)
                if entry is not None and entry[1] >= block_tokens:
                    take_hit(entry, block_tokens)
                    result.prefix_hit_tokens += block_tokens
                else:
                    take_miss(key, block_tokens)
            pad = spec.prefix_tokens % block_tokens
            if pad:
                # The prefix tail is never shareable (its KV depends on
                # what follows); pad it so the session stream aligns.
                self.block_ids.append(self._alloc_one())
                self.waste_tokens = block_tokens - pad

        # --- session stream: position-addressed, replay-covered only --
        stream = spec.context_tokens + spec.new_tokens
        for i in range(stream // block_tokens):
            key = tree.session_key(spec.session_id, i) if spec.session_id else None
            entry = tree.lookup(key) if key is not None else None
            start = i * block_tokens
            if (
                entry is not None
                and entry[1] >= block_tokens
                and start < spec.context_tokens
            ):
                # Only hits inside the replayed context span save work;
                # beyond it this turn's tokens are new content and the
                # stale entry gets republished from the fresh block.
                take_hit(entry, block_tokens)
                result.session_hit_tokens += block_tokens
            elif (
                entry is not None
                and 0 < entry[1] < block_tokens
                and start + entry[1] <= spec.context_tokens
            ):
                take_cow(key, entry, block_tokens)
            else:
                take_miss(key, block_tokens)
        tail = stream % block_tokens
        if tail:
            key = (
                tree.session_key(spec.session_id, stream // block_tokens)
                if spec.session_id
                else None
            )
            entry = tree.lookup(key) if key is not None else None
            start = (stream // block_tokens) * block_tokens
            if (
                entry is not None
                and 0 < entry[1] <= tail
                and start + entry[1] <= spec.context_tokens
            ):
                take_cow(key, entry, tail)
            else:
                take_miss(key, tail)

        self.tokens = spec.prompt_tokens
        result.miss_tokens = spec.prompt_tokens - result.hit_tokens - result.cow_tokens
        return result

    def publish(self, tree: Optional[PrefixTree]) -> int:
        """Insert the deferred prompt-span entries into the tree — call
        only after the miss suffix really prefilled (success path)."""
        if tree is None or self.released:
            self._pending = []
            return 0
        published = 0
        for key, block, valid in self._pending:
            tree.insert(key, block, valid)
            published += 1
        self._pending = []
        return published

    def append_token(self) -> None:
        self._grow_to(self.tokens + 1)

    def release(self) -> None:
        """Return every block and any leftover hold to the pool (once)."""
        if self.released:
            return
        self.released = True
        self.pool.caches.pop(self, None)
        was_parked = self.parked
        self.parked = False
        for block in self.block_ids:
            self.pool.release_block(block, owner=self.owner, parked=was_parked)
        self.block_ids = []
        self.tokens = 0
        self._pending = []
        if self.reserved_blocks:
            self.pool.cancel_reservation(self.reserved_blocks, owner=self.owner)
            self.reserved_blocks = 0

    def park(self) -> BlockCheckpoint:
        """Checkpoint the block list for an evicted-but-resumable
        sequence.  Blocks and the leftover hold stay owned."""
        checkpoint = BlockCheckpoint(tuple(self.block_ids), self.tokens)
        if not self.parked:
            self.parked = True
            moved = 0
            for block in self.block_ids:
                if self.pool.park_block(block):
                    moved += 1
            if self.pool.timeline is not None:
                self.pool.timeline.note(
                    "kv", "park", self.pool, moved, self.owner, checkpoint.block_ids
                )
        return checkpoint

    def restore(self, checkpoint: BlockCheckpoint) -> None:
        """Validate the resume against the parked checkpoint."""
        if tuple(self.block_ids) != checkpoint.block_ids or self.tokens != checkpoint.tokens:
            raise ConfigurationError("parked block list diverged from its checkpoint")
        if self.parked:
            self.parked = False
            moved = 0
            for block in self.block_ids:
                if self.pool.restore_block(block):
                    moved += 1
            if self.pool.timeline is not None:
                self.pool.timeline.note(
                    "kv", "restore", self.pool, moved, self.owner, checkpoint.block_ids
                )
