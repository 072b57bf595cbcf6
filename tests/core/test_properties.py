"""Property-based tests on core invariants (hypothesis).

Three invariant families:

* the prefill pipeline never beats its own lower bound, always restores
  every byte exactly once, and terminates, for arbitrary model shapes,
  prompt lengths, cache fractions and scheduler configurations;
* the extend/shrink secure-memory state machine keeps
  ``protected <= allocated <= capacity`` and TZASC visibility consistent
  under arbitrary operation sequences;
* the frame database never double-owns a granule under random
  alloc/free/migrate interleavings.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MiB, RK3588, PAGE_SIZE
from repro.core import PipelineConfig, TZLLM
from repro.errors import AccessDenied, MemoryError_
from repro.hw import World
from repro.llm import ModelSpec

N = World.NONSECURE
S = World.SECURE


# ---------------------------------------------------------------------------
# pipeline invariants over random tiny models
# ---------------------------------------------------------------------------
def tiny_model(layers: int, hidden: int, vocab: int) -> ModelSpec:
    return ModelSpec(
        model_id="fuzz-%d-%d-%d" % (layers, hidden, vocab),
        display_name="Fuzz",
        n_layers=layers,
        hidden=hidden,
        intermediate=hidden * 3,
        n_heads=4,
        n_kv_heads=2,
        vocab=vocab,
    )


@given(
    layers=st.integers(min_value=1, max_value=6),
    hidden=st.sampled_from([64, 128, 256]),
    prompt=st.integers(min_value=1, max_value=96),
    cache_fraction=st.sampled_from([0.0, 0.3, 1.0]),
    pipelined=st.booleans(),
    preemptive=st.booleans(),
)
@settings(max_examples=12, deadline=None)
def test_pipeline_invariants_random_models(
    layers, hidden, prompt, cache_fraction, pipelined, preemptive
):
    model = tiny_model(layers, hidden, 1024)
    system = TZLLM(
        model,
        max_tokens=256,
        cache_fraction=cache_fraction,
        pipeline_config=PipelineConfig(pipelined=pipelined, preemptive=preemptive),
    )
    system.run_infer(4, 0)  # cold start + establish cache
    record = system.run_infer(prompt, 0)
    pipe = record.pipeline
    # Terminates with a positive TTFT that respects the lower bound.
    assert record.ttft > 0
    assert pipe.ttft >= pipe.lower_bound * (1 - 1e-9)
    # Every non-cached byte restored exactly once.
    plan = system.ta.plan
    expected = plan.total_nominal_bytes - sum(
        g.nominal_bytes for g in plan.groups[: record.cached_groups]
    )
    assert pipe.loaded_bytes == expected
    # Memory book-keeping is consistent after release.
    region = system.ta.params_region
    assert 0 <= region.protected <= region.allocated <= region.capacity
    assert region.allocated == region.protected  # FILO discipline held


# ---------------------------------------------------------------------------
# extend/shrink state machine
# ---------------------------------------------------------------------------
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["alloc", "protect", "shrink"]),
                  st.integers(min_value=1, max_value=4)),
        min_size=1,
        max_size=24,
    )
)
@settings(max_examples=25, deadline=None)
def test_secure_memory_state_machine(ops):
    from repro.stack import build_stack
    from repro.tee import TrustedApplication

    GRANULE = MiB
    stack = build_stack(
        spec=RK3588.with_memory(64 * MiB),
        granule=GRANULE,
        os_footprint=0,
        cma_regions={"r": 16 * MiB},
    )
    ta = TrustedApplication("fuzz")
    stack.tee_os.install_ta(ta)
    cma = stack.kernel.cma_regions["r"]
    region = stack.tee_os.create_secure_region(
        ta, "r", "r", cma.base_addr, cma.size_bytes, GRANULE
    )

    def run(gen):
        proc = stack.sim.process(gen)
        return stack.sim.run_until(proc)

    for op, units in ops:
        size = units * GRANULE
        if op == "alloc":
            if region.allocated + size <= region.capacity:
                run(region.extend_allocated(size))
        elif op == "protect":
            if region.protected + size <= region.allocated:
                run(region.extend_protected(size))
        else:
            if size <= region.protected and region.allocated == region.protected:
                run(region.shrink(size))
        # Invariants after every operation:
        assert 0 <= region.protected <= region.allocated <= region.capacity
        assert region.allocated % GRANULE == 0
        assert region.protected % GRANULE == 0
        # TZASC visibility matches the protected watermark exactly.
        if region.protected:
            with pytest.raises(AccessDenied):
                stack.board.memory.cpu_read(region.protected_end - 16, 16, N)
        if region.protected < region.allocated:
            stack.board.memory.cpu_read(region.protected_end, 16, N)
        # CMA accounting: free frames + allocated frames == region size.
        assert (
            cma.free_frames + region.allocated // GRANULE == cma.n_frames
        )


# ---------------------------------------------------------------------------
# frame database consistency
# ---------------------------------------------------------------------------
@given(
    actions=st.lists(
        st.tuples(st.sampled_from(["alloc", "free", "migrate"]),
                  st.integers(min_value=0, max_value=7),
                  st.integers(min_value=1, max_value=6)),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=30, deadline=None)
def test_frame_db_never_double_owns(actions):
    from repro.ree.buddy import BuddyAllocator
    from repro.ree.pages import FrameDB

    db = FrameDB(64 * PAGE_SIZE, PAGE_SIZE)
    buddy = BuddyAllocator(db)
    buddy.finalize()
    live = {}

    for op, slot, frames in actions:
        if op == "alloc":
            if slot not in live and buddy.free_outside_cma >= frames:
                live[slot] = buddy.allocate(frames, movable=True, tag="t%d" % slot)
        elif op == "free":
            if slot in live:
                buddy.free(live.pop(slot))
        else:  # migrate one frame of a live allocation
            if slot in live and buddy.free_outside_cma >= 1:
                alloc = live[slot]
                old = next(iter(alloc.frames))
                dest = buddy.take_frame_outside()
                db.move_frame(alloc, old, dest)
        # Invariants: ownership is exclusive.
        owners = {}
        for frame in range(db.n_frames):
            owner = db.owner(frame)
            if owner is not None:
                owners.setdefault(owner.alloc_id, set()).add(frame)
        for alloc in live.values():
            assert owners.get(alloc.alloc_id, set()) == alloc.frames
        total_owned = sum(len(v) for v in owners.values())
        assert total_owned + db.free_frames == db.n_frames
