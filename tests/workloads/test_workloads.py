"""Tests for prompt, NN-app, Geekbench, and stress workloads."""

import pytest

from repro.config import GiB, MiB, RK3588
from repro.errors import ConfigurationError
from repro.hw import AddrRange
from repro.ree.s2pt import S2PTState
from repro.stack import build_stack
from repro.workloads import (
    BENCHMARKS,
    GEEKBENCH_SUITE,
    MemoryStress,
    MOBILENET_V1,
    NNAppRunner,
    YOLOV5S,
    benchmark_names,
    generate_prompts,
    run_suite,
)


# ---------------------------------------------------------------------------
# prompts
# ---------------------------------------------------------------------------
def test_benchmarks_present():
    assert benchmark_names() == ["droidtask", "personachat", "ultrachat"]


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_prompt_lengths_within_spec(name):
    spec = BENCHMARKS[name]
    prompts = generate_prompts(name, 50)
    assert len(prompts) == 50
    for prompt in prompts:
        assert spec.min_tokens <= prompt.tokens <= spec.max_tokens
        # Text has (tokens - 1) words: the tokenizer adds BOS.
        assert len(prompt.text.split()) == prompt.tokens - 1


def test_prompts_deterministic_per_seed():
    a = generate_prompts("ultrachat", 10, seed=7)
    b = generate_prompts("ultrachat", 10, seed=7)
    c = generate_prompts("ultrachat", 10, seed=8)
    assert [p.tokens for p in a] == [p.tokens for p in b]
    assert [p.tokens for p in a] != [p.tokens for p in c]


def test_benchmark_length_ordering():
    """UltraChat is short, DroidTask is long (the Fig. 10 explanation)."""
    means = {
        name: sum(p.tokens for p in generate_prompts(name, 100)) / 100
        for name in BENCHMARKS
    }
    assert means["ultrachat"] < means["personachat"] < means["droidtask"]


def test_unknown_benchmark_rejected():
    with pytest.raises(ConfigurationError):
        generate_prompts("mmlu", 1)
    with pytest.raises(ConfigurationError):
        generate_prompts("ultrachat", 0)


def test_prompt_tokenizes_to_declared_length():
    from repro.llm import TINYLLAMA, Tokenizer

    tok = Tokenizer(TINYLLAMA.model_id, TINYLLAMA.vocab)
    for prompt in generate_prompts("personachat", 5):
        assert tok.count(prompt.text) == prompt.tokens


# ---------------------------------------------------------------------------
# NN apps
# ---------------------------------------------------------------------------
def test_nn_app_throughput_exclusive():
    stack = build_stack(spec=RK3588.with_memory(64 * MiB), granule=MiB, os_footprint=0)
    runner = NNAppRunner(
        stack.sim, stack.spec, stack.ree_npu, MOBILENET_V1, AddrRange(0, 4096)
    )
    proc = stack.sim.process(runner.run_for(1.0))
    stack.sim.run_until(proc)
    # Per frame: cpu 0.5 ms + launch 1 ms + ~1.5 ms compute -> ~300/s.
    assert 150 < runner.throughput < 500
    assert runner.completed > 0


def test_yolo_slower_than_mobilenet():
    assert YOLOV5S.job_duration(RK3588) > MOBILENET_V1.job_duration(RK3588)


def test_two_apps_sharing_npu_slow_down():
    stack = build_stack(spec=RK3588.with_memory(64 * MiB), granule=MiB, os_footprint=0)
    a = NNAppRunner(stack.sim, stack.spec, stack.ree_npu, MOBILENET_V1, AddrRange(0, 4096))
    b = NNAppRunner(stack.sim, stack.spec, stack.ree_npu, MOBILENET_V1, AddrRange(4096, 4096))
    pa = stack.sim.process(a.run_for(1.0))
    pb = stack.sim.process(b.run_for(1.0))
    stack.sim.run_until(pa)
    stack.sim.run_until(pb)
    solo_stack = build_stack(spec=RK3588.with_memory(64 * MiB), granule=MiB, os_footprint=0)
    solo = NNAppRunner(
        solo_stack.sim, solo_stack.spec, solo_stack.ree_npu, MOBILENET_V1, AddrRange(0, 4096)
    )
    proc = solo_stack.sim.process(solo.run_for(1.0))
    solo_stack.sim.run_until(proc)
    assert a.throughput < solo.throughput
    assert b.throughput < solo.throughput


# ---------------------------------------------------------------------------
# Geekbench
# ---------------------------------------------------------------------------
def test_geekbench_s2pt_overheads_match_paper_band():
    baseline = run_suite(RK3588, S2PTState(enabled=False))
    with_s2pt = run_suite(RK3588, S2PTState(enabled=True, fragmented=True))
    overheads = [
        (baseline[app.name] / with_s2pt[app.name] - 1.0) * 100
        for app in GEEKBENCH_SUITE
    ]
    assert max(overheads) == pytest.approx(9.8, abs=0.5)
    assert 1.0 < sum(overheads) / len(overheads) < 3.5  # paper avg 2.0%


def test_geekbench_migration_slowdown_uses_real_records():
    from repro.config import PAGE_SIZE

    stack = build_stack(
        spec=RK3588.with_memory(256 * PAGE_SIZE),
        granule=PAGE_SIZE,
        os_footprint=0,
        cma_regions={"params": 64 * PAGE_SIZE},
    )
    kernel = stack.kernel
    region = kernel.cma_regions["params"]
    filler = kernel.map_anonymous(150 * PAGE_SIZE)
    victim = kernel.map_anonymous(64 * PAGE_SIZE)
    kernel.free(filler)
    start = min(f for f in victim.frames if f >= region.start_frame)
    count = sum(1 for f in victim.frames if f >= region.start_frame)
    proc = stack.sim.process(region.allocate_range(start, count))
    stack.sim.run_until(proc)
    assert region.total_migrated_bytes > 0
    scores = run_suite(
        RK3588,
        S2PTState(enabled=False),
        regions=[region],
        window_start=0.0,
        window_end=stack.sim.now,
    )
    baseline = run_suite(RK3588, S2PTState(enabled=False))
    assert all(scores[k] < baseline[k] for k in scores)


# ---------------------------------------------------------------------------
# stress
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "stress_frames, full", [(220, False), (256, True)], ids=["spare-outside", "full-memory"]
)
def test_stress_spills_into_cma_and_survives_migration(stress_frames, full):
    from repro.config import PAGE_SIZE

    stack = build_stack(
        spec=RK3588.with_memory(256 * PAGE_SIZE),
        granule=PAGE_SIZE,
        os_footprint=0,
        cma_regions={"params": 64 * PAGE_SIZE},
    )
    stress = MemoryStress(stack.kernel, stress_frames * PAGE_SIZE, headroom=0)
    stress.start()
    region = stack.kernel.cma_regions["params"]
    assert any(region.start_frame <= f < region.end_frame for f in stress.allocs[0].frames)
    # The spill fills the region from its top, so carve the top run.
    proc = stack.sim.process(
        region.allocate_range(region.end_frame - 16, 16, threads=1)
    )
    stack.sim.run_until(proc)
    migrated = region.total_migrated_bytes // PAGE_SIZE
    assert migrated > 0
    # With memory full, every migration destination is a reclaimed
    # stress page; otherwise free frames outside the region suffice.
    assert stack.kernel.buddy.reclaimed_frames == (migrated if full else 0)
    # Migrated pages keep their data.
    checked = stress.verify_surviving_pages()
    assert checked == stress_frames - stack.kernel.buddy.reclaimed_frames
    stress.stop()


def test_stress_check_reads_the_whole_pattern():
    stack = build_stack(spec=RK3588.with_memory(64 * MiB), granule=MiB, os_footprint=0)
    stress = MemoryStress(stack.kernel, 8 * MiB, headroom=0)
    stress.start()
    assert stress.verify_surviving_pages() == 8
    frame = min(stress.allocs[0].frames)
    addr = stack.kernel.db.frame_addr(frame)
    assert stack.board.memory._raw_read(addr, 64) == (b"S%07d" % frame) * 8
    # Byte 40 opens the sixth copy of the frame's 8-byte header.
    stack.board.memory._raw_write(addr + 40, b"?")
    with pytest.raises(AssertionError, match="frame %d corrupted" % frame):
        stress.verify_surviving_pages()
    stress.refresh()  # the sweep rewrites the page that lost its pattern
    assert frame in stress.allocs[0].frames
    assert stress.verify_surviving_pages() == 8
    stress.stop()


def test_stress_double_start_rejected():
    stack = build_stack(spec=RK3588.with_memory(64 * MiB), granule=MiB, os_footprint=0)
    stress = MemoryStress(stack.kernel, MiB)
    stress.start()
    with pytest.raises(ConfigurationError):
        stress.start()
    stress.stop()
    stress.stop()  # idempotent
