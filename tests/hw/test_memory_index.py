"""Differential test of PhysicalMemory's materialized-page index.

A small PhysicalMemory and a flat bytearray take the same random
operations — raw, bulk and CPU writes, scrubs and copies, with ranges
that cross page and 1 MiB boundaries or were never written.  Bulk writes
also draw blobs equal to the bytes already in place or starting with
them.  Copies draw page-aligned ranges, near a boundary or anywhere, as
well as arbitrary ones; misaligned and overlapping copies must be
refused.  The bytes must agree everywhere afterwards (a page stores only
its written extent, and reads as zero past it), the index must list
exactly the materialized pages in ascending order, and the
TZASC-filtered entry points must still refuse the non-secure world.
After every operation, the write clock must list each page whose bytes
it changed, and only materialized pages.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MiB, PAGE_SIZE
from repro.errors import AccessDenied, ConfigurationError, DMAViolation
from repro.hw import PhysicalMemory, World

S = World.SECURE
N = World.NONSECURE
PG = PAGE_SIZE
TOTAL = 4 * MiB
#: one secure window straddling the first 1 MiB boundary.
SECURE_BASE, SECURE_SIZE = MiB - 2 * PG, 4 * PG

BOUNDARIES = [PG, 5 * PG, MiB - PG, MiB, MiB + PG, 2 * MiB, 3 * MiB - PG, 3 * MiB]
address = st.one_of(
    st.integers(min_value=0, max_value=TOTAL - 1),
    st.builds(lambda b, off: b + off, st.sampled_from(BOUNDARIES), st.integers(-96, 96)),
)
blob = st.binary(max_size=160)
#: a blob; the length of one equal to the bytes already in place; or the
#: length of an in-place prefix and the tail that follows it.
blob_or_in_place = st.one_of(
    blob, st.integers(0, 160), st.tuples(st.integers(1, 80), st.binary(min_size=1, max_size=80))
)
world = st.sampled_from([S, N])
span = st.integers(0, MiB + 3 * PG)
#: a page-aligned address, near a boundary or anywhere.
page_address = st.one_of(
    st.sampled_from(BOUNDARIES),
    st.integers(0, TOTAL // PG - 1).map(lambda page: page * PG),
)
operation = st.one_of(
    st.tuples(st.just("raw_write"), address, blob),
    st.tuples(st.just("write_many"), st.lists(st.tuples(address, blob_or_in_place), max_size=8)),
    st.tuples(st.just("cpu_write"), address, blob, world),
    st.tuples(st.just("scrub"), address, span, world),
    st.tuples(st.just("copy"), address, address, span),
    st.tuples(
        st.just("copy"), page_address, page_address, st.integers(0, 3).map(lambda n: n * PG)
    ),
    st.tuples(st.just("copy"), page_address, page_address, span.map(lambda n: n - n % PG)),
)


def new_memory():
    mem = PhysicalMemory(TOTAL)
    mem.tzasc.configure(S, 0, SECURE_BASE, SECURE_SIZE)
    return mem


def denied(base, size, who):
    return (
        who is N and size > 0 and base < SECURE_BASE + SECURE_SIZE and SECURE_BASE < base + size
    )


def changed_pages(before, after):
    """The pages whose bytes differ between two flat images."""
    if before == after:
        return set()
    return {
        p
        for p in range(TOTAL // PG)
        if before[p * PG : (p + 1) * PG] != after[p * PG : (p + 1) * PG]
    }


def apply(mem, ref, op):
    """Apply ``op`` to the memory and, as it should act, to ``ref``; the
    write clock must then list every page whose bytes changed."""
    mark = mem.write_mark()
    before = bytes(ref)
    act(mem, ref, op)
    written = set(mem.written_since(mark))
    assert changed_pages(before, ref) <= written
    assert written <= set(mem._pages)


def act(mem, ref, op):
    kind = op[0]
    if kind == "raw_write":
        _, base, data = op
        if base + len(data) > TOTAL:
            with pytest.raises(ConfigurationError):
                mem._raw_write(base, data)
        else:
            mem._raw_write(base, data)
            ref[base : base + len(data)] = data
    elif kind == "write_many":
        _, drawn = op
        pairs = []
        fits = True
        for base, data in drawn:
            # What the blobs before it leave in place, whole or as a prefix.
            if isinstance(data, int):
                data = bytes(ref[base : base + data])
            elif isinstance(data, tuple):
                data = bytes(ref[base : base + data[0]]) + data[1]
            pairs.append((base, data))
            fits = fits and base + len(data) <= TOTAL
            if fits:  # blobs before a rejected one stay written
                ref[base : base + len(data)] = data
        if fits:
            mem._raw_write_many((b for b, _ in pairs), (d for _, d in pairs))
        else:
            with pytest.raises(ConfigurationError):
                mem._raw_write_many((b for b, _ in pairs), (d for _, d in pairs))
    elif kind == "cpu_write":
        _, base, data, who = op
        if denied(base, len(data), who):
            with pytest.raises(AccessDenied):
                mem.cpu_write(base, data, who)
        elif base + len(data) > TOTAL:
            with pytest.raises(ConfigurationError):
                mem.cpu_write(base, data, who)
        else:
            mem.cpu_write(base, data, who)
            ref[base : base + len(data)] = data
    elif kind == "scrub":
        _, base, size, who = op
        if denied(base, size, who):
            with pytest.raises(AccessDenied):
                mem.scrub(base, size, who)
        else:
            mem.scrub(base, size, who)
            end = min(base + size, TOTAL)
            ref[base:end] = bytes(max(0, end - base))
    else:
        _, src, dst, size = op
        overlap = src < dst + size and dst < src + size
        misaligned = (src | dst | size) % PG
        if misaligned or overlap or min(src, dst) < 0 or max(src, dst) + size > TOTAL:
            with pytest.raises(ConfigurationError):
                mem.copy_range(src, dst, size)
        else:
            mem.copy_range(src, dst, size)
            ref[dst : dst + size] = ref[src : src + size]


@given(ops=st.lists(operation, min_size=1, max_size=30))
@settings(max_examples=120, deadline=None)
def test_indexed_memory_matches_a_flat_reference(ops):
    mem = new_memory()
    ref = bytearray(TOTAL)
    for op in ops:
        apply(mem, ref, op)
    assert mem._raw_read(0, TOTAL) == bytes(ref)
    assert mem._materialized == sorted(mem._pages)


def test_scrub_then_rewrite_and_copy_across_chunk_boundaries():
    mem = new_memory()
    ref = bytearray(TOTAL)
    pattern = bytes(range(1, 256)) * 20  # 5,100 bytes: spans two pages
    for op in [
        ("raw_write", 2 * MiB - 100, pattern),
        ("write_many", [(MiB - 70, b"x" * 140), (3 * MiB + 8, b"y" * 64)]),
        ("scrub", 2 * MiB - PG, 2 * PG, S),  # zero part of materialized pages
        ("raw_write", 2 * MiB - 10, b"again"),  # written again after zeroing
        ("copy", 2 * MiB - 2 * PG, 3 * MiB - PG - 7, 3 * PG),  # misaligned: refused
        ("copy", 2 * MiB - 2 * PG, 3 * MiB - PG, 3 * PG),  # across both boundaries
        ("copy", 0, 3 * MiB, MiB),  # never-written source zeroes the destination
    ]:
        apply(mem, ref, op)
    assert mem._raw_read(0, TOTAL) == bytes(ref)
    assert mem._materialized == sorted(mem._pages)


def test_copies_zero_stale_destination_pages_the_source_lacks():
    mem = new_memory()
    ref = bytearray(TOTAL)
    for op in [
        ("raw_write", 0, b"a" * PG),  # source page 0 only
        ("raw_write", 2 * PG + 5, b"b" * 9),  # source page 2, partly
        ("write_many", [(MiB + PG * i + 7, b"stale%d" % i) for i in range(4)]),
        ("copy", 0, MiB, 4 * PG),  # pages 1 and 3 of the destination go stale
    ]:
        apply(mem, ref, op)
    assert mem._raw_read(MiB + PG, PG) == bytes(PG)
    assert mem._materialized == [0, 2, 256, 257, 258, 259]
    assert mem._pages[257] == mem._pages[259] == b""
    assert mem._raw_read(0, TOTAL) == bytes(ref)


def test_aligned_copy_with_partial_edge_pages():
    """A copy whose distance is a page multiple but whose ends fall inside
    pages is refused and writes nothing; the whole pages around it copy."""
    mem = new_memory()
    ref = bytearray(TOTAL)
    pattern = bytes(range(256)) * (3 * PG // 256)
    for op in [
        ("raw_write", PG, pattern),  # source pages 1-3, full
        ("raw_write", 2 * MiB, b"x" * (5 * PG)),  # destination pages 512-516
        ("copy", PG + 100, 2 * MiB + 100, 3 * PG - 150),
        ("copy", PG + 10, 3 * MiB + 10, PG + 20),  # onto fresh pages
    ]:
        apply(mem, ref, op)
    assert mem._raw_read(2 * MiB, 5 * PG) == b"x" * (5 * PG)
    assert 768 not in mem._pages
    apply(mem, ref, ("copy", PG, 2 * MiB, 3 * PG))
    assert mem._raw_read(0, TOTAL) == bytes(ref)
    assert mem._raw_read(2 * MiB + 3 * PG, 2 * PG) == b"x" * (2 * PG)
    assert mem._materialized == sorted(mem._pages)


def test_overlapping_copy_is_refused():
    mem = new_memory()
    data = bytes(range(256)) * (PG // 256)
    mem._raw_write(0, data)
    with pytest.raises(ConfigurationError):
        mem.copy_range(0, PG, 2 * PG)  # would have read its own emptying
    with pytest.raises(ConfigurationError):
        mem.copy_range(PG, 0, 2 * PG)
    with pytest.raises(ConfigurationError):
        mem.copy_range(0, PG // 2, PG)  # misaligned, and overlapping
    assert mem._raw_read(0, PG) == data
    mem.copy_range(0, PG, PG)  # adjacent ranges do not overlap
    mem.copy_range(0, 0, 0)  # nor do empty ones
    assert mem._raw_read(PG, PG) == data


def test_scrub_that_empties_a_short_page_keeps_it_indexed():
    mem = new_memory()
    ref = bytearray(TOTAL)
    for op in [
        ("raw_write", 3 * PG + 8, b"short"),
        ("scrub", 3 * PG + 4, 16, S),  # reaches the extent's end: truncated
        ("write_many", [(7 * PG, b"x" * 100)]),
        ("scrub", 7 * PG + 10, 20, S),  # inside the extent: zeroed in place
    ]:
        apply(mem, ref, op)
    assert len(mem._pages[3]) == 4 and len(mem._pages[7]) == 100
    mark = mem.write_mark()
    apply(mem, ref, ("scrub", 0, MiB, S))
    assert mem._pages[3] == mem._pages[7] == b""
    assert mem._materialized == [3, 7]
    assert set(mem.written_since(mark)) == {3, 7}
    assert mem._raw_read(0, TOTAL) == bytes(TOTAL)


def test_writes_past_a_page_extent_read_zeros_in_the_gap():
    mem = new_memory()
    ref = bytearray(TOTAL)
    for op in [
        ("raw_write", 5 * PG, b"abc"),
        ("raw_write", 5 * PG + 100, b"xyz"),
        ("write_many", [(6 * PG, b"ab"), (6 * PG + 3000, b"cd")]),
        ("write_many", [(8 * PG + 40, b"fresh")]),  # a fresh page past offset 0
    ]:
        apply(mem, ref, op)
    assert mem._raw_read(5 * PG, 103) == b"abc" + bytes(97) + b"xyz"
    assert mem._raw_read(6 * PG + 2, 3000) == bytes(2998) + b"cd"
    assert mem._raw_read(8 * PG, PG) == bytes(40) + b"fresh" + bytes(PG - 45)
    assert [len(mem._pages[p]) for p in (5, 6, 8)] == [103, 3002, 45]
    assert mem._raw_read(0, TOTAL) == bytes(ref)


def test_aligned_copy_of_a_short_page_onto_a_longer_stale_one():
    mem = new_memory()
    ref = bytearray(TOTAL)
    for op in [
        ("raw_write", 0, b"s" * 10),  # short source page 0
        ("raw_write", MiB, b"L" * PG),  # long stale destination page 256
        ("copy", 0, MiB, PG),
    ]:
        apply(mem, ref, op)
    assert mem._raw_read(MiB, PG) == b"s" * 10 + bytes(PG - 10)
    assert mem._pages[256] == b"s" * 10
    assert mem._raw_read(0, TOTAL) == bytes(ref)


def test_bulk_write_checks_bounds_and_skips_empty_blobs():
    mem = new_memory()
    mem._raw_write_many([TOTAL, 0], [b"", b""])  # empty blobs write nothing
    assert mem._materialized == []
    with pytest.raises(ConfigurationError):
        mem._raw_write_many([0, TOTAL - 2, 2 * PG], [b"ok", b"abc", b"never"])
    assert mem._raw_read(0, 2) == b"ok"
    assert mem._raw_read(2 * PG, 5) == bytes(5)
    assert mem._materialized == [0]


@given(ops=st.lists(operation, max_size=12))
@settings(max_examples=25, deadline=None)
def test_tzasc_filtered_entry_points_still_refuse_the_normal_world(ops):
    mem = new_memory()
    ref = bytearray(TOTAL)
    mem.cpu_write(SECURE_BASE + PG - 3, b"weights", S)
    ref[SECURE_BASE + PG - 3 : SECURE_BASE + PG + 4] = b"weights"
    for op in ops:
        apply(mem, ref, op)
    inside = SECURE_BASE + PG - 3
    with pytest.raises(AccessDenied):
        mem.cpu_read(inside, 7, N)
    with pytest.raises(AccessDenied):
        mem.cpu_write(inside, b"tamper", N)
    with pytest.raises(AccessDenied):
        mem.scrub(SECURE_BASE - PG, 2 * PG, N)
    with pytest.raises(DMAViolation):
        mem.dma_read(inside, 7, "npu")
    with pytest.raises(DMAViolation):
        mem.dma_write(inside, b"evil", "rogue-device")
    assert mem.cpu_read(inside, 7, S) == bytes(ref[inside : inside + 7])
