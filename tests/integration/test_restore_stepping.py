"""In-place restore steps against per-step stepping on the paper's stack.

The restore path takes five fixed-latency steps through
``Simulator.advance``: the CMA migration burst and run claim
(``CMARegion.allocate_range``), the flash request latency
(``Flash.read``) and ``PrefillPipeline``'s compute and decrypt slices.
Cold restores of TinyLlama under the paper's stress-ng pressure must
observe exactly what per-step stepping (``per_step_stepping`` in
``tests/conftest.py``) observes: every inference record, the clock, each
CMA region's migration bursts and every byte of physical memory.  After
each request, physical memory stores at most 1 MiB: a page holds only its
written extent, so a stress frame's pattern costs 64 bytes, not a page.
"""

import hashlib

from repro import PAPER_PRESSURE, TINYLLAMA, TZLLM
from repro.config import MiB, PAGE_SIZE

#: ``(prompt_tokens, output_tokens)`` of the cold restores.
REQUESTS = [(128, 2), (700, 1)]


def memory_digest(memory):
    """A digest of every materialized page, in ascending page order."""
    digest = hashlib.blake2b()
    for index in memory._materialized:
        digest.update(index.to_bytes(8, "little"))
        digest.update(memory._raw_read(index * PAGE_SIZE, PAGE_SIZE))
    return digest.hexdigest()


def pressured_restores():
    system = TZLLM(TINYLLAMA)
    system.run_infer(8, 0)  # first cold start: cold init + checkpoint save
    stress = system.apply_pressure(PAPER_PRESSURE[TINYLLAMA.model_id])
    memory = system.stack.board.memory
    records, stored = [], []
    for prompt_tokens, output_tokens in REQUESTS:
        stress.refresh()  # one stress-ng sweep: the restore migrates and reclaims
        records.append(system.run_infer(prompt_tokens, output_tokens))
        stored.append(sum(len(page) for page in memory._pages.values()))
    regions = system.stack.kernel.cma_regions
    return {
        "records": records,
        "stored": stored,
        "now": system.sim.now,
        "migrations": {name: list(region.migrations) for name, region in regions.items()},
        "memory": memory_digest(memory),
        "surviving": stress.verify_surviving_pages(),
    }


def test_in_place_restore_steps_match_per_step_stepping(per_step_stepping, advance_tally):
    with advance_tally() as tally:
        shipped = pressured_restores()
    with per_step_stepping():
        reference = pressured_restores()
    assert shipped["migrations"][TINYLLAMA.model_id + ":params"]  # the restores did migrate
    assert max(shipped["stored"]) <= MiB
    assert shipped == reference
    # Both sides of advance show: steps taken in place and steps refused
    # because an event was queued first.
    assert tally[True] > 0 and tally[False] > 0
