"""Tests for mid-decode KV-region growth (§4.2 data-region pattern)."""

import pytest

from repro.core import REELLM, TZLLM
from repro.errors import ConfigurationError
from repro.llm import TINYLLAMA


@pytest.fixture(scope="module")
def system():
    system = TZLLM(TINYLLAMA, cache_fraction=1.0)
    system.run_infer(8, 0)
    return system


def extends(system, prompt, output):
    """Run one request; return its record and the data-region extensions
    it made (the set-up's first one included)."""
    engine = system.ta.batch_engine
    before = engine.kv_extends
    record = system.run_infer(prompt, output)
    return record, engine.kv_extends - before


def test_kv_region_grows_during_long_decode(system):
    # TinyLlama KV is ~22.5 KB/token; with a 1 MiB granule the region
    # must extend at least once after set-up while decoding 64 tokens.
    record, n = extends(system, 32, 64)
    assert n >= 2
    assert len(record.decode.token_ids) == 64
    # The data region is fully released afterwards.
    assert system.ta.data_region.allocated == 0


def test_short_decode_needs_no_growth(system):
    # 24 + 2 tokens fit the prompt's two 16-token blocks.  (A 32-token
    # prompt fills both, so its first decoded token takes a third.)
    _record, n = extends(system, 24, 2)
    assert n == 1  # the set-up only


def test_growth_visible_to_ree_as_cma_extensions(system):
    """The REE really serves the mid-decode extensions (ballooning)."""
    data_region = "%s:data" % TINYLLAMA.model_id
    before = [
        size for name, size in system.stack.tz_driver.alloc_observations
        if name == data_region
    ]
    _record, n = extends(system, 32, 64)
    after = [
        size for name, size in system.stack.tz_driver.alloc_observations
        if name == data_region
    ]
    assert len(after) - len(before) == n


def test_initial_region_sized_for_prompt_not_output(system):
    """The region starts at prompt-KV size: generating many tokens must
    not reserve their memory up front."""
    short = system.run_infer(32, 0)
    long_prompt = system.run_infer(480, 0)
    # Setup cost scales with prompt KV (long prompt allocates more now).
    assert long_prompt.data_setup_time > short.data_setup_time


def test_ree_baseline_rejects_over_long_request_up_front():
    """The REE baselines check prompt + output against ``max_tokens``
    before any work, as the TA does, instead of running the prefill and
    failing mid-decode."""
    ree = REELLM(TINYLLAMA, "memory", max_tokens=64)
    before = ree.sim.now
    with pytest.raises(ConfigurationError):
        ree.run_infer(48, 17)
    assert ree.sim.now == before
    record = ree.run_infer(48, 16)  # exactly max_tokens fits
    assert len(record.decode.token_ids) == 16
