"""Tests for tokenizer and framework checkpointing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import RK3588, MiB, TimingSpec
from repro.crypto import derive_key
from repro.errors import ConfigurationError, IntegrityError
from repro.hw import Board
from repro.llm import Tokenizer
from repro.llm.checkpoint import (
    checkpoint_path,
    cold_init,
    restore_checkpoint,
    save_checkpoint,
)
from repro.ree.filesystem import FileSystem
from repro.sim import Simulator


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------
def test_encode_decode_roundtrip():
    tok = Tokenizer("m", 32000)
    text = "Summarize the following dialogue , please !"
    ids = tok.encode(text)
    assert ids[0] == 1  # BOS
    assert tok.decode(ids) == text


def test_token_count_scales_with_words():
    tok = Tokenizer("m", 32000)
    short = tok.count("one two three")
    long = tok.count(" ".join("word%d" % i for i in range(100)))
    assert long > short
    assert long == 101  # BOS + 100 words


def test_same_text_same_ids():
    tok = Tokenizer("m", 32000)
    assert tok.encode("hello world") == tok.encode("hello world")


def test_vocab_bound_respected():
    tok = Tokenizer("m", 500)
    ids = tok.encode(" ".join("w%d" % i for i in range(200)))
    assert all(0 <= i < 500 for i in ids)


def test_tiny_vocab_rejected():
    with pytest.raises(ConfigurationError):
        Tokenizer("m", 4)


@given(st.text(alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")), max_size=50))
@settings(max_examples=40, deadline=None)
def test_tokenizer_roundtrips_word_text(word):
    tok = Tokenizer("m", 32000)
    if not word:
        return
    assert tok.decode(tok.encode(word)) == word


# ---------------------------------------------------------------------------
# checkpoint
# ---------------------------------------------------------------------------
@pytest.fixture
def fs_sim():
    sim = Simulator()
    board = Board(sim, RK3588.with_memory(16 * MiB))
    return sim, FileSystem(sim, board.flash)


def test_checkpoint_save_restore_roundtrip(fs_sim):
    sim, fs = fs_sim
    timing = TimingSpec()
    key = derive_key(b"p", "m")

    def flow():
        yield from save_checkpoint(sim, timing, fs, "m", key, n_tensors=42)
        state = yield from restore_checkpoint(sim, timing, fs, "m", key)
        return state

    proc = sim.process(flow())
    state = sim.run_until(proc)
    assert state["n_tensors"] == 42
    assert state["initialized"] is True


def test_checkpoint_restore_is_much_cheaper_than_cold_init(fs_sim):
    sim, fs = fs_sim
    timing = TimingSpec()
    key = derive_key(b"p", "m")

    def flow():
        yield from save_checkpoint(sim, timing, fs, "m", key, n_tensors=1)
        t0 = sim.now
        yield from restore_checkpoint(sim, timing, fs, "m", key)
        restore_time = sim.now - t0
        t0 = sim.now
        yield from cold_init(sim, timing)
        cold_time = sim.now - t0
        return restore_time, cold_time

    proc = sim.process(flow())
    restore_time, cold_time = sim.run_until(proc)
    assert cold_time == pytest.approx(timing.framework_init)
    assert restore_time < cold_time / 5


def test_checkpoint_tamper_detected(fs_sim):
    sim, fs = fs_sim
    timing = TimingSpec()
    key = derive_key(b"p", "m")

    def flow():
        yield from save_checkpoint(sim, timing, fs, "m", key, n_tensors=1)
        fs.tamper_hook = lambda path, offset, data: b"\xff" + data[1:]
        yield from restore_checkpoint(sim, timing, fs, "m", key)

    proc = sim.process(flow())
    with pytest.raises(IntegrityError):
        sim.run_until(proc)


def test_checkpoint_wrong_key_detected(fs_sim):
    sim, fs = fs_sim
    timing = TimingSpec()

    def flow():
        yield from save_checkpoint(sim, timing, fs, "m", derive_key(b"p", "right"), n_tensors=1)
        yield from restore_checkpoint(sim, timing, fs, "m", derive_key(b"p", "wrong"))

    proc = sim.process(flow())
    with pytest.raises(IntegrityError):
        sim.run_until(proc)
