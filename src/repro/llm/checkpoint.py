"""Framework-state checkpointing (§3.2 "other techniques").

Cold framework initialization — parsing model metadata, building the
tokenizer, sizing buffers — costs 2.3 s on the testbed.  TZ-LLM saves a
checkpoint of the initialized state to flash once and restores it on each
inference request, cutting TTFT by up to 36.8% (§7.1.1).

The checkpoint is encrypted under the model key (it embeds model
metadata) and carries a checksum so a tampering REE is detected — the
same delegated-I/O trust posture as parameter loading.
"""

from __future__ import annotations

import json

from ..config import TimingSpec
from ..crypto import checksum, decrypt, encrypt, verify
from ..errors import IntegrityError
from ..ree.filesystem import FileSystem
from ..sim import Simulator

__all__ = ["checkpoint_path", "save_checkpoint", "restore_checkpoint", "cold_init"]

_NONCE = b"tzllm-checkpnt!!"


def checkpoint_path(model_id: str) -> str:
    """Filesystem path of a model's framework-state checkpoint."""
    return "/models/%s.ckpt" % model_id


def _state_blob(model_id: str, n_tensors: int) -> bytes:
    state = {"model_id": model_id, "n_tensors": n_tensors, "initialized": True}
    return json.dumps(state, separators=(",", ":")).encode()


def cold_init(sim: Simulator, timing: TimingSpec):
    """The full framework initialization (generator; 2.3 s class)."""
    yield sim.timeout(timing.framework_init)


def save_checkpoint(
    sim: Simulator,
    timing: TimingSpec,
    fs: FileSystem,
    model_id: str,
    model_key: bytes,
    n_tensors: int,
):
    """Persist the initialized state (generator; one-time cost)."""
    blob = _state_blob(model_id, n_tensors)
    ciphertext = encrypt(model_key, _NONCE, blob)
    payload = checksum(ciphertext) + ciphertext
    yield sim.timeout(timing.checkpoint_save)
    yield from fs.write(checkpoint_path(model_id), 0, payload)


def restore_checkpoint(
    sim: Simulator,
    timing: TimingSpec,
    fs: FileSystem,
    model_id: str,
    model_key: bytes,
):
    """Restore the initialized state (generator); returns the state dict.

    Raises :class:`IntegrityError` if the REE returned a forged blob.
    """
    size = fs.stat(checkpoint_path(model_id))
    payload = yield from fs.read(checkpoint_path(model_id), 0, size)
    yield sim.timeout(timing.checkpoint_restore)
    digest, ciphertext = payload[:16], payload[16:]
    if not verify(ciphertext, digest):
        raise IntegrityError("checkpoint failed checksum verification")
    blob = decrypt(model_key, _NONCE, ciphertext)
    try:
        state = json.loads(blob)
    except ValueError:
        raise IntegrityError("checkpoint decrypted to garbage (wrong key?)")
    if not state.get("initialized"):
        raise IntegrityError("checkpoint state invalid")
    return state
