"""Model container: a GGUF-like file with encrypted tensor payloads.

Layout::

    b"TZLM" | u32 header_len | header (JSON) | payload section

The header is plaintext metadata (the paper notes tensor sizes already
leak through secure-memory scaling and treats that as an acceptable,
mitigable side channel).  It carries the tensor table — names, roles,
nominal sizes, payload offsets — plus per-tensor checksums **of the
ciphertext** (so the TA can verify REE-delegated reads before paying for
decryption) and the model key wrapped under the device hardware key.

Payloads are encrypted with the model key using the seekable stream
cipher at the payload's container offset, so tensors decrypt independently
and in any order — exactly what out-of-order pipelined restoration needs.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Dict, List

from ..crypto import checksum, encrypt, wrap_model_key
from ..crypto.cipher import NONCE_SIZE
from ..errors import ModelFormatError
from .models import ModelSpec
from .tensors import TensorMeta, build_tensor_table, tensor_plaintext

__all__ = ["ModelContainer", "pack_model", "parse_container", "container_path"]

MAGIC = b"TZLM"
_DEFAULT_NONCE = b"tzllm-modelfile!"
assert len(_DEFAULT_NONCE) == NONCE_SIZE


def container_path(model_id: str) -> str:
    """Filesystem path of a model's encrypted container."""
    return "/models/%s.tzlm" % model_id


@dataclass
class ModelContainer:
    """Parsed view of a model file."""

    model_id: str
    display_name: str
    nonce: bytes
    wrapped_key: bytes
    tensors: List[TensorMeta]
    header_bytes: int  # offset of the payload section within the file
    total_payload_bytes: int

    @property
    def nominal_param_bytes(self) -> int:
        return sum(t.nominal_bytes for t in self.tensors)

    def tensor(self, name: str) -> TensorMeta:
        for tensor in self.tensors:
            if tensor.name == name:
                return tensor
        raise ModelFormatError("no tensor %r in %s" % (name, self.model_id))

    def file_offset(self, tensor: TensorMeta) -> int:
        """Absolute offset of a tensor's payload within the file."""
        return self.header_bytes + tensor.offset


def pack_model(
    spec: ModelSpec,
    model_key: bytes,
    hardware_key: bytes,
    nonce: bytes = _DEFAULT_NONCE,
) -> bytes:
    """Build the encrypted container for ``spec``.

    The provider-side operation: lay out payloads, encrypt each with the
    model key, checksum the ciphertext, and wrap the model key under the
    device's hardware key.
    """
    table = build_tensor_table(spec)
    offset = 0
    payloads: List[bytes] = []
    entries: List[Dict] = []
    for tensor in table:
        tensor.offset = offset
        plaintext = tensor_plaintext(spec.model_id, tensor)
        ciphertext = encrypt(model_key, nonce, plaintext, offset=offset)
        payloads.append(ciphertext)
        entries.append(
            {
                "name": tensor.name,
                "role": tensor.role,
                "layer": tensor.layer,
                "expert": tensor.expert,
                "nominal": tensor.nominal_bytes,
                "offset": tensor.offset,
                "size": tensor.payload_bytes,
                "checksum": checksum(ciphertext).hex(),
            }
        )
        offset += tensor.payload_bytes
    header = {
        "model_id": spec.model_id,
        "display_name": spec.display_name,
        "nonce": nonce.hex(),
        "wrapped_key": wrap_model_key(hardware_key, model_key, spec.model_id).hex(),
        "tensors": entries,
    }
    header_json = json.dumps(header, separators=(",", ":")).encode()
    return MAGIC + struct.pack("<I", len(header_json)) + header_json + b"".join(payloads)


def parse_container(data: bytes) -> ModelContainer:
    """Parse a container file (header only; payloads stay on flash)."""
    if len(data) < 8 or data[:4] != MAGIC:
        raise ModelFormatError("bad magic")
    (header_len,) = struct.unpack("<I", data[4:8])
    if 8 + header_len > len(data):
        raise ModelFormatError("truncated header")
    try:
        header = json.loads(data[8 : 8 + header_len])
    except ValueError as exc:
        raise ModelFormatError("malformed header JSON: %s" % exc)
    tensors: List[TensorMeta] = []
    for index, entry in enumerate(header["tensors"]):
        tensor = TensorMeta(
            name=entry["name"],
            role=entry["role"],
            layer=entry["layer"],
            nominal_bytes=entry["nominal"],
            payload_bytes=entry["size"],
            offset=entry["offset"],
            index=index,
            expert=entry.get("expert", -1),
        )
        tensor.checksum = bytes.fromhex(entry["checksum"])  # type: ignore[attr-defined]
        tensors.append(tensor)
    total_payload = sum(t.payload_bytes for t in tensors)
    if 8 + header_len + total_payload > len(data):
        raise ModelFormatError("truncated payload section")
    return ModelContainer(
        model_id=header["model_id"],
        display_name=header["display_name"],
        nonce=bytes.fromhex(header["nonce"]),
        wrapped_key=bytes.fromhex(header["wrapped_key"]),
        tensors=tensors,
        header_bytes=8 + header_len,
        total_payload_bytes=total_payload,
    )
