"""REE filesystem: untrusted, asynchronous I/O over flash.

The TEE has no filesystem; the LLM TA delegates reads to the client
application, which issues asynchronous I/O against this filesystem (§3.2).
Because the REE is untrusted, the filesystem supports an *adversary hook*
that can tamper with or forge read results — the model-loading Iago attack
of §6.  The TA-side checksum verification is what must catch it.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..errors import StorageError
from ..hw.flash import Flash
from ..sim import Simulator

__all__ = ["FileSystem"]

TamperHook = Callable[[str, int, bytes], bytes]


class FileSystem:
    """Untrusted REE filesystem over flash, with adversary/fault hooks."""

    def __init__(self, sim: Simulator, flash: Flash):
        self.sim = sim
        self.flash = flash
        self._paths: Dict[str, str] = {}  # path -> flash blob name
        #: adversary hook: (path, offset, data) -> data to return instead.
        self.tamper_hook: Optional[TamperHook] = None
        #: fault-injection hook: (path, offset, size) -> exception or None.
        self.fail_hook = None
        #: everything the REE observes about delegated reads — the §6
        #: size side channel: (path, offset, size, nominal) per request.
        self.request_log: list = []
        self.aio_inflight = 0
        self.aio_peak = 0

    # ------------------------------------------------------------------
    def create(self, path: str, data: bytes) -> None:
        """Provision a file (no simulated time; setup step)."""
        blob = "fs:" + path
        self.flash.provision(blob, data)
        self._paths[path] = blob

    def exists(self, path: str) -> bool:
        return path in self._paths

    def stat(self, path: str) -> int:
        return self.flash.size(self._blob(path))

    def delete(self, path: str) -> None:
        blob = self._paths.pop(path, None)
        if blob:
            self.flash.delete(blob)

    def _blob(self, path: str) -> str:
        blob = self._paths.get(path)
        if blob is None:
            # A missing file at request time is a runtime I/O failure the
            # caller may handle — not a setup mistake.
            raise StorageError("no such file: %r" % path)
        return blob

    # ------------------------------------------------------------------
    def read(self, path: str, offset: int, size: int, nominal: float = None):
        """Timed read (generator). Subject to the adversary hook.

        ``nominal`` optionally charges flash time for a larger byte count
        (scaled model payloads with full-size timing semantics).
        """
        blob = self._blob(path)
        self.request_log.append((path, offset, size, nominal))
        if self.fail_hook is not None:
            failure = self.fail_hook(path, offset, size)
            if failure is not None:
                raise failure
        self.aio_inflight += 1
        self.aio_peak = max(self.aio_peak, self.aio_inflight)
        try:
            data = yield from self.flash.read(blob, offset, size, nominal=nominal)
        finally:
            self.aio_inflight -= 1
        if self.tamper_hook is not None:
            data = self.tamper_hook(path, offset, data)
        return data

    def write(self, path: str, offset: int, data: bytes):
        """Timed write (generator)."""
        blob = self._paths.setdefault(path, "fs:" + path)
        result = yield from self.flash.write(blob, offset, data)
        return result
