"""Physical memory: a sparse byte store with TrustZone filtering.

Every read/write names its bus master (CPU in a world, or a DMA device)
and is filtered through the TZASC before touching bytes.  This is what
makes the security tests *functional*: a compromised-REE attack is a
real ``cpu_read`` in the non-secure world, and it really raises
:class:`~repro.errors.AccessDenied` instead of returning parameter bytes.

Pages are materialized lazily (16 GiB of simulated RAM costs nothing
until written), and an ascending index of the materialized page numbers
lets zeroing and copying visit only the pages that hold bytes.  A page
stores only its written extent, a ``bytearray`` of at most ``PAGE_SIZE``
bytes; every byte past it reads as zero, so a stress-ng pattern costs
its 64 bytes, not 4 KiB.  A page stays in the index once written, even
when zeroing empties it.  A write clock records, in write order, the
tick of each page's last write, so :meth:`PhysicalMemory.written_since`
lists the pages written since a :meth:`~PhysicalMemory.write_mark` in
time proportional to their number.  There is no timing here — callers
charge simulated time through their own cost models.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, Iterable, List, Optional

from ..config import PAGE_SIZE
from ..errors import ConfigurationError
from .common import AddrRange, World
from .tzasc import TZASC

__all__ = ["PhysicalMemory"]


class PhysicalMemory:
    """Sparse real-byte RAM; every access is TZASC-filtered."""

    def __init__(self, total_bytes: int, tzasc: Optional[TZASC] = None):
        if total_bytes <= 0 or total_bytes % PAGE_SIZE != 0:
            raise ConfigurationError("total_bytes must be a positive page multiple")
        self.total_bytes = total_bytes
        self.tzasc = tzasc if tzasc is not None else TZASC()
        #: page number -> the page's written extent.
        self._pages: Dict[int, bytearray] = {}
        #: the keys of ``_pages``, ascending.
        self._materialized: List[int] = []
        #: page number -> the tick of its last write, in tick order.
        self._written: Dict[int, int] = {}
        #: the tick writes are stamped with; each mark starts a new one.
        self._tick = 0

    # ------------------------------------------------------------------
    # bounds + raw access
    # ------------------------------------------------------------------
    def _check_bounds(self, base: int, size: int) -> None:
        if base < 0 or size < 0 or base + size > self.total_bytes:
            raise ConfigurationError(
                "access [0x%x, 0x%x) outside RAM of %d bytes" % (base, base + size, self.total_bytes)
            )

    def _page(self, index: int) -> bytearray:
        """The page ``index``, materialized and stamped as written."""
        page = self._pages.get(index)
        if page is None:
            page = self._pages[index] = bytearray()
            insort(self._materialized, index)
        self._written.pop(index, None)
        self._written[index] = self._tick
        return page

    def _materialized_in(self, base: int, size: int) -> List[int]:
        """Materialized pages overlapping ``[base, base + size)``, ascending."""
        index = self._materialized
        lo = bisect_left(index, base // PAGE_SIZE)
        hi = bisect_left(index, -(-(base + size) // PAGE_SIZE))
        return index[lo:hi]

    def write_mark(self) -> int:
        """A mark for :meth:`written_since`: later writes come after it."""
        mark = self._tick
        self._tick += 1
        return mark

    def written_since(self, mark: int) -> List[int]:
        """The pages written since ``mark``, newest first.  A page whose
        bytes changed is listed; one written with the bytes it held may be."""
        pages = []
        for index, tick in reversed(self._written.items()):
            if tick <= mark:
                break
            pages.append(index)
        return pages

    def _raw_read(self, base: int, size: int) -> bytes:
        self._check_bounds(base, size)
        page_index, offset = divmod(base, PAGE_SIZE)
        if offset + size <= PAGE_SIZE:
            page = self._pages.get(page_index)
            if page is None:
                return bytes(size)
            return bytes(page[offset : offset + size]).ljust(size, b"\0")
        out = bytearray(size)
        pos = 0
        while pos < size:
            chunk = min(size - pos, PAGE_SIZE - offset)
            page = self._pages.get(page_index)
            if page is not None:
                stored = page[offset : offset + chunk]
                out[pos : pos + len(stored)] = stored
            pos += chunk
            page_index += 1
            offset = 0
        return bytes(out)

    def _raw_write(self, base: int, data: bytes) -> None:
        self._check_bounds(base, len(data))
        pos = 0
        addr = base
        size = len(data)
        while pos < size:
            page_index, offset = divmod(addr, PAGE_SIZE)
            chunk = min(size - pos, PAGE_SIZE - offset)
            page = self._page(page_index)
            if len(page) < offset:
                page.extend(bytes(offset - len(page)))
            page[offset : offset + chunk] = data[pos : pos + chunk]
            pos += chunk
            addr += chunk

    def _raw_write_many(self, addresses: Iterable[int], blobs: Iterable[bytes]) -> None:
        """``_raw_write(address, blob)`` for each pair, in one pass.

        For many small blobs (stress-ng's per-frame patterns): a blob
        inside one page is one slice assignment; one that crosses a page
        boundary takes :meth:`_raw_write`.  Bounds are checked per blob,
        and blobs before a rejected one stay written.
        """
        total = self.total_bytes
        pages = self._pages
        written = self._written
        tick = self._tick
        fresh: List[int] = []
        try:
            for base, data in zip(addresses, blobs):
                size = len(data)
                if base < 0 or base + size > total:
                    self._check_bounds(base, size)
                if not size:
                    continue
                page_index, offset = divmod(base, PAGE_SIZE)
                if offset + size > PAGE_SIZE:
                    self._raw_write(base, data)
                    continue
                page = pages.get(page_index)
                if page is None:
                    page = pages[page_index] = bytearray(offset)
                    fresh.append(page_index)
                elif len(page) < offset:
                    page.extend(bytes(offset - len(page)))
                page[offset : offset + size] = data
                written.pop(page_index, None)
                written[page_index] = tick
        finally:
            if fresh:
                self._materialized += fresh
                self._materialized.sort()

    # ------------------------------------------------------------------
    # filtered access
    # ------------------------------------------------------------------
    def cpu_read(self, base: int, size: int, world: World) -> bytes:
        """CPU load; TZASC-filtered against ``world``."""
        self.tzasc.check_cpu(AddrRange(base, size), world)
        return self._raw_read(base, size)

    def cpu_write(self, base: int, data: bytes, world: World) -> None:
        """CPU store; TZASC-filtered against ``world``."""
        self.tzasc.check_cpu(AddrRange(base, len(data)), world)
        self._raw_write(base, data)

    def dma_read(self, base: int, size: int, device: str) -> bytes:
        """Device DMA read; TZASC DMA-filtered for ``device``."""
        self.tzasc.check_dma(AddrRange(base, size), device)
        return self._raw_read(base, size)

    def dma_write(self, base: int, data: bytes, device: str) -> None:
        """Device DMA write; TZASC DMA-filtered for ``device``."""
        self.tzasc.check_dma(AddrRange(base, len(data)), device)
        self._raw_write(base, data)

    def scrub(self, base: int, size: int, world: World) -> None:
        """Zero a range (TEE OS clears sensitive data before release).

        Only materialized pages hold data, so only they need touching —
        scrubbing gigabytes of never-written simulated RAM is free.
        """
        self.tzasc.check_cpu(AddrRange(base, size), world)
        self._zero_raw(base, size)

    def _zero_raw(self, base: int, size: int) -> None:
        """Zero ``[base, base + size)``.  A slice that reaches a page's
        extent truncates the page."""
        if size <= 0:
            return
        end = base + size
        for page_index in self._materialized_in(base, size):
            page = self._page(page_index)
            page_base = page_index * PAGE_SIZE
            start = max(base - page_base, 0)
            stop = end - page_base
            if stop >= len(page):
                del page[start:]
            else:
                page[start:stop] = bytes(stop - start)

    def copy_range(self, src: int, dst: int, size: int) -> None:
        """Raw copy between disjoint page-aligned ranges that skips
        never-materialized (all-zero) source pages; a misaligned or
        overlapping range raises :class:`~repro.errors.ConfigurationError`.

        Used by page migration: copying a mostly-untouched granule costs
        nothing, exactly like copying zero pages costs the real kernel a
        memset it would do anyway.  Each materialized source page lands
        on its destination page as its extent.
        """
        self._check_bounds(src, size)
        self._check_bounds(dst, size)
        if src % PAGE_SIZE or dst % PAGE_SIZE or size % PAGE_SIZE:
            raise ConfigurationError(
                "copy [0x%x, 0x%x) -> 0x%x is not page-aligned" % (src, src + size, dst)
            )
        if src < dst + size and dst < src + size:
            raise ConfigurationError(
                "copy [0x%x, 0x%x) -> [0x%x, 0x%x) overlaps" % (src, src + size, dst, dst + size)
            )
        shift = (dst - src) // PAGE_SIZE
        pages = self._pages
        # Absent source pages are logically zero, so a destination page no
        # source page overwrites is emptied: the copy must not leak a
        # prior occupant.
        for page_index in self._materialized_in(dst, size):
            if page_index - shift not in pages:
                self._page(page_index).clear()
        for page_index in self._materialized_in(src, size):
            self._page(page_index + shift)[:] = pages[page_index]
