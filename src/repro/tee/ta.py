"""Trusted application base: an isolated address space plus entry points.

A TA owns a set of mapped physical ranges; the TEE OS rejects any TA
access outside them (address-space isolation, §6: a malicious TA cannot
read the LLM TA's parameters).  Real byte access goes through the TEE OS
accessors so the isolation is enforced functionally, not by convention.
"""

from __future__ import annotations

from typing import List

from ..hw.common import AddrRange

__all__ = ["TrustedApplication"]


class TrustedApplication:
    """A TA: a name plus the physical ranges mapped into it."""

    def __init__(self, name: str):
        self.name = name
        self.mapped: List[AddrRange] = []
        self.installed = False

    # The TEE OS mutates these; TAs only read.
    def _map(self, rng: AddrRange) -> None:
        """Map ``rng``.  A range that starts where a mapped piece ends
        extends that piece, so a region grown by successive
        ``extend_protected`` calls stays one piece."""
        for index, piece in enumerate(self.mapped):
            if piece.end == rng.base:
                self.mapped[index] = AddrRange(piece.base, piece.size + rng.size)
                return
        self.mapped.append(rng)

    def _unmap(self, rng: AddrRange) -> None:
        self.mapped.remove(rng)

    def can_access(self, rng: AddrRange) -> bool:
        """True if ``rng`` lies entirely within the TA's mapped ranges.

        A range may be covered by several mapped pieces: ``_map`` merges
        a range only into the piece it extends.
        """
        remaining = [rng]
        for mapped in self.mapped:
            next_remaining = []
            for piece in remaining:
                if not mapped.overlaps(piece):
                    next_remaining.append(piece)
                    continue
                if piece.base < mapped.base:
                    next_remaining.append(AddrRange(piece.base, mapped.base - piece.base))
                if piece.end > mapped.end:
                    next_remaining.append(AddrRange(mapped.end, piece.end - mapped.end))
            remaining = next_remaining
            if not remaining:
                return True
        return not remaining

    def __repr__(self) -> str:  # pragma: no cover
        return "TrustedApplication(%r, %d mappings)" % (self.name, len(self.mapped))
