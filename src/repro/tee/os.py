"""The TEE OS: TA isolation, secure-memory scaling, key service.

Modelled on the OpenHarmony TEE the paper extends: a small kernel offering
thread management, IPC and memory management, here extended with exactly
the two facilities §5 describes — CMA page-memory mapping ("extend and
shrink") and dynamic TZASC/TZPC configuration.

Responsibilities:

* **TA address-space isolation** — every TA byte access is checked against
  the TA's mapped ranges (a malicious TA really cannot read the LLM TA's
  parameters; see the security tests).
* **Secure-memory scaling** — owns the TZASC programming for
  :class:`~repro.tee.secure_memory.SecureRegion` objects and scrubs memory
  before returning it to the REE.
* **Model-key service** — unwraps per-model keys under the hardware key
  with a per-TA access-control list.
"""

from __future__ import annotations

from typing import Dict, Set

from ..crypto.keys import HardwareKeyStore, unwrap_model_key
from ..errors import AccessDenied, ConfigurationError, SecurityViolation
from ..hw.common import AddrRange, World
from ..hw.platform import Board
from ..sim import Simulator
from .secure_memory import SecureRegion
from .ta import TrustedApplication

__all__ = ["TEEOS"]


class TEEOS:
    """The TEE kernel: TA isolation, secure memory, model keys."""

    def __init__(self, sim: Simulator, board: Board, keystore: HardwareKeyStore):
        self.sim = sim
        self.board = board
        self.keystore = keystore
        self._tas: Dict[str, TrustedApplication] = {}
        self._regions: Dict[str, SecureRegion] = {}
        self._key_acl: Dict[str, Set[str]] = {}  # model_id -> TA names
        self._next_slot = 0

    # ------------------------------------------------------------------
    # TA lifecycle and isolation
    # ------------------------------------------------------------------
    def install_ta(self, ta: TrustedApplication) -> None:
        if ta.name in self._tas:
            raise ConfigurationError("TA %r already installed" % ta.name)
        self._tas[ta.name] = ta
        ta.installed = True

    def ta(self, name: str) -> TrustedApplication:
        try:
            return self._tas[name]
        except KeyError:
            raise ConfigurationError("no TA named %r" % name)

    def map_into_ta(self, ta: TrustedApplication, rng: AddrRange) -> None:
        ta._map(rng)

    def unmap_from_ta(self, ta: TrustedApplication, rng: AddrRange) -> None:
        # Unmapping may split across the adjacent pieces created by
        # successive extends; normalize by rebuilding the mapped list.
        covered = [m for m in ta.mapped if m.overlaps(rng)]
        if not covered:
            raise ConfigurationError("range %r not mapped in TA %r" % (rng, ta.name))
        for piece in covered:
            ta._unmap(piece)
        for piece in covered:
            if piece.base < rng.base:
                ta._map(AddrRange(piece.base, rng.base - piece.base))
            if piece.end > rng.end:
                ta._map(AddrRange(rng.end, piece.end - rng.end))

    def ta_read(self, ta: TrustedApplication, addr: int, size: int) -> bytes:
        """TA byte load, checked against its address space."""
        rng = AddrRange(addr, size)
        if not ta.can_access(rng):
            raise AccessDenied("TA %r access to unmapped %r" % (ta.name, rng))
        return self.board.memory.cpu_read(addr, size, World.SECURE)

    def ta_write(self, ta: TrustedApplication, addr: int, data: bytes) -> None:
        rng = AddrRange(addr, len(data))
        if not ta.can_access(rng):
            raise AccessDenied("TA %r access to unmapped %r" % (ta.name, rng))
        self.board.memory.cpu_write(addr, data, World.SECURE)

    def scrub(self, rng: AddrRange) -> None:
        """Zero memory before it leaves the secure world."""
        self.board.memory.scrub(rng.base, rng.size, World.SECURE)

    # ------------------------------------------------------------------
    # secure-memory regions
    # ------------------------------------------------------------------
    def create_secure_region(
        self,
        ta: TrustedApplication,
        name: str,
        cma_name: str,
        base_addr: int,
        capacity: int,
        granule: int,
    ) -> SecureRegion:
        """Bind a fresh TZASC slot to a REE CMA region for ``ta``.

        ``base_addr``/``capacity`` come from boot-time firmware config
        (device tree), which secure boot authenticates — the running REE
        cannot influence them.
        """
        if name in self._regions:
            raise ConfigurationError("secure region %r already exists" % name)
        if self._next_slot >= self.board.tzasc.region_slots:
            raise ConfigurationError("out of TZASC region slots")
        region = SecureRegion(
            tee_os=self,
            ta=ta,
            name=name,
            tzasc_slot=self._next_slot,
            cma_name=cma_name,
            base_addr=base_addr,
            capacity=capacity,
            granule=granule,
        )
        # Program the slot immediately (empty): the co-driver may grant
        # device access on it before the region first grows.
        self.board.tzasc.configure(World.SECURE, region.tzasc_slot, base_addr, 0)
        region._slot_active = True
        self._next_slot += 1
        self._regions[name] = region
        return region

    def region(self, name: str) -> SecureRegion:
        return self._regions[name]

    def program_tzasc(self, region: SecureRegion, new_protected_bytes: int):
        """Reprogram the region's TZASC slot end (generator, timed)."""
        tzasc = self.board.tzasc
        yield self.sim.timeout(tzasc.config_time)
        if not region._slot_active:
            tzasc.configure(World.SECURE, region.tzasc_slot, region.base_addr, new_protected_bytes)
            region._slot_active = True
        else:
            tzasc.resize(World.SECURE, region.tzasc_slot, new_protected_bytes)

    # ------------------------------------------------------------------
    # REE delegation
    # ------------------------------------------------------------------
    def tz_call(self, func: str, *args, **kwargs):
        """SMC from the secure world to an REE service (generator)."""
        result = yield from self.board.monitor.smc(World.SECURE, func, *args, **kwargs)
        return result

    # ------------------------------------------------------------------
    # model-key service
    # ------------------------------------------------------------------
    def grant_model_access(self, model_id: str, ta_name: str) -> None:
        self._key_acl.setdefault(model_id, set()).add(ta_name)

    def unwrap_key_for(self, ta: TrustedApplication, wrapped: bytes, model_id: str) -> bytes:
        """Unwrap a model key for an authorized TA.

        §6: "The TEE OS only allows the LLM TA to access the model key."
        """
        if ta.name not in self._key_acl.get(model_id, set()):
            raise SecurityViolation(
                "TA %r is not authorized for model %r" % (ta.name, model_id)
            )
        hardware_key = self.keystore.hardware_key(World.SECURE)
        return unwrap_model_key(hardware_key, wrapped, model_id)
