"""Full-platform assembly: hardware + REE kernel + TEE OS + drivers.

:func:`build_stack` stands up everything below the LLM layer: the board,
the REE kernel with its CMA regions, the TrustZone driver, the TEE OS with
a hardware key store, and the two cooperating NPU drivers.  The LLM
systems in :mod:`repro.core.system` build on top of this; unit tests and
examples use it directly.

:func:`hook_sites` lists the components observers attach to, and
:func:`set_hook` sets one hook on all of them: metrics, flight recorder,
memory timeline, fault injector and pipeline tracer all attach this way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .config import MiB, PlatformSpec, RK3588
from .crypto.keys import HardwareKeyStore
from .hw.platform import Board
from .ree.kernel import REEKernel
from .ree.npu_driver import REENPUDriver
from .ree.tz_driver import TZDriver
from .sim import Simulator
from .tee.npu_driver import TEENPUDriver
from .tee.os import TEEOS

__all__ = ["Stack", "build_stack", "hook_sites", "set_hook"]


@dataclass
class Stack:
    sim: Simulator
    spec: PlatformSpec
    board: Board
    kernel: REEKernel
    tz_driver: TZDriver
    tee_os: TEEOS
    keystore: HardwareKeyStore
    ree_npu: REENPUDriver
    tee_npu: TEENPUDriver
    #: device namespace when several stacks share one simulator.
    name: str = ""

    def run(self, until: Optional[float] = None) -> None:
        self.sim.run(until=until)


def build_stack(
    spec: PlatformSpec = RK3588,
    granule: int = 1 * MiB,
    os_footprint: Optional[int] = None,
    cma_regions: Optional[Dict[str, int]] = None,
    device_seed: Optional[bytes] = None,
    npu_reinit_on_switch: bool = False,
    sim: Optional[Simulator] = None,
    name: str = "",
) -> Stack:
    """Build and boot a complete two-world platform.

    ``cma_regions`` maps region name to size in bytes; reservations happen
    before boot.  The TEE NPU driver starts with no TZASC grants — callers
    add slots for the job-context regions they create.

    Pass ``sim`` to place several independent platforms on one shared
    simulator (the fleet tier does); ``name`` namespaces the board's
    resources and, unless ``device_seed`` is given explicitly, derives a
    per-device hardware key seed — two devices must never share keys.
    """
    if sim is None:
        sim = Simulator()
    if device_seed is None:
        device_seed = ("rk3588-unit-0:%s" % name).encode() if name else b"rk3588-unit-0"
    board = Board(sim, spec, name=name)
    kernel = REEKernel(sim, board, granule=granule, os_footprint=os_footprint)
    for region_name, size in (cma_regions or {}).items():
        kernel.reserve_cma(region_name, size)
    kernel.boot()
    tz_driver = TZDriver(sim, kernel)
    keystore = HardwareKeyStore(device_seed)
    tee_os = TEEOS(sim, board, keystore)
    ree_npu = REENPUDriver(sim, board)
    tee_npu = TEENPUDriver(sim, board, reinit_on_switch=npu_reinit_on_switch)
    return Stack(
        sim=sim,
        spec=spec,
        board=board,
        kernel=kernel,
        tz_driver=tz_driver,
        tee_os=tee_os,
        keystore=keystore,
        ree_npu=ree_npu,
        tee_npu=tee_npu,
        name=name,
    )


def hook_sites(target) -> List[object]:
    """Every component of ``target`` that carries observer hooks.

    ``target`` is a :class:`Stack` or a system exposing one via
    ``.stack`` (``TZLLM``, ``REELLM``).  The sites are the stack's flash,
    TZASC, secure monitor, TZ driver, both NPU drivers and every CMA
    region, then each TA in ``target.tas`` with its params and data
    secure regions and its KV block pool.  Each site
    declares the hooks it consults (``metrics``, ``recorder``,
    ``timeline``, ``fault_injector``, ``tracer``) as attributes that
    default to None (``NULL_TRACER`` for tracers).
    """
    stack = getattr(target, "stack", target)
    sites: List[object] = [
        stack.kernel.fs.flash,
        stack.board.tzasc,
        stack.board.monitor,
        stack.tz_driver,
        stack.ree_npu,
        stack.tee_npu,
    ]
    sites.extend(stack.kernel.cma_regions.values())
    for ta in getattr(target, "tas", {}).values():
        sites.extend((ta, ta.params_region, ta.data_region, ta.batch_engine.pool))
    return sites


def set_hook(target, name: str, value) -> None:
    """Set hook ``name`` to ``value`` on every site of ``target`` that
    declares it (see :func:`hook_sites`)."""
    for site in hook_sites(target):
        if hasattr(site, name):
            setattr(site, name, value)
