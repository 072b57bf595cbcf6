"""Observers attach one way: the hook sites every attach path reaches.

``instrument``, ``MemoryTimeline.attach``, ``FaultInjector.arm`` and
``TZLLM(trace=True)`` all set their hook through
:func:`repro.stack.set_hook`.  These tests find, from the outside (the
garbage collector's referrer graph), every object attribute that refers
to an attached observer, and pin the exact (component, hook) pairs on a
one-model TZLLM, a two-model batched TZLLM and an REE baseline.
"""

import gc
from collections import Counter

import pytest

from repro import TINYLLAMA, TZLLM
from repro.core import BatchConfig
from repro.core.system import REELLM
from repro.faults import FaultPlan
from repro.llm import QWEN25_3B
from repro.obs import MemoryTimeline, instrument
from repro.sim.trace import NULL_TRACER
from repro.stack import hook_sites, set_hook

#: the stack's own sites: flash, TZASC, secure monitor, TZ driver and
#: both NPU drivers.
STACK_OBSERVED = ("Flash", "TZASC", "SecureMonitor", "TZDriver", "REENPUDriver", "TEENPUDriver")
STACK_FAULTED = ("Flash", "REENPUDriver", "TEENPUDriver")


def one_model(trace=False):
    return TZLLM(TINYLLAMA, trace=trace)


def two_model_batched(trace=False):
    return TZLLM(
        [TINYLLAMA, QWEN25_3B],
        batch_config=BatchConfig(max_batch_size=2, block_tokens=16),
        trace=trace,
    )


def ree_baseline():
    return REELLM(TINYLLAMA)


def pairs_for(sites):
    """{(class name, hook): count} from (class names, hooks, copies)."""
    counts = Counter()
    for classes, hooks, copies in sites:
        for cls in classes:
            for hook in hooks:
                counts[(cls, hook)] += copies
    return counts


METRICS = ("metrics", "recorder")

#: (system, observer) -> the (component class, hook) pairs it sets.
EXPECTED = {
    ("one", "instrument"): pairs_for([
        (STACK_OBSERVED, METRICS, 1), (("CMARegion",), METRICS, 2), (("LLMTA",), METRICS, 1),
    ]),
    ("two", "instrument"): pairs_for([
        (STACK_OBSERVED, METRICS, 1), (("CMARegion",), METRICS, 4), (("LLMTA",), METRICS, 2),
    ]),
    ("ree", "instrument"): pairs_for([(STACK_OBSERVED, METRICS, 1)]),
    ("one", "timeline"): pairs_for([
        (("TZASC",), ("timeline",), 1),
        (("SecureRegion",), ("timeline",), 2),
        (("KVBlockPool",), ("timeline",), 1),
    ]),
    ("two", "timeline"): pairs_for([
        (("TZASC",), ("timeline",), 1),
        (("SecureRegion",), ("timeline",), 4),
        (("KVBlockPool",), ("timeline",), 2),
    ]),
    ("ree", "timeline"): pairs_for([(("TZASC",), ("timeline",), 1)]),
    ("one", "arm"): pairs_for([
        (STACK_FAULTED, ("fault_injector",), 1), (("CMARegion",), ("fault_injector",), 2),
    ]),
    ("two", "arm"): pairs_for([
        (STACK_FAULTED, ("fault_injector",), 1), (("CMARegion",), ("fault_injector",), 4),
    ]),
    ("ree", "arm"): pairs_for([(STACK_FAULTED, ("fault_injector",), 1)]),
    ("one", "trace"): pairs_for([(("LLMTA",), ("tracer",), 1)]),
    ("two", "trace"): pairs_for([(("LLMTA",), ("tracer",), 2)]),
}

SYSTEMS = {"one": one_model, "two": two_model_batched, "ree": ree_baseline}


def holders(observer, exclude=()):
    """Every (object, attribute) whose value is ``observer``, found through
    the referrer graph, skipping the objects in ``exclude``."""
    found = []
    for ref in gc.get_referrers(observer):
        if isinstance(ref, dict):
            owners = [o for o in gc.get_referrers(ref) if getattr(o, "__dict__", None) is ref]
        else:
            owners = [ref]
        for owner in owners:
            if any(owner is skip for skip in exclude):
                continue
            for name, value in getattr(owner, "__dict__", {}).items():
                if value is observer:
                    found.append((owner, name))
    return found


def class_pairs(found):
    return Counter((type(owner).__name__, name) for owner, name in found)


def attach(system, kind):
    """Attach one observer of ``kind``: returns (the hook values it sets,
    the objects that legitimately hold them, a detach callable)."""
    if kind == "instrument":
        obs = instrument(system)
        return [obs.registry, obs.recorder], [obs], lambda: obs.detach(system)
    if kind == "timeline":
        timeline = MemoryTimeline(system.sim).attach(system)
        return [timeline], [], timeline.detach
    injector = FaultPlan(1, []).injector(system.sim).arm(system)
    return [injector], [], lambda: injector.disarm(system)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@pytest.mark.parametrize("kind", ["instrument", "timeline", "arm"])
def test_attach_sets_exactly_the_declared_sites_and_detach_clears_them(name, kind):
    system = SYSTEMS[name]()
    observers, owners, detach = attach(system, kind)
    found = [pair for observer in observers for pair in holders(observer, owners)]
    assert class_pairs(found) == EXPECTED[(name, kind)]
    detach()
    assert all(getattr(owner, hook) is None for owner, hook in found)
    assert not any(holders(observer, owners) for observer in observers)


@pytest.mark.parametrize("name", ["one", "two"])
def test_trace_sets_every_ta_tracer(name):
    system = SYSTEMS[name](trace=True)
    found = holders(system.tracer, exclude=[system])
    assert class_pairs(found) == EXPECTED[(name, "trace")]
    assert {id(owner) for owner, _ in found} == {id(ta) for ta in system.tas.values()}
    # Untraced, each TA keeps the no-op tracer; setting it back detaches.
    assert all(ta.tracer is NULL_TRACER for ta in SYSTEMS[name]().tas.values())
    set_hook(system, "tracer", NULL_TRACER)
    assert all(owner.tracer is NULL_TRACER for owner, _ in found)
    assert holders(system.tracer, exclude=[system]) == []


def test_hook_sites_are_distinct_and_cover_every_ta():
    system = two_model_batched()
    sites = hook_sites(system)
    assert len({id(site) for site in sites}) == len(sites)
    for ta in system.tas.values():
        for site in (ta, ta.params_region, ta.data_region, ta.batch_engine.pool):
            assert any(site is s for s in sites)
    # A bare stack has only the platform's sites.
    assert len(hook_sites(system.stack)) == len(sites) - 4 * len(system.tas)


def test_set_hook_skips_sites_that_do_not_declare_the_hook():
    system = one_model()
    set_hook(system, "not_a_hook", object())
    assert not any(hasattr(site, "not_a_hook") for site in hook_sites(system))
