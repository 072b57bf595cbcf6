"""In-place co-driver steps against per-step stepping (hypothesis).

``Simulator.advance`` takes an SMC's switch latency, each co-driver
register write and an NPU job's run time in place when nothing is
queued before the step ends.  Random mixes of secure jobs (with and
without the watchdog), REE jobs, an NN-app contender, idle gaps that
power the NPU down, NPU fault plans, the detach-attach switch, the
in-flight DMA attack in both switch orders and ``run(until=...)`` cut
points must observe exactly what per-step stepping
(``per_step_stepping`` in ``tests/conftest.py``) observes: every job's
launch and completion instants and fault, the world-switch and SMC
accounting, every TZPC, GIC and TZASC write, IRQ delivery, recovery
counters and the clock at every cut and at the end.
"""

from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults import FaultSpec
from repro.ree.npu_driver import REENPUDriver

#: an idle gap the REE power governor powers the NPU down in, wherever
#: its idle checks fall.
IDLE_GAP = REENPUDriver.IDLE_POWER_OFF_AFTER * 2.5

FAULTS = {
    "ree.npu_stall": FaultSpec("ree.npu_stall", probability=0.3, delay=1e-3, jitter=2e-3),
    "ree.smc_drop": FaultSpec("ree.smc_drop", probability=0.2, max_fires=3),
    "tee.job_hang": FaultSpec("tee.job_hang", probability=0.3, delay=1e-3, jitter=2e-3),
}

ITEMS = st.lists(
    st.tuples(
        st.sampled_from(["secure", "watched", "ree"]),
        st.floats(min_value=0.0, max_value=4e-3),
        st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=3e-3), st.just(IDLE_GAP)),
    ),
    min_size=1,
    max_size=10,
)

MIXES = st.fixed_dictionaries(
    {
        "items": ITEMS,
        "contender": st.none() | st.tuples(st.floats(0.0, 0.01), st.floats(0.002, 0.03)),
        "faults": st.lists(st.sampled_from(sorted(FAULTS)), unique=True).map(
            lambda sites: [FAULTS[site] for site in sites]
        ),
        "fault_seed": st.integers(0, 1000),
        "reinit": st.booleans(),
        "attack": st.sampled_from([None, "ordered", "unsafe"]),
        "cuts": st.lists(st.floats(0.0, 0.1), max_size=3).map(sorted),
    }
)

#: one mix with every ingredient, so both sides of advance always show.
EVERYTHING = {
    "items": [
        ("watched", 2e-3, 0.0),
        ("ree", 1e-3, 0.0),
        ("watched", 5e-4, 1e-3),
        ("ree", 2e-3, 0.0),
        ("watched", 1e-3, 0.0),
        ("watched", 3e-3, IDLE_GAP),
        ("ree", 2e-3, 2e-4),
        ("watched", 1e-3, 0.0),
        ("secure", 1e-3, 0.0),
    ],
    "contender": (1e-3, 0.02),
    "faults": list(FAULTS.values()),
    "fault_seed": 3,
    "reinit": False,
    "attack": "unsafe",
    "cuts": [0.004, 0.0105, 0.05],
}


def test_in_place_steps_match_per_step_stepping(codriver_mix, per_step_stepping, advance_tally):
    seen = Counter()

    @given(mix=MIXES)
    @example(mix=EVERYTHING)
    @example(mix={**EVERYTHING, "attack": None, "reinit": True})
    @settings(max_examples=150, deadline=None)
    def check(mix):
        with advance_tally() as tally:
            shipped = codriver_mix(**mix)
        with per_step_stepping():
            reference = codriver_mix(**mix)
        assert shipped == reference
        seen.update(tally)

    check()
    # The mixes reach both sides of advance: steps taken in place and
    # steps refused because something was queued first.
    assert seen[True] > 0 and seen[False] > 0
