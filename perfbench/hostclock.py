"""Host CPU time at a fixed machine speed.

The VM the benchmark runs on shares its physical cores with other
tenants.  The same Python code runs up to twice as fast in one second as
in the next, so the process CPU time of one run moves by ±15% from the
next, and ten runs spread by more than a regression bound.

:class:`SpeedProbe` measures the machine's speed while the program
runs.  Every ``SAMPLE_INTERVAL_S`` of wall time, a ``SIGALRM`` handler
runs :func:`reference_loop` and times it on the process CPU clock.  The
loop is fixed Python work in two halves: small objects, attribute and
dict access, a heap and generator resumes, as the simulator does; and
integer arithmetic.  When the machine slows, the first half slows a
little more than the program and the second a lot less; together they
track it.  A sample ``s`` says that a CPU second did
``REFERENCE_LOOP_S / s`` seconds of reference-speed work at that moment.
The mean of that ratio over the samples, each weighted by the CPU time
the program used since the previous sample, is the scale that turns the
program's CPU seconds into CPU seconds at the reference speed.
``REFERENCE_LOOP_S`` is about what the loop takes, run back to back, on
a quiet 2-vCPU Xeon VM with Python 3.11.

The handler's own CPU time is counted and taken off the measurement, and
the garbage collector is held off while the loop runs: a collection
inside it would time the program's heap, not the machine.  A real-time
timer is used, not ``ITIMER_PROF``: arming a process CPU timer makes
Linux read the process CPU clock at tick granularity.
"""

from __future__ import annotations

import contextlib
import gc
import heapq
import signal
import time
from typing import List

#: wall seconds between speed samples.
SAMPLE_INTERVAL_S = 0.01
#: items the reference loop pushes through its heap.
REFERENCE_ITERATIONS = 100
#: steps of the reference loop's arithmetic.
ARITHMETIC_STEPS = 600
#: CPU seconds one reference loop takes at the reference speed.
REFERENCE_LOOP_S = 100e-6


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float):
        self.key = key
        self.value = value


def _ticker(n: int):
    total = 0
    for i in range(n):
        total += yield i
    return total


def reference_loop() -> int:
    """Fixed work for timing the machine; returns a checksum."""
    heap: list = []
    table: dict = {}
    ticker = _ticker(REFERENCE_ITERATIONS)
    acc = ticker.send(None)
    for i in range(REFERENCE_ITERATIONS - 1):
        item = _Item(i & 31, i * 0.5)
        heapq.heappush(heap, (item.value, i, item))
        table[item.key] = table.get(item.key, 0) + 1
        if len(heap) > 16:
            acc += heapq.heappop(heap)[2].key
        acc += ticker.send(1)
    for i in range(ARITHMETIC_STEPS):
        acc = (acc * 31 + i) & 0xFFFF
    return acc + len(table)


class SpeedProbe:
    """Samples the machine's speed while active (``with probe:``)."""

    def __init__(self):
        #: CPU seconds of each reference loop, and the program CPU
        #: seconds each sample stands for.
        self.samples: List[float] = []
        self.weights: List[float] = []
        #: CPU seconds spent sampling, to take off the measurement.
        self.own_s = 0.0
        self._mark = time.process_time()
        self._previous = None

    def sample(self) -> None:
        """Time one reference loop."""
        start = time.process_time()
        collecting = gc.isenabled()
        gc.disable()
        try:
            begin = time.process_time()
            reference_loop()
            self.samples.append(time.process_time() - begin)
            self.weights.append(start - self._mark)
        finally:
            if collecting:
                gc.enable()
        self._mark = time.process_time()
        self.own_s += self._mark - start

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def _arm(self) -> None:
        self._mark = time.process_time()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._arm()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @contextlib.contextmanager
    def paused(self):
        """Stop sampling for the enclosed code (a check kept out of the
        measurement)."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        try:
            yield
        finally:
            self._arm()

    def scale(self) -> float:
        """Reference-speed CPU seconds per CPU second measured while
        sampling."""
        if not self.samples:
            raise RuntimeError("no speed sample taken")
        weighted = sum(w / s for w, s in zip(self.weights, self.samples))
        return REFERENCE_LOOP_S * weighted / sum(self.weights)
