"""Fixtures shared across test packages."""

import pytest

from repro.errors import ConfigurationError
from repro.llm import Engine


def per_op_execute(self, graph, cpu_priority=0.0):
    """``GraphExecutor.execute`` as per-operator stepping (generator).

    Every CPU operator takes the CPU, waits one timeout of its own
    duration and releases; every NPU operator goes through the backend.
    The executor's CPU runs must be indistinguishable from this loop,
    so the differential tests run it as the reference, either called
    directly or patched onto ``GraphExecutor.execute``.
    """
    for op in graph.ops:
        duration = self.op_time(op)
        if op.engine == Engine.CPU:
            request = self.cpu.request(priority=cpu_priority)
            yield request
            try:
                yield self.sim.timeout(duration)
                self.cpu_busy_time += duration
            finally:
                self.cpu.release(request)
        else:
            if self.npu_backend is None:
                raise ConfigurationError("graph has NPU ops but no NPU backend")
            start = self.sim.now
            busy0 = self.npu_backend.busy_time
            overhead0 = self.npu_backend.overhead_time
            yield from self.npu_backend.run(op, duration)
            self.npu_wait_time += self.sim.now - start
            self.npu_busy_time += self.npu_backend.busy_time - busy0
            self.npu_overhead_time += self.npu_backend.overhead_time - overhead0


@pytest.fixture(scope="session")
def per_op_reference():
    """The per-operator reference executor loop (see :func:`per_op_execute`)."""
    return per_op_execute
