"""Unit tests for the EL3 secure monitor SMC path."""

import pytest

from repro.errors import ConfigurationError
from repro.hw import SecureMonitor, World
from repro.sim import Simulator


def test_smc_dispatches_plain_handler_and_charges_latency():
    sim = Simulator()
    monitor = SecureMonitor(sim, smc_latency=1e-3)
    monitor.register("tee.echo", lambda x: x * 2)

    def caller():
        result = yield from monitor.smc(World.NONSECURE, "tee.echo", 21)
        return result

    proc = sim.process(caller())
    assert sim.run_until(proc) == 42
    assert sim.now == pytest.approx(1e-3)
    assert monitor.smc_count == 1
    assert monitor.smc_time == pytest.approx(1e-3)


def test_smc_generator_handler_consumes_time():
    sim = Simulator()
    monitor = SecureMonitor(sim, smc_latency=0.001)

    def handler(x):
        yield sim.timeout(0.5)
        return x + 1

    monitor.register("tee.slow", handler)

    def caller():
        result = yield from monitor.smc(World.NONSECURE, "tee.slow", 1)
        return result

    proc = sim.process(caller())
    assert sim.run_until(proc) == 2
    assert sim.now == pytest.approx(0.501)


def test_unknown_smc_function_rejected():
    sim = Simulator()
    monitor = SecureMonitor(sim)

    def caller():
        yield from monitor.smc(World.NONSECURE, "missing")

    proc = sim.process(caller())
    with pytest.raises(ConfigurationError):
        sim.run_until(proc)


def test_duplicate_registration_rejected():
    sim = Simulator()
    monitor = SecureMonitor(sim)
    monitor.register("f", lambda: None)
    with pytest.raises(ConfigurationError):
        monitor.register("f", lambda: None)


def test_smc_count_accumulates_across_calls():
    sim = Simulator()
    monitor = SecureMonitor(sim, smc_latency=2e-6)
    monitor.register("noop", lambda: None)

    def caller():
        for _ in range(5):
            yield from monitor.smc(World.NONSECURE, "noop")

    proc = sim.process(caller())
    sim.run_until(proc)
    assert monitor.smc_count == 5
    assert sim.now == pytest.approx(10e-6)
