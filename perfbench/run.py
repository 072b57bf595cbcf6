#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload restore_pressure --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the measured phase once, untraced, for the
end-to-end metrics, and sets the workload up several times before and
after it (``setup_s`` is the median CPU time of one set-up).  Both host
times are scaled to a fixed machine speed, sampled while they run
(``hostclock.py``).  ``--trace 1`` runs the measured phase twice — untraced, then
with every layer's entry points wrapped — for the per-layer metrics; the
traced run must reproduce the untraced run's simulated fingerprint, and
its spans are written to ``perfbench/out/``.

Human-readable lines go first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is non-zero, with no result printed when the
program cannot be imported, and with ``"correct": false`` when a
correctness or coverage check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import sys
import time

from hostclock import SpeedProbe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: set-ups per round: at least the minimum, then more until their CPU
#: time adds up to SETUP_MIN_SECONDS (cheap set-ups need more samples
#: for a steady median).  One round runs before the measured phase and
#: one after it, so the median spans the machine's speed over the run.
SETUP_MIN_REPEATS = 5
SETUP_MAX_REPEATS = 50
SETUP_MIN_SECONDS = 0.5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def emit(line: str) -> None:
    print(line, flush=True)


class Phase:
    """What a workload's measured phase sees: the tracer (None untraced)
    and a way to keep its own checks out of the measurement."""

    def __init__(self, tracer=None, probe=None):
        self.tracer = tracer
        self.probe = probe
        self.untimed_cpu_s = 0.0
        self.untimed_wall_s = 0.0

    @contextlib.contextmanager
    def untimed(self):
        """Run a check between measured requests: its CPU and wall time
        are taken off the phase's, its spans dropped, and the speed
        probe paused."""
        with self.probe.paused() if self.probe is not None else contextlib.nullcontext():
            cpu, wall = time.process_time(), time.perf_counter()
            with self.tracer.excluded() if self.tracer is not None else contextlib.nullcontext():
                yield
            self.untimed_cpu_s += time.process_time() - cpu
            self.untimed_wall_s += time.perf_counter() - wall


def measure(workload, env, inputs, tracer=None, probe=None):
    """One measured phase: served rows, counters before and after, CPU
    and wall seconds, and the tracer's totals (None untraced).  With a
    speed probe, the phase is sampled and the probe's own CPU time is
    taken off."""
    from workloads import snapshot

    phase = Phase(tracer, probe)
    before = snapshot(workload, env)
    with probe if probe is not None else contextlib.nullcontext():
        cpu0, wall0 = time.process_time(), time.perf_counter()
        served = workload.run(env, inputs, phase)
        cpu1, wall1 = time.process_time(), time.perf_counter()
    summary = tracer.summary() if tracer is not None else None
    after = snapshot(workload, env)
    probe_s = probe.own_s if probe is not None else 0.0
    cpu_s = cpu1 - cpu0 - phase.untimed_cpu_s - probe_s
    wall_s = wall1 - wall0 - phase.untimed_wall_s - probe_s
    return served, before, after, cpu_s, wall_s, summary


def check(workload, env, served, before, after):
    """Correctness and coverage checks common to every workload, then
    the workload's own."""
    failures = []
    failed = [row for row in served if row.state in ("failed", "cancelled")]
    if failed:
        failures.append("%d requests failed or were cancelled" % len(failed))
    for index, row in enumerate(served):
        if row.state != "done":
            continue
        if row.token_ids != workload.expected_tokens(row):
            failures.append(
                "request %d: token stream of %d differs from the expected %d tokens"
                % (index, len(row.token_ids), row.output_tokens)
            )
            break
    late = max((abs(row.late) for row in served), default=0.0)
    if late > 1e-9:
        failures.append("arrival process ran %.3g s late" % late)
    failures.extend(workload.check(env, served, before, after))
    return failures


def accounting(served) -> dict:
    states = [row.state for row in served]
    return {
        "offered": len(served),
        "completed": states.count("done"),
        "failed": states.count("failed"),
        "shed": states.count("shed"),
        "cancelled": states.count("cancelled"),
        "max_lateness_s": max((abs(row.late) for row in served), default=0.0),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import repro  # the program under test
    except ImportError as exc:
        print("perfbench: cannot import the program from %s: %s" % (src, exc), file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print("perfbench: imported repro from %s, not from %s" % (repro.__file__, src),
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print("perfbench: unknown workload %r (have %s)"
              % (args.workload, ", ".join(sorted(WORKLOADS))), file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    inputs = workload.make_inputs()
    emit("workload %s seed %d: %d requests offered" % (workload.name, args.seed, len(inputs)))

    if args.trace:
        result = traced_run(workload, inputs)
    else:
        result = untraced_run(workload, inputs)
    report, failures, values, units, setups = result

    # a warm-up request that failed would have raised out of setup()
    warmup = setups * workload.WARMUP_REQUESTS
    emit("accounting setup %s" % json.dumps(
        {"setups": setups, "offered": warmup, "completed": warmup, "failed": 0, "shed": 0,
         "cancelled": 0}, sort_keys=True))
    emit("accounting measured %s" % json.dumps(report, sort_keys=True))
    for failure in failures:
        emit("CHECK FAILED: %s" % failure)
    declared = declared_metrics(args.trace)
    if declared is not None and set(declared) != set(values):
        failures.append("metrics differ from BENCHMARK.json")
        emit("CHECK FAILED: metrics %s differ from BENCHMARK.json"
             % sorted(set(declared) ^ set(values)))
    out = {
        "correct": not failures,
        "attempted": report["offered"],
        "failed": report["failed"] + report["cancelled"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
    emit(json.dumps(out, sort_keys=True))
    return 0 if not failures else 1


def declared_metrics(trace: int):
    """Metric names BENCHMARK.json declares for this mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def setup_round(workload):
    """One round of timed set-ups: their CPU times at the reference
    speed, and the last one's environment.  The speed probe runs through
    the round and also samples once before each set-up, so even a round
    of millisecond set-ups has a sample per set-up."""
    times = []
    env = None
    with SpeedProbe() as probe:
        while len(times) < SETUP_MIN_REPEATS or (
            sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPEATS
        ):
            env = None  # drop the previous set-up before timing the next
            gc.collect()
            probe.sample()
            own = probe.own_s
            start = time.process_time()
            env = workload.setup()
            times.append(time.process_time() - start - (probe.own_s - own))
    scale = probe.scale()
    return [t * scale for t in times], env


def untraced_run(workload, inputs):
    import metrics

    setup_times, env = setup_round(workload)
    gc.collect()
    probe = SpeedProbe()
    served, before, after, cpu_s, _wall, _none = measure(workload, env, inputs, probe=probe)
    failures = check(workload, env, served, before, after)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scale = probe.scale()
    values = metrics.end_to_end(served, cpu_s * scale, rss_mib)
    report = accounting(served)
    print_summary(workload, served, values)
    emit("host %.3f s CPU, machine speed x%.3f of the reference (%d samples)"
         % (cpu_s, scale, len(probe.samples)))
    # the second round sets up on a heap as small as the first one's
    env = served = None
    setup_times += setup_round(workload)[0]
    values["setup_s"] = statistics.median(setup_times)
    emit("setup %.6f s (median of %d)" % (values["setup_s"], len(setup_times)))
    units = dict(metrics.END_TO_END)
    return report, failures, values, units, len(setup_times)


def traced_run(workload, inputs):
    import metrics
    from repro.sim import ProcessLedger
    from tracing import LayerTracer

    env = workload.setup()
    served, before, after, cpu_s, _wall, _none = measure(workload, env, inputs)
    failures = check(workload, env, served, before, after)
    untraced_fp = metrics.fingerprint(served)
    env = None
    gc.collect()

    tracer = LayerTracer()
    wrapped = tracer.install()
    traced_env = workload.setup()
    traced_env.sim.ledger = ProcessLedger()
    gc.collect()
    tracer.reset()
    traced, t_before, t_after, t_cpu_s, t_wall_s, summary = measure(
        workload, traced_env, inputs, tracer
    )
    traced_fp = metrics.fingerprint(traced)
    failures.extend(check(workload, traced_env, traced, t_before, t_after))
    if traced_fp != untraced_fp:
        failures.append("traced fingerprint %s != untraced %s" % (traced_fp, untraced_fp))
    host = {
        "untraced_cpu_s": cpu_s,
        "traced_cpu_s": t_cpu_s,
        "traced_wall_s": t_wall_s,
        "resumes": t_after["sim.resumes"] - t_before["sim.resumes"],
    }
    values = metrics.per_layer(workload, served, before, after, summary, host)
    emit("fingerprint %s (untraced) %s (traced); %d entry points wrapped, %d spans"
         % (untraced_fp, traced_fp, wrapped, summary.spans))
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "spans-%s.bin" % workload.name)
    tracer.write(path, summary.spans)
    emit("spans written to %s" % os.path.relpath(path, ROOT))
    units = dict(metrics.PER_LAYER)
    return accounting(served), failures, values, units, 2


def print_summary(workload, served, values):
    import metrics

    done = [row for row in served if row.state == "done"]
    ttfts = [row.ttft for row in done]
    _value, p, beyond = metrics.tail(ttfts)
    emit("fingerprint %s" % metrics.fingerprint(served))
    emit("ttft p50 %.6f s, tail p%g %.6f s (%d samples, %d at or beyond)"
         % (values["ttft_p50_s"], p, values["ttft_tail_s"], len(ttfts), beyond))
    emit("slo_attainment %.6f; host %.1f us/request; peak RSS %.1f MiB"
         % (values["slo_attainment"], values["host_us_per_request"], values["peak_rss_mib"]))
    gap = metrics.lower_bound_gap(done)
    if gap is not None:
        lo, hi = metrics.PAPER_GAP_BAND
        emit("restore.lower_bound_gap %.4f (paper Fig. 12 stressed band %.2f%%-%.1f%%)"
             % (gap, lo * 100, hi * 100))


if __name__ == "__main__":
    sys.exit(main())
