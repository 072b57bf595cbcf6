#!/usr/bin/env python3
"""Visualize the restoration pipeline: export a Fig. 5-style timeline.

Runs one TZ-LLM inference with tracing and metrics enabled and writes
``tzllm_trace.json`` — open it in chrome://tracing or https://ui.perfetto.dev
to see the CPU row (allocation, decryption, CPU compute), the I/O engine
row (parameter loads) and the NPU row (secure matmul jobs) overlapping,
exactly like the paper's pipelined-restoration timelines.  Alongside the
trace it prints a Prometheus-format metrics excerpt, the flight
recorder's tail and each lane's busy/wait/idle time, and writes the full registry snapshot to
``tzllm_metrics.json`` and a speedscope/FlameGraph-loadable collapsed
stack to ``tzllm_profile.collapsed``.

Outputs land in ``--out`` (default ``out/``, gitignored).

Run:  python examples/pipeline_trace.py [--out DIR]
"""

import argparse
import json
import os

from repro import TINYLLAMA, TZLLM
from repro.analysis import render_table
from repro.obs import Profiler, instrument


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="out", help="output directory (default: out/)")
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)
    trace_out = os.path.join(args.out, "tzllm_trace.json")
    metrics_out = os.path.join(args.out, "tzllm_metrics.json")
    profile_out = os.path.join(args.out, "tzllm_profile.collapsed")

    system = TZLLM(TINYLLAMA, trace=True)
    obs = instrument(system)
    system.run_infer(8, 0)  # cold start (traced too)
    record = system.run_infer(256, 0)
    tracer = system.tracer

    rows = []
    for category in ("alloc", "load", "decrypt", "compute"):
        spans = [s for s in tracer.spans if s.category == category]
        rows.append(
            [category, len(spans), "%.3f s" % tracer.total_time(category)]
        )
    print(render_table(
        ["pipeline row", "spans", "busy time"],
        rows,
        title="Pipelined restoration, %s, 256-token prompt (TTFT %.2f s)"
        % (TINYLLAMA.display_name, record.ttft),
    ))

    # The unified registry covers every layer the request crossed.
    print("\n--- metrics (Prometheus text, excerpt) ---")
    text = obs.registry.render()
    shown = 0
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        print(line)
        shown += 1
        if shown >= 12:
            print("... (%d lines total)" % len(text.splitlines()))
            break

    with open(metrics_out, "w") as fh:
        json.dump(obs.registry.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("\nwrote %s — full registry snapshot" % metrics_out)

    # The flight recorder keeps the last events for postmortems; a clean
    # run still logs pipeline milestones.
    print("\n--- flight recorder tail ---")
    print(obs.recorder.render(8))

    # Where the wall-clock went: the lane accounting splits the trace
    # window into merged busy, wait and idle time per lane; the
    # collapsed-stack file breaks the busy time down further.
    profiler = Profiler(tracer, sim=system.sim)
    profiler.add_record(record)
    print("\n--- profiler ---")
    print(profiler.render())
    profiler.write_collapsed(profile_out)
    print("\nwrote %s — load in speedscope.app or flamegraph.pl" % profile_out)

    tracer.write_chrome_trace(trace_out)
    print("wrote %s — open in chrome://tracing or ui.perfetto.dev" % trace_out)
    print("lanes: %s" % ", ".join(tracer.lanes()))


if __name__ == "__main__":
    main()
