"""Metric definitions: the end-to-end set and the per-layer set.

End-to-end metrics come from the untraced run: simulated latencies from
the records the public calls return, host costs from process CPU time.
Per-layer metrics come from the layer counters read around the measured
phase, from the same records, and from the traced run's spans and call
counts.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Dict, List, Sequence, Tuple

from repro.analysis.metrics import percentile
from repro.fleet import FleetTicket

from tracing import LAYERS
from workloads import SLO_LIMITS

GiB = float(1 << 30)
MiB = float(1 << 20)

END_TO_END = [
    ("setup_s", "s"),
    ("host_us_per_request", "us"),
    ("peak_rss_mib", "MiB"),
    ("ttft_p50_s", "s"),
    ("ttft_tail_s", "s"),
    ("slo_attainment", "ratio"),
]

PER_LAYER = (
    [("host.%s_us_per_request" % layer, "us") for layer in LAYERS]
    + [
        ("host.attributed_share", "ratio"),
        ("host.trace_overhead", "ratio"),
        ("sim.events_per_request", "count"),
        ("sim.events_per_token", "count"),
        ("sim.resumes_per_request", "count"),
        ("hw.smc_per_request", "count"),
        ("hw.tzasc_ops_per_request", "count"),
        ("hw.npu_busy_share", "ratio"),
        ("ree.cma_migrated_mib_per_request", "MiB"),
        ("ree.reclaimed_frames_per_request", "count"),
        ("ree.npu_shadow_jobs_per_token", "count"),
        ("tee.npu_switch_s_per_request", "s"),
        ("tee.secure_jobs_per_token", "count"),
        ("tee.npu_reissues", "count"),
        ("crypto.decrypted_groups_per_request", "count"),
        ("restore.alloc_s", "s"),
        ("restore.io_s", "s"),
        ("restore.decrypt_s", "s"),
        ("restore.compute_s", "s"),
        ("restore.lower_bound_gap", "ratio"),
        ("restore.cpu_idle_s", "s"),
        ("restore.preemptions", "count"),
        ("restore.init_s", "s"),
        ("restore.release_s", "s"),
        ("restore.loaded_gib_per_request", "GiB"),
        ("batch.occupancy_mean", "count"),
        ("batch.occupancy_max", "count"),
        ("batch.steps", "count"),
        ("batch.prefill_chunks", "count"),
        ("batch.evictions", "count"),
        ("batch.resumes", "count"),
        ("batch.kv_extends", "count"),
        ("decode.cpu_share", "ratio"),
        ("decode.npu_share", "ratio"),
        ("decode.smc_share", "ratio"),
        ("decode.sched_wait_share", "ratio"),
        ("decode.tbt_p50_s", "s"),
        ("decode.tbt_tail_s", "s"),
        ("kv.hit_ratio", "ratio"),
        ("kv.cow_tokens_per_request", "count"),
        ("kv.miss_tokens_per_request", "count"),
        ("kv.pool_high_water_blocks", "count"),
        ("kv.tree_evictions", "count"),
        ("llm.graph_builds_per_request", "count"),
        ("serve.queue_wait_p50_s", "s"),
        ("serve.queue_wait_tail_s", "s"),
        ("serve.preemptions", "count"),
        ("serve.wasted_tokens", "count"),
        ("serve.kv_blocked", "count"),
        ("serve.shed", "count"),
        ("serve.failed", "count"),
        ("serve.retries", "count"),
        ("serve.depth_calls_per_request", "count"),
        ("fleet.affinity_ratio", "ratio"),
        ("fleet.spillover_ratio", "ratio"),
        ("fleet.shed", "count"),
        ("fleet.device_max_share", "ratio"),
        ("fleet.score_calls_per_request", "count"),
        ("fleet.outstanding_calls_per_request", "count"),
        ("obs.metric_updates_per_request", "count"),
        ("obs.scrapes", "count"),
    ]
)

#: the Fig. 12 band the paper reports for the stressed configuration.
PAPER_GAP_BAND = (0.0001, 0.099)

METRIC_UPDATES = (
    "repro.obs.registry.Counter.inc",
    "repro.obs.registry.Gauge.set",
    "repro.obs.registry.Histogram.observe",
)


class BenchmarkError(Exception):
    """The run cannot produce a valid measurement."""


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """The highest of p90/p99/p99.9 with at least ten samples at or
    beyond it (ties at the percentile count, so 100 samples always give
    p90): ``(value, percentile, samples at or beyond)``."""
    for p in (99.9, 99.0, 90.0):
        value = percentile(values, p)
        beyond = sum(1 for v in values if v >= value)
        if beyond >= 10:
            return value, p, beyond
    raise BenchmarkError("%d samples: fewer than ten at or beyond p90" % len(values))


def layer_tail(values: Sequence[float]) -> float:
    """:func:`tail` for a per-layer metric: 0 without samples, and the
    maximum when fewer than ten samples lie at or beyond p90."""
    if not values:
        return 0.0
    try:
        return tail(values)[0]
    except BenchmarkError:
        return max(values)


def fingerprint(served) -> str:
    """Hash of every simulated per-request outcome: state, TTFT, step
    times and token ids, in offered order."""
    digest = hashlib.sha256()
    for row in served:
        digest.update(row.state.encode())
        if row.ttft is not None:
            digest.update(struct.pack("<d", row.ttft))
        digest.update(struct.pack("<%dd" % len(row.step_times), *row.step_times))
        digest.update(struct.pack("<%dq" % len(row.token_ids), *row.token_ids))
    return digest.hexdigest()[:16]


# ----------------------------------------------------------------------
# end to end
# ----------------------------------------------------------------------
def slo_attainment(served) -> float:
    """Share of offered SLO-class requests whose first token met the
    class limit; shed and failed requests miss."""
    offered = met = 0
    for row in served:
        limit = SLO_LIMITS.get(row.priority)
        if limit is None:
            continue
        offered += 1
        if row.state == "done" and row.ttft <= limit:
            met += 1
    if offered == 0:
        raise BenchmarkError("no SLO-class requests offered")
    return met / offered


def end_to_end(served, host_s: float, rss_mib: float) -> Dict[str, float]:
    """Every end-to-end metric but ``setup_s``."""
    done = [row for row in served if row.state == "done"]
    if not done:
        raise BenchmarkError("no request completed")
    ttfts = [row.ttft for row in done]
    return {
        "host_us_per_request": host_s / len(done) * 1e6,
        "peak_rss_mib": rss_mib,
        "ttft_p50_s": percentile(ttfts, 50),
        "ttft_tail_s": tail(ttfts)[0],
        "slo_attainment": slo_attainment(served),
    }


# ----------------------------------------------------------------------
# per layer
# ----------------------------------------------------------------------
def _serve_requests(row) -> List[object]:
    """The gateway requests behind one offered request."""
    handle = row.handle
    if handle is None:
        return []
    if isinstance(handle, FleetTicket):
        return handle.attempts
    return [handle]


def _winner(row):
    """The gateway request that served one offered request."""
    handle = row.handle
    if isinstance(handle, FleetTicket):
        return handle.winner
    return handle


def lower_bound_gap(done):
    """Mean of prefill time / slowest §7.2.1 row - 1 over the restoring
    prefills (None when no prefill restored anything)."""
    gaps = [
        p.ttft / p.lower_bound - 1.0
        for p in (row.record.pipeline for row in done if row.record is not None)
        if p is not None and p.loaded_bytes > 0
    ]
    return sum(gaps) / len(gaps) if gaps else None


def per_layer(workload, served, before, after, trace, host) -> Dict[str, float]:
    """Every per-layer metric; ``host`` carries the traced and untraced
    CPU and wall times of the measured phase."""
    done = [row for row in served if row.state == "done"]
    n = len(done)
    tokens = sum(len(row.token_ids) for row in done)
    per_req = 1.0 / n
    per_tok = 1.0 / tokens if tokens else 0.0

    def delta(key):
        return after[key] - before[key]

    m: Dict[str, float] = {}
    self_s = trace.self_seconds
    for layer in LAYERS:
        m["host.%s_us_per_request" % layer] = self_s[layer] * 1e6 * per_req
    m["host.attributed_share"] = sum(self_s.values()) / host["traced_wall_s"]
    m["host.trace_overhead"] = host["traced_cpu_s"] / host["untraced_cpu_s"] - 1.0

    m["sim.events_per_request"] = delta("sim.steps") * per_req
    m["sim.events_per_token"] = delta("sim.steps") * per_tok
    m["sim.resumes_per_request"] = host["resumes"] * per_req

    sim_span = delta("sim.now")
    m["hw.smc_per_request"] = delta("hw.smc") * per_req
    m["hw.tzasc_ops_per_request"] = delta("hw.tzasc_ops") * per_req
    m["hw.npu_busy_share"] = delta("hw.npu_busy_s") / sim_span if sim_span > 0 else 0.0

    m["ree.cma_migrated_mib_per_request"] = delta("ree.cma_migrated_bytes") / MiB * per_req
    m["ree.reclaimed_frames_per_request"] = delta("ree.reclaimed_frames") * per_req
    m["ree.npu_shadow_jobs_per_token"] = delta("ree.shadow_jobs") * per_tok

    m["tee.npu_switch_s_per_request"] = delta("tee.switch_s") * per_req
    m["tee.secure_jobs_per_token"] = delta("tee.secure_jobs") * per_tok
    m["tee.npu_reissues"] = delta("tee.reissues")

    m["crypto.decrypted_groups_per_request"] = delta("crypto.decrypted_groups") * per_req

    records = [row.record for row in done if row.record is not None]
    pipes = [r.pipeline for r in records if r.pipeline is not None]
    m["restore.alloc_s"] = sum(p.alloc_time for p in pipes) * per_req
    m["restore.io_s"] = sum(p.io_time for p in pipes) * per_req
    m["restore.decrypt_s"] = sum(p.decrypt_time for p in pipes) * per_req
    m["restore.compute_s"] = sum(p.computation_path for p in pipes) * per_req
    gap = lower_bound_gap(done)
    m["restore.lower_bound_gap"] = 0.0 if gap is None else gap
    m["restore.cpu_idle_s"] = sum(p.cpu_idle_time for p in pipes) * per_req
    m["restore.preemptions"] = sum(p.preemptions for p in pipes)
    m["restore.init_s"] = sum(r.init_time for r in records) * per_req
    m["restore.release_s"] = sum(r.release_time for r in records) * per_req
    m["restore.loaded_gib_per_request"] = sum(p.loaded_bytes for p in pipes) / GiB * per_req

    steps = delta("batch.steps")
    m["batch.occupancy_mean"] = delta("batch.tokens") / steps if steps else 0.0
    grown = [
        k for k, v in after["batch.occupancy"].items()
        if v > before["batch.occupancy"].get(k, 0)
    ]
    m["batch.occupancy_max"] = max(grown) if grown else 0
    m["batch.steps"] = steps
    m["batch.prefill_chunks"] = delta("batch.prefill_chunks")
    m["batch.evictions"] = delta("batch.evictions")
    m["batch.resumes"] = delta("batch.resumes")
    m["batch.kv_extends"] = delta("batch.kv_extends")

    parts = {"cpu": 0.0, "npu_compute": 0.0, "smc": 0.0, "sched_wait": 0.0}
    for record in records:
        if record.decode is None:
            continue
        for step in record.decode.attribution:
            for key in parts:
                parts[key] += step.get(key, 0.0)
    total = sum(parts.values())
    for key, name in (("cpu", "cpu"), ("npu_compute", "npu"), ("smc", "smc"),
                      ("sched_wait", "sched_wait")):
        m["decode.%s_share" % name] = parts[key] / total if total else 0.0
    step_times = [s for row in done for s in row.step_times] if workload.REPORTS_TBT else []
    m["decode.tbt_p50_s"] = percentile(step_times, 50) if step_times else 0.0
    m["decode.tbt_tail_s"] = layer_tail(step_times)

    shared = [r for r in records if r.batched and not r.resumed]
    prompt = sum(r.prompt_tokens for r in shared)
    m["kv.hit_ratio"] = sum(r.kv_hit_tokens for r in shared) / prompt if prompt else 0.0
    m["kv.cow_tokens_per_request"] = sum(r.kv_cow_tokens for r in records) * per_req
    m["kv.miss_tokens_per_request"] = sum(r.kv_miss_tokens for r in records) * per_req
    m["kv.pool_high_water_blocks"] = getattr(workload, "high_water_blocks", 0)
    m["kv.tree_evictions"] = delta("kv.tree_evictions")
    m["llm.graph_builds_per_request"] = trace.calls_matching("repro.llm.graph.build_") * per_req

    attempts = [req for row in served for req in _serve_requests(row)]
    winners = [w for w in (_winner(row) for row in done) if w is not None]
    waits = [w.queue_wait for w in winners if w.dispatched_at is not None]
    m["serve.queue_wait_p50_s"] = percentile(waits, 50) if waits else 0.0
    m["serve.queue_wait_tail_s"] = layer_tail(waits)
    m["serve.preemptions"] = sum(req.preemptions for req in attempts)
    m["serve.wasted_tokens"] = delta("serve.wasted_tokens")
    m["serve.kv_blocked"] = sum(1 for req in attempts if req.kv_blocked)
    m["serve.shed"] = delta("serve.rejected")
    m["serve.failed"] = sum(1 for req in attempts if req.failed)
    m["serve.retries"] = sum(req.failure_count for req in attempts)
    m["serve.depth_calls_per_request"] = (
        trace.call_count("repro.serve.admission.AdmissionController.total_depth") * per_req
    )

    tickets = [row.handle for row in served if isinstance(row.handle, FleetTicket)]
    if tickets:
        first = [t.attempts[0] for t in tickets]
        affinity = sum(
            1 for t, a in zip(tickets, first) if a.prompt_tokens < t.request.prompt_tokens
        )
        per_device: Dict[str, int] = {}
        for a in first:
            per_device[a.device_id] = per_device.get(a.device_id, 0) + 1
        m["fleet.affinity_ratio"] = affinity / len(tickets)
        m["fleet.spillover_ratio"] = sum(1 for a in first if a.spilled_over) / len(tickets)
        m["fleet.device_max_share"] = max(per_device.values()) / len(tickets)
    else:
        m["fleet.affinity_ratio"] = m["fleet.spillover_ratio"] = m["fleet.device_max_share"] = 0.0
    m["fleet.shed"] = sum(1 for row in served if row.state == "shed") if tickets else 0
    m["fleet.score_calls_per_request"] = (
        trace.call_count("repro.fleet.policies.CacheAwarePolicy.score") * per_req
    )
    m["fleet.outstanding_calls_per_request"] = (
        trace.call_count("repro.fleet.device.DeviceNode.outstanding") * per_req
    )
    m["obs.metric_updates_per_request"] = trace.call_count(*METRIC_UPDATES) * per_req
    m["obs.scrapes"] = delta("obs.scrapes")
    return m
