"""One pass over one workload, in a process of its own.

``run.py`` starts this file once per pass with ``PYTHONHASHSEED=0``; the
result is one JSON object on the last line of standard output.  Passes:

``untraced``  set-up, N measured segments, output check (tracing off)
``profile``   set-up, the first segments again under ``cProfile``
``span``      set-up, the first segments again under ``obs`` spans + wrappers
``setup``     set-up only (a third set-up time when no span pass is wanted)
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import resource
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, _HERE)
sys.path.insert(0, os.path.join(_HERE, os.pardir, os.pardir, "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402
from loadgen import summarize  # noqa: E402
from repro import obs  # noqa: E402


def _counters(before: dict, after: dict, pool) -> dict:
    """Raw growth of the published counters over the measured segments."""
    def d(suffix: str, field: str = "count") -> float:
        return tracer.counter_delta(before, after, suffix, field)

    return {
        "nvm_bytes_read": d("nvm.bytes_read", "total"),
        "nvm_bytes_written": d("nvm.bytes_written", "total"),
        "nic_messages": d("nic.tx_messages") + d("nic.rx_messages"),
        "fabric_messages": d("fabric.messages"),
        "fabric_payload_bytes": d("fabric.payload_bytes", "total"),
        "fabric_header_bytes": pool.cluster.fabric.spec.header_bytes,
        "reads": d("pool.reads"),
        "cache_hits": d("pool.cache_hits"),
        "lookups": d("pool.lookups"),
        "retries": d("pool.retries"),
        "read_batch_mean": tracer.histogram_delta_mean(
            before, after, "pool.read_batch"),
        "drained_bytes": d("proxy.drained_bytes", "total"),
        "ring_peak": tracer.level_peak(after, "proxy.occupancy"),
        "promote_copies": d("cache.promotions"),
        "rpc_requests": d("rpc.requests"),
        "master_requests": sum(
            d(m.rpc.name + ".requests") for m in pool.masters),
        "reports": d("master.reports"),
        "promotions": d("master.promotions"),
        "demotions": d("master.demotions"),
        "dup_rpcs": d("master.dup_rpcs"),
        "nvm_channels": sum(s.node.nvm.spec.channels
                            for s in pool.servers.values()),
        "dram_channels": sum(s.node.dram.spec.channels
                             for s in pool.servers.values()),
    }


def run_pass(args) -> dict:
    wl = workloads.make(args.workload, args.seed, args.scale)
    setup = wl.clocked(wl.setup)
    out = {"workload": args.workload, "seed": args.seed, "pass": args.kind,
           "setup_s": setup.calibrated_s}
    if args.kind == "setup":
        return out

    profiler = cProfile.Profile() if args.kind == "profile" else None
    spans = None
    if args.kind == "span":
        spans = tracer.SpanTracer(wl.sim)
        spans.install()
    before = tracer.published(wl.sim)
    segments = []
    latencies = {kind: [] for kind in wl.classes}
    try:
        for phase in range(1, args.segments + 1):
            seg = wl.run_segment(phase, profiler)
            for kind, values in seg.latencies.items():
                latencies[kind].extend(values)
            segments.append({
                "ops": seg.ops, "vt_ns": seg.vt_ns, "events": seg.events,
                "cpu_s": seg.clock.calibrated_s, "raw_cpu_s": seg.clock.cpu_s,
                "failed": seg.failed,
                "user_bytes_written": seg.user_bytes_written,
                "lat_sum": sum(sum(v) for v in seg.latencies.values())})
    finally:
        if spans is not None:
            spans.uninstall()
    after = tracer.published(wl.sim)

    out["segments"] = segments
    out["latency"] = summarize(latencies)
    out["counters"] = _counters(before, after, wl.pool)
    if profiler is not None:
        out["profile"] = tracer.profile_layers(profiler)
    if spans is not None:
        out["spans"] = spans.reduce(wl.pool, sum(s["vt_ns"] for s in segments))
        if spans.recorder.dropped:
            raise RuntimeError(f"span log overflowed: {spans.recorder.dropped} "
                               "spans dropped, per-layer sums would be short")
        if args.trace_out:
            with open(args.trace_out, "w") as fh:
                json.dump(obs.chrome_trace(
                    spans.recorder, process_name=f"ledger:{args.workload}"), fh)
            out["trace_file"] = args.trace_out
    out["attempted"] = sum(s["ops"] for s in segments)
    out["failed"] = sum(s["failed"] for s in segments)
    if args.kind == "untraced":
        checks, check_failed = wl.verify()
        out["attempted"] += checks
        out["failed"] += check_failed
        out["ops_sha256"] = wl.digest(args.segments)
        out["rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    out["failures"] = wl.failures
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--kind", required=True,
                        choices=("untraced", "profile", "span", "setup"))
    parser.add_argument("--segments", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args(argv)
    print(json.dumps(run_pass(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
