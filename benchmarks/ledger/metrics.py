"""From the passes' raw numbers to the named metrics of ``BENCHMARK.json``.

Every function here is arithmetic on what ``worker.py`` printed; names,
units, directions and bounds live in ``BENCHMARK.json`` and nowhere else.
"""

from __future__ import annotations

import statistics
from typing import Dict, List

#: The layers are this repo's packages (``tracer.layer_of`` maps source
#: paths onto them); ``other`` is the stdlib, builtins and everything else.
LAYERS = ("sim", "hardware", "rdma.verbs", "rdma.rpc", "core.client",
          "core.server", "core.master", "apps", "other")

#: Metrics that repeat exactly between two runs of one commit and seed, with
#: the bound ``--compare`` holds them to.  ``--compare`` only accepts ledgers
#: of one op stream, where these carry no noise; the wider bounds of
#: ``BENCHMARK.json`` cover the seed-to-seed spread its driver sees.
SAME_SEED_BOUND = {"vt_kops_per_s": 0.01, "vt_lat_p50_ns": 0.01,
                   "vt_lat_p99_ns": 0.01, "host_events_per_op": 0.02,
                   "host_pycalls_per_op": 0.02}

#: Client phases reported per op (``obs`` span names after ``phase.``).
PHASES = ("meta_lookup", "cache_read", "nvm_read", "proxy_stage",
          "drain_wait", "retry_wait")


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def median_cell(values: List[float]) -> Dict[str, float]:
    """A metric cell whose value is the median of ``values`` (two or more),
    with the quartiles ``statistics.quantiles`` gives and the sample count."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"value": median, "q1": q1, "q3": q3, "samples": len(values)}


def us_per_op(segments: List[dict], clock: str = "cpu_s") -> List[float]:
    """Per-segment CPU microseconds per op; ``cpu_s`` is calibrated against
    the reference loop, ``raw_cpu_s`` is what the host clock read."""
    return [s[clock] / s["ops"] * 1e6 for s in segments]


def end_to_end(untraced: dict, profile: dict, setups: List[float]) -> dict:
    """The end-to-end metrics (plus ``fail_ratio``) of one workload.

    Virtual-clock metrics cover every measured op; host timings are medians
    over segments.  Each value comes with the quartiles of its samples where
    it has more than one.
    """
    segs = untraced["segments"]
    ops = sum(s["ops"] for s in segs)
    lat = untraced["latency"]["all"]
    exact = lambda v: {"value": v}  # noqa: E731
    return {
        "vt_kops_per_s": exact(ops / sum(s["vt_ns"] for s in segs) * 1e6),
        "vt_lat_p50_ns": exact(lat["p50"]),
        "vt_lat_p99_ns": dict(exact(lat["p99"]), samples=lat["count"]),
        "fail_ratio": exact(untraced["failed"] / untraced["attempted"]),
        "host_us_per_op": dict(
            median_cell(us_per_op(segs)),
            raw_median=statistics.median(us_per_op(segs, "raw_cpu_s"))),
        "host_events_per_op": exact(sum(s["events"] for s in segs) / ops),
        "host_pycalls_per_op": exact(
            profile["profile"]["total_calls"]
            / sum(s["ops"] for s in profile["segments"])),
        "host_peak_rss_mb": exact(untraced["rss_mb"]),
        "setup_s": median_cell(setups),
    }


def published_ratios(run: dict) -> Dict[str, float]:
    """Per-layer metrics that need only the published counters (source b);
    computable from any pass, which is what the separation checks use."""
    c = run["counters"]
    ops = sum(s["ops"] for s in run["segments"])
    user_bytes = sum(s["user_bytes_written"] for s in run["segments"])
    return {
        "hardware.nvm.read_bytes_per_op": _div(c["nvm_bytes_read"], ops),
        "hardware.nvm.write_bytes_per_op": _div(c["nvm_bytes_written"], ops),
        "hardware.nvm.write_amp": _div(c["nvm_bytes_written"], user_bytes),
        "hardware.nic.msgs_per_op": _div(c["nic_messages"], ops),
        "hardware.fabric.msgs_per_op": _div(c["fabric_messages"], ops),
        "hardware.fabric.wire_bytes_per_op": _div(
            c["fabric_payload_bytes"]
            + c["fabric_messages"] * c["fabric_header_bytes"], ops),
        "rdma.rpc.calls_per_op": _div(c["rpc_requests"], ops),
        "rdma.rpc.retries": c["dup_rpcs"],
        "core.client.cache_hit_ratio": _div(c["cache_hits"], c["reads"]),
        "core.client.meta_lookups_per_op": _div(c["lookups"], ops),
        "core.client.reads_per_batch": c["read_batch_mean"],
        "core.client.retries_per_kop": _div(c["retries"] * 1000.0, ops),
        "core.server.drained_bytes_per_op": _div(c["drained_bytes"], ops),
        "core.server.proxy_ring_peak_occupancy": c["ring_peak"],
        "core.server.promote_copies": c["promote_copies"],
        "core.master.rpcs_per_op": _div(c["master_requests"], ops),
        "core.master.reports_per_kop": _div(c["reports"] * 1000.0, ops),
        "core.master.promotions": c["promotions"],
        "core.master.demotions": c["demotions"],
    }


def per_layer(untraced: dict, profile: dict, span: dict) -> Dict[str, float]:
    """Every per-layer metric, over the traced segments.

    ``untraced`` supplies the untraced cost of those same segments, against
    which the two overheads and ``sim.host_ns_per_event`` are stated.
    """
    segs = span["segments"]
    n = len(segs)
    ops = sum(s["ops"] for s in segs)
    events = sum(s["events"] for s in segs)
    elapsed = sum(s["vt_ns"] for s in segs)
    out = published_ratios(span)

    # (a) the profile pass
    prof = profile["profile"]
    total_s = sum(prof["seconds"].values())
    for layer in LAYERS:
        out[f"{layer}.host_share"] = _div(prof["seconds"][layer], total_s)
        out[f"{layer}.pycalls_per_op"] = _div(prof["calls"][layer], ops)
    base_us = statistics.median(us_per_op(untraced["segments"][:n]))
    out["sim.events_per_op"] = _div(events, ops)
    out["sim.host_ns_per_event"] = _div(
        out["sim.host_share"] * base_us * 1000.0, out["sim.events_per_op"])
    out["sim.pycalls_per_event"] = _div(prof["calls"]["sim"], events)
    out["rdma.rpc.pycalls_per_call"] = _div(
        prof["calls"]["rdma.rpc"], span["counters"]["rpc_requests"])
    out["obs.profile_overhead_x"] = _div(
        statistics.median(us_per_op(profile["segments"])), base_us)
    out["obs.span_overhead_x"] = _div(
        statistics.median(us_per_op(segs)), base_us)

    # (c) the span pass
    s = span["spans"]
    get = lambda key: s.get(key, 0)  # noqa: E731

    def wait(key: str) -> float:
        return _div(get(key + ".ns") - get(key + ".model_ns"),
                    get(key + ".count"))

    c = span["counters"]
    out["hardware.nvm.busy_frac"] = _div(
        get("nvm.read.model_ns") + get("nvm.write.model_ns"),
        elapsed * c["nvm_channels"])
    out["hardware.nvm.read_wait_ns"] = wait("nvm.read")
    out["hardware.nvm.write_wait_ns"] = wait("nvm.write")
    out["hardware.dram.busy_frac"] = _div(
        get("dram.read.model_ns") + get("dram.write.model_ns"),
        elapsed * c["dram_channels"])
    out["hardware.dram.wait_ns"] = _div(
        get("dram.read.ns") + get("dram.write.ns")
        - get("dram.read.model_ns") - get("dram.write.model_ns"),
        get("dram.read.count") + get("dram.write.count"))
    out["hardware.nic.tx_wait_ns"] = wait("hw.nic.tx")
    out["hardware.nic.max_util"] = get("nic_max_util")
    out["hardware.fabric.wait_ns"] = wait("hw.fabric")
    out["hardware.fabric.max_port_util"] = get("port_max_util")
    out["rdma.verbs.wrs_per_op"] = _div(get("wrs"), ops)
    out["rdma.verbs.wrs_per_doorbell"] = _div(get("wrs"), get("doorbells"))
    out["rdma.verbs.vt_ns_per_wr"] = _div(get("wr_ns"), get("wrs"))
    out["rdma.verbs.failed_wrs"] = get("failed_wrs")
    out["rdma.rpc.vt_ns_per_call"] = _div(get("rpccall.ns"),
                                          get("rpccall.count"))
    out["rdma.rpc.credit_waits"] = get("credit_waits")
    out["core.client.self_ns_per_op"] = _div(get("client_self_ns"), ops)
    for phase in PHASES:
        out[f"core.client.phase.{phase}_ns_per_op"] = _div(
            get(f"phase.{phase}.ns"), ops)
    out["core.server.drain_ns_per_frame"] = _div(get("srv.drain.ns"),
                                                 get("srv.drain.count"))
    out["core.master.service_ns_per_rpc"] = _div(get("master.rpc.ns"),
                                                 get("master.rpc.count"))
    out["core.master.plan_epochs"] = get("master.plan_epoch.count")
    out["obs.spans_per_op"] = _div(get("spans"), ops)

    # apps: per op class, from the driver's own latency lists (0 = the
    # class does not exist in this workload)
    lat = span["latency"]
    cls = lambda k: lat.get(k, {"p50": 0, "p99": 0})  # noqa: E731
    out["apps.read.vt_p50_ns"] = cls("read")["p50"]
    out["apps.read.vt_p99_ns"] = cls("read")["p99"]
    out["apps.update.vt_p50_ns"] = cls("update")["p50"]
    out["apps.update.vt_p99_ns"] = cls("update")["p99"]
    out["apps.alloc.vt_p99_ns"] = cls("alloc")["p99"]
    out["apps.lookup.vt_p99_ns"] = cls("lookup")["p99"]
    out["apps.free.vt_p99_ns"] = cls("free")["p99"]
    return out


def determinism_errors(untraced: dict, traced: dict) -> List[str]:
    """Names of what a traced pass failed to reproduce (empty = identical)."""
    errors = []
    for k, seg in enumerate(traced["segments"]):
        ref = untraced["segments"][k]
        for field, metric in (("vt_ns", "vt_kops_per_s"),
                              ("lat_sum", "vt_lat_*"),
                              ("events", "host_events_per_op"),
                              ("ops", "ops")):
            if seg[field] != ref[field]:
                errors.append(
                    f"{metric}: segment {k + 1} {field} {seg[field]} in the "
                    f"{traced['pass']} pass != {ref[field]} untraced")
    return errors
