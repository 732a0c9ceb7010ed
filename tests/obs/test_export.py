"""Golden tests for the exporters: Chrome trace shape, Prometheus
round-trip, and the versioned snapshot / API key pins."""

import json

import pytest

from repro.core import GengarPool
from repro.obs import (
    SNAPSHOT_SCHEMA,
    chrome_trace,
    prometheus_text,
    registry_snapshot,
    spans_jsonl,
)
from repro.obs.spans import SpanRecorder
from repro.sim import Simulator


def parse_prometheus(text: str) -> dict:
    """Parse exposition text back into ``{sample_name: value}``: the
    round-trip check on :func:`prometheus_text`.

    Quantile samples keep their label (``name{quantile="0.5"}``).
    """
    samples = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        if not name:
            raise ValueError(f"unparseable sample line: {line!r}")
        samples[name] = float(value)
    return samples


@pytest.fixture()
def recorder():
    sim = Simulator()
    rec = SpanRecorder(sim)
    rec.record("client0", "op.gread", 100, end_ns=350, op=1, gaddr="0x10")
    rec.record("server1", "srv.drain", 200, end_ns=900, bytes=64, torn=False)
    rec.record("master", "master.plan_epoch", 0, end_ns=50, server=0,
               promotions=2, demotions=1)
    return rec


# ----------------------------------------------------------------------
# Chrome trace_event
# ----------------------------------------------------------------------
def test_chrome_trace_schema_shape(recorder):
    doc = chrome_trace(recorder)
    assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
    assert doc["displayTimeUnit"] == "ms"
    assert doc["otherData"]["spans_logged"] == 3
    assert doc["otherData"]["spans_dropped"] == 0

    events = doc["traceEvents"]
    xs = [e for e in events if e["ph"] == "X"]
    ms = [e for e in events if e["ph"] == "M"]
    assert len(xs) == 3
    # One process_name + (thread_name, thread_sort_index) per track.
    assert sum(1 for e in ms if e["name"] == "process_name") == 1
    assert sum(1 for e in ms if e["name"] == "thread_name") == 3
    assert sum(1 for e in ms if e["name"] == "thread_sort_index") == 3
    for e in xs:
        assert set(e) >= {"name", "cat", "ph", "ts", "dur", "pid", "tid"}
        assert isinstance(e["pid"], int) and isinstance(e["tid"], int)
        assert isinstance(e["ts"], float) and isinstance(e["dur"], float)
    # The whole document must be JSON-serializable (what Perfetto loads).
    json.loads(json.dumps(doc))


def test_chrome_trace_ns_to_us_conversion(recorder):
    doc = chrome_trace(recorder)
    gread = next(e for e in doc["traceEvents"]
                 if e.get("name") == "op.gread" and e["ph"] == "X")
    assert gread["ts"] == pytest.approx(0.1)  # 100 ns -> 0.1 us
    assert gread["dur"] == pytest.approx(0.25)  # 250 ns -> 0.25 us
    assert gread["cat"] == "op"
    assert gread["args"] == {"gaddr": "0x10", "op": 1}


def test_chrome_trace_track_order_master_first(recorder):
    doc = chrome_trace(recorder)
    names = {e["tid"]: e["args"]["name"]
             for e in doc["traceEvents"] if e.get("name") == "thread_name"}
    ordered = [names[tid] for tid in sorted(names)]
    assert ordered == ["master", "server1", "client0"]


def test_chrome_trace_empty_recorder():
    doc = chrome_trace(SpanRecorder(Simulator()))
    assert [e["ph"] for e in doc["traceEvents"]] == ["M"]  # process_name only


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def test_spans_jsonl_one_object_per_line(recorder):
    text = spans_jsonl(recorder)
    lines = text.splitlines()
    assert len(lines) == 3
    rows = [json.loads(line) for line in lines]
    assert rows[0]["name"] == "op.gread"
    assert rows[0]["fields"] == {"gaddr": "0x10"}
    assert all({"track", "name", "start_ns", "end_ns"} <= set(r)
               for r in rows)
    assert spans_jsonl(SpanRecorder(Simulator())) == ""


# ----------------------------------------------------------------------
# Prometheus text
# ----------------------------------------------------------------------
def test_prometheus_round_trip():
    sim = Simulator()
    c = sim.metrics.counter("pool.reads")
    c.add(3.0)
    c.add(5.0)
    h = sim.metrics.histogram("pool.read_latency")
    for v in (100.0, 200.0, 300.0):
        h.record(v)
    lvl = sim.metrics.level("server0.ring_occupancy")
    lvl.update(4.0)

    text = prometheus_text(sim.metrics)
    samples = parse_prometheus(text)

    assert samples["gengar_pool_reads_total"] == 2
    assert samples["gengar_pool_reads_sum"] == 8
    assert samples['gengar_pool_read_latency{quantile="0.5"}'] == 200
    assert samples['gengar_pool_read_latency{quantile="0.99"}'] == 300
    assert samples["gengar_pool_read_latency_count"] == 3
    assert samples["gengar_pool_read_latency_sum"] == 600
    assert samples["gengar_server0_ring_occupancy"] == 4
    assert samples["gengar_server0_ring_occupancy_peak"] == 4
    # Every emitted sample line parses; TYPE lines cover each family.
    assert "# TYPE gengar_pool_reads_total counter" in text
    assert "# TYPE gengar_pool_read_latency summary" in text
    assert "# TYPE gengar_server0_ring_occupancy gauge" in text


def test_prometheus_name_sanitization():
    sim = Simulator()
    sim.metrics.counter("client0->server1.rtt").add()
    samples = parse_prometheus(prometheus_text(sim.metrics))
    assert "gengar_client0__server1_rtt_total" in samples


def test_prometheus_empty_registry():
    assert prometheus_text(Simulator().metrics) == ""
    assert parse_prometheus("") == {}


def test_parse_prometheus_rejects_garbage():
    with pytest.raises(ValueError):
        parse_prometheus("no_space_separated_value")


# ----------------------------------------------------------------------
# Versioned snapshot + public API key pins
# ----------------------------------------------------------------------
def test_registry_snapshot_schema():
    sim = Simulator()
    sim.metrics.counter("pool.reads").add(2.0)
    sim.metrics.histogram("pool.read_latency").record(10.0)
    sim.metrics.level("depth").update(1.0)
    snap = registry_snapshot(sim.metrics)
    assert snap["schema"] == SNAPSHOT_SCHEMA == 1
    assert set(snap) == {"schema", "virtual_time_ns", "counters",
                         "histograms", "levels"}
    assert snap["counters"]["pool.reads"] == {"count": 1, "total": 2.0}
    assert set(snap["histograms"]["pool.read_latency"]) == {
        "count", "mean", "min", "max", "p50", "p90", "p99"}
    assert set(snap["levels"]["depth"]) == {"level", "avg", "peak"}
    json.loads(json.dumps(snap))


def _tiny_pool():
    sim = Simulator(seed=3)
    pool = GengarPool.build(sim, num_servers=1, num_clients=1)
    client = pool.clients[0]

    def app(sim):
        gaddr = yield from client.gmalloc(256)
        yield from client.gwrite(gaddr, bytes(256))
        yield from client.gread(gaddr)
        yield from client.gsync()

    pool.run(app(sim))
    return pool


def test_metrics_snapshot_keys_pinned():
    snap = _tiny_pool().metrics_snapshot()
    assert set(snap) == {
        "reads", "writes", "cache_hits", "cache_hit_ratio",
        "proxy_writes", "direct_writes",
        "read_latency_mean_ns", "write_latency_mean_ns",
    }
    assert snap["reads"] == 1 and snap["writes"] == 1


def test_describe_keys_pinned():
    desc = _tiny_pool().describe()
    assert {"virtual_time_ns", "objects", "master", "servers",
            "clients", "locks"} <= set(desc)
    assert {"allocations", "reports", "promotions", "demotions",
            "crashes"} <= set(desc["master"])
    (server,) = desc["servers"].values()
    assert {"alive", "cached_objects", "cache_used_bytes",
            "drained_writes", "promotions", "demotions"} <= set(server)
    (client,) = desc["clients"].values()
    assert {"uid", "pending_overlay_writes", "fence_epoch",
            "fenced"} <= set(client)
