"""Span recording: unit behaviour plus the YCSB-B smoke contract.

The smoke test is the acceptance gate for the observability layer: one
instrumented YCSB-B run must surface read-hit, read-miss, proxy-write, and
drain spans, each phase correlated to its parent op.
"""

from dataclasses import replace

import pytest

from repro import obs
from repro.baselines.common import build_system
from repro.bench.runner import YcsbRunner
from repro.obs.spans import SpanRecorder
from repro.sim import Simulator
from repro.workloads.ycsb import WORKLOAD_B


# ----------------------------------------------------------------------
# Recorder unit behaviour
# ----------------------------------------------------------------------
def test_record_feeds_histogram_and_log():
    sim = Simulator()
    rec = SpanRecorder(sim)
    rec.record("client0", "op.gread", 0, end_ns=250, op=1, gaddr="0x10")
    h = sim.metrics.histogram("span.op.gread")
    assert h.count == 1 and h.mean == 250.0
    (span,) = rec.spans
    assert span.track == "client0"
    assert span.duration_ns == 250
    assert span.fields == {"gaddr": "0x10"}
    assert span.to_dict() == {
        "track": "client0", "name": "op.gread",
        "start_ns": 0, "end_ns": 250, "op": 1,
        "fields": {"gaddr": "0x10"},
    }


def test_end_defaults_to_now():
    sim = Simulator()
    rec = SpanRecorder(sim)

    def proc(sim):
        start = sim.now
        yield sim.timeout(40)
        rec.record("t", "phase.x", start)

    sim.spawn(proc(sim))
    sim.run()
    assert rec.spans[0].end_ns == 40


def test_capacity_bounds_span_log_not_histograms():
    sim = Simulator()
    rec = SpanRecorder(sim, capacity=2)
    for i in range(5):
        rec.record("t", "phase.x", 0, end_ns=i)
    assert len(rec) == 2
    assert rec.dropped == 3
    assert rec.recorded == 5
    # Histograms keep counting past the log bound.
    assert sim.metrics.histogram("span.phase.x").count == 5


def test_keep_spans_false_only_histograms():
    sim = Simulator()
    rec = SpanRecorder(sim, keep_spans=False)
    rec.record("t", "phase.x", 0, end_ns=10)
    assert len(rec) == 0
    assert sim.metrics.histogram("span.phase.x").count == 1


def test_next_op_is_monotonic():
    rec = SpanRecorder(Simulator())
    assert [rec.next_op() for _ in range(3)] == [1, 2, 3]


def test_by_name_names_tracks_clear():
    sim = Simulator()
    rec = SpanRecorder(sim)
    rec.record("a", "op.gread", 0, end_ns=1)
    rec.record("b", "op.gread", 0, end_ns=2)
    rec.record("a", "op.gwrite", 0, end_ns=3)
    assert len(rec.by_name("op.gread")) == 2
    assert rec.names() == {"op.gread": 2, "op.gwrite": 1}
    assert rec.tracks() == ["a", "b"]
    rec.clear()
    assert len(rec) == 0 and rec.tracks() == []


def test_invalid_capacity_rejected():
    with pytest.raises(ValueError):
        SpanRecorder(Simulator(), capacity=0)


def test_install_attaches_a_recorder():
    sim = Simulator()
    assert sim.spans is None
    rec = obs.install(sim)
    assert isinstance(rec, SpanRecorder) and sim.spans is rec
    assert not hasattr(obs, "ENABLED")


# ----------------------------------------------------------------------
# The instrumented YCSB-B smoke contract
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def ycsb_b_recorder():
    sim = Simulator(seed=42)
    # 500 ops end inside the default 200 us epoch; 50 us epochs let the
    # planner promote, and the clients hit the cache, within the run.
    system = build_system("gengar", sim, num_servers=2, num_clients=2,
                          config_overrides=lambda c: replace(c, epoch_ns=50_000))
    recorder = obs.install(sim)
    spec = WORKLOAD_B.scaled(record_count=64, value_size=128)
    runner = YcsbRunner(system, spec, num_workers=2, ops_per_worker=250)
    runner.load()
    runner.run()
    return recorder


def test_smoke_has_op_spans(ycsb_b_recorder):
    names = ycsb_b_recorder.names()
    # The YCSB driver batches read runs, so point reads surface as
    # op.gread_many doorbell batches.
    assert names.get("op.gread_many", 0) > 0
    assert names.get("op.gwrite", 0) > 0


def test_smoke_has_read_hit_and_miss_phases(ycsb_b_recorder):
    cache_reads = ycsb_b_recorder.by_name("phase.cache_read")
    hits = [s for s in cache_reads if s.fields and s.fields.get("hit")]
    assert hits, "expected at least one DRAM cache read hit"
    # Read misses go to the NVM home copy.
    assert ycsb_b_recorder.by_name("phase.nvm_read")


def test_smoke_has_proxy_write_and_drain_spans(ycsb_b_recorder):
    assert ycsb_b_recorder.by_name("phase.proxy_stage")
    drains = ycsb_b_recorder.by_name("srv.drain")
    assert drains
    assert all(s.track.startswith("server") for s in drains)
    assert all(s.fields and s.fields.get("torn") is False for s in drains)


def test_smoke_phases_correlate_to_parent_ops(ycsb_b_recorder):
    parents = (ycsb_b_recorder.by_name("op.gread")
               + ycsb_b_recorder.by_name("op.gread_many"))
    op_ids = {s.op for s in parents}
    child_ids = {s.op for s in ycsb_b_recorder.by_name("phase.nvm_read")}
    assert child_ids, "nvm reads must carry their parent op id"
    assert child_ids <= op_ids
    # Phases land inside their parent op's interval.
    by_op = {s.op: s for s in parents}
    for child in ycsb_b_recorder.by_name("phase.nvm_read"):
        parent = by_op[child.op]
        assert parent.start_ns <= child.start_ns
        assert child.end_ns <= parent.end_ns


def test_smoke_has_pipelining_spans(ycsb_b_recorder):
    # Doorbell-batched reads drain their in-flight completions.
    assert ycsb_b_recorder.names().get("phase.pipeline_wait", 0) > 0


def test_smoke_rpc_and_master_spans_present(ycsb_b_recorder):
    names = ycsb_b_recorder.names()
    assert any(n.startswith("rpc.") for n in names)
    assert names.get("srv.promote_copy", 0) > 0


def test_smoke_histograms_match_span_log(ycsb_b_recorder):
    sim = ycsb_b_recorder.sim
    for name, count in ycsb_b_recorder.names().items():
        h = sim.metrics.histogram("span." + name)
        # dropped == 0 in this run, so log and histogram counts agree.
        assert h.count == count
