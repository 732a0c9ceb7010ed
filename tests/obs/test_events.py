"""Instant events: the recorder's second log, its text timeline, its Chrome
rendering, and the categories a faulted pool emits.

Replaces ``tests/sim/test_trace.py``: what the protocol tracer recorded is
now either a span field or an event on the one ``SpanRecorder``.
"""

import json

import pytest

from repro import obs
from repro.bench.chaos import TIMELINE_CATEGORIES, ChaosSoak, run_soak
from repro.obs.spans import SpanRecorder
from repro.sim import Simulator
from tests.core.conftest import build_pool


# ----------------------------------------------------------------------
# Recorder unit behaviour
# ----------------------------------------------------------------------
def test_event_records_time_track_and_fields():
    sim = Simulator()
    rec = SpanRecorder(sim)
    sim.schedule(150, lambda: rec.event("server0", "cache", "demoted",
                                        gaddr="0x10"))
    sim.run()
    (event,) = rec.events
    assert event.time_ns == 150
    assert event.track == "server0"
    assert event.category == "cache"
    assert event.message == "demoted"
    assert event.fields == {"gaddr": "0x10"}


def test_events_are_not_spans():
    """Events feed neither the span count, the span log nor a histogram, so
    no per-layer ledger number (``obs.spans_per_op`` included) sees them."""
    sim = Simulator()
    rec = SpanRecorder(sim)
    before = obs.registry_snapshot(sim.metrics)
    rec.event("client0", "retry", "gread attempt 1 failed", cause="RpcError")
    assert rec.recorded == 0 and len(rec) == 0 and rec.spans == []
    assert obs.registry_snapshot(sim.metrics) == before
    assert rec.tracks() == ["client0"]


def test_event_ring_is_bounded_oldest_dropped():
    rec = SpanRecorder(Simulator(), event_capacity=10)
    for i in range(25):
        rec.event("t", "x", f"event-{i}")
    assert len(rec.events) == 10
    assert rec.events_dropped == 15
    assert rec.events[0].message == "event-15"  # oldest retained
    assert rec.dropped == 0  # the span log's own counter is separate


def test_events_only_recorder_keeps_no_spans():
    sim = Simulator()
    rec = SpanRecorder(sim, keep_spans=False, histograms=False)
    before = obs.registry_snapshot(sim.metrics)
    rec.record("client0", "op.gread", 0, end_ns=250)
    rec.event("client0", "fence", "heartbeat fenced")
    assert len(rec) == 0 and len(rec.events) == 1
    assert obs.registry_snapshot(sim.metrics) == before


def test_clear_drops_events_too():
    rec = SpanRecorder(Simulator(), event_capacity=1)
    rec.event("t", "x", "a")
    rec.event("t", "x", "b")
    rec.clear()
    assert len(rec.events) == 0 and rec.events_dropped == 0


def test_invalid_event_capacity_rejected():
    with pytest.raises(ValueError):
        SpanRecorder(Simulator(), event_capacity=0)


# ----------------------------------------------------------------------
# Timeline rendering
# ----------------------------------------------------------------------
def test_timeline_line_format():
    sim = Simulator()
    rec = SpanRecorder(sim)
    sim.schedule(1500, lambda: rec.event("master", "lease", "lease expired",
                                         client="client1"))
    sim.schedule(2500, lambda: rec.event("server0", "fault", "server crashed"))
    sim.run()
    assert obs.timeline(rec).splitlines() == [
        "[      1.50 us] lease     master: lease expired (client=client1)",
        "[      2.50 us] fault     server0: server crashed",
    ]


def test_timeline_tail_filter_and_drop_note():
    rec = SpanRecorder(Simulator(), event_capacity=4)
    for i in range(6):
        rec.event("t", "fault" if i % 2 else "cache", f"m{i}", k=i)
    out = obs.timeline(rec)
    assert "m1" not in out and "m2" in out and "k=5" in out
    assert out.splitlines()[-1] == "... (2 earlier events dropped)"
    only = obs.timeline(rec, categories={"fault"})
    assert "m3" in only and "m5" in only and "m2" not in only and "m4" not in only
    assert obs.timeline(rec, limit=1).splitlines()[0].endswith("m5 (k=5)")
    assert obs.timeline(SpanRecorder(Simulator())) == ""


# ----------------------------------------------------------------------
# Chrome trace
# ----------------------------------------------------------------------
def test_chrome_trace_renders_events_as_instants_on_their_track():
    sim = Simulator()
    rec = SpanRecorder(sim)
    rec.record("client0", "op.gread", 100, end_ns=350, op=1)
    sim.schedule(200, lambda: rec.event("client0", "retry",
                                        "gread attempt 1 failed",
                                        cause="TransportError"))
    sim.schedule(300, lambda: rec.event("faults", "fault",
                                        "injecting server crash", server=1))
    sim.run()
    doc = json.loads(json.dumps(obs.chrome_trace(rec)))
    tids = {e["args"]["name"]: e["tid"] for e in doc["traceEvents"]
            if e.get("name") == "thread_name"}
    assert set(tids) == {"client0", "faults"}
    retry, fault = [e for e in doc["traceEvents"] if e["ph"] == "i"]
    assert retry == {"name": "gread attempt 1 failed", "cat": "retry",
                     "ph": "i", "s": "t", "ts": 0.2, "pid": 1,
                     "tid": tids["client0"],
                     "args": {"cause": "TransportError"}}
    assert fault["cat"] == "fault" and fault["tid"] == tids["faults"]
    assert doc["otherData"]["spans_logged"] == 1
    assert doc["otherData"]["events_logged"] == 2
    assert doc["otherData"]["events_dropped"] == 0


# ----------------------------------------------------------------------
# What an instrumented pool emits
# ----------------------------------------------------------------------
def test_span_fields_carry_what_the_tracer_used_to_report():
    """The protocol points the tracer duplicated are spans only: a staged
    write, its drain (with the frame's address and sequence number) and the
    NVM read route — no cache / read / proxy event beside them."""
    sim, pool = build_pool(num_servers=1, num_clients=1)
    rec = obs.install(sim)
    client = pool.clients[0]
    got = {}

    def app(sim):
        got["gaddr"] = yield from client.gmalloc(256)
        yield from client.gwrite(got["gaddr"], b"t" * 256)
        yield from client.gsync()
        yield from client.gread(got["gaddr"])

    pool.run(app(sim))
    (staged,) = rec.by_name("phase.proxy_stage")
    (write,) = rec.by_name("op.gwrite")
    assert staged.op == write.op
    assert write.fields["gaddr"] == hex(got["gaddr"])
    (drain,) = rec.by_name("srv.drain")
    assert drain.fields["gaddr"] == hex(got["gaddr"])
    assert drain.fields["seq"] == 1 and drain.fields["torn"] is False
    assert len(rec.by_name("phase.nvm_read")) == 1
    assert not {e.category for e in rec.events} & {"read", "proxy"}


@pytest.fixture(scope="module")
def chaos_recorders():
    """The partition and the transaction rows: between them every control-
    plane category fires."""
    recorders = []
    for scenario in ("chaos-partition", "chaos-txn"):
        soak = ChaosSoak(scenario, seed=7, smoke=True, dump_trace=True)
        soak.run()
        recorders.append(soak.recorder)
    return recorders


def test_chaos_run_emits_the_fault_categories_in_time_order(chaos_recorders):
    categories, tracks = set(), set()
    for recorder in chaos_recorders:
        assert recorder.events_dropped == 0
        times = [e.time_ns for e in recorder.events]
        assert times == sorted(times)
        categories |= {e.category for e in recorder.events}
        tracks |= {e.track for e in recorder.events}
    assert categories >= {"fault", "retry", "failover", "lease", "fence",
                          "term", "txn"}
    assert {"faults", "master", "server0", "client0"} <= tracks


def test_chaos_timeline_is_the_categories_dump_trace_prints(chaos_recorders):
    for recorder in chaos_recorders:
        lines = obs.timeline(recorder, limit=200,
                             categories=TIMELINE_CATEGORIES).splitlines()
        assert 0 < len(lines) <= 200
        assert all(line.split("] ", 1)[1].split()[0] in TIMELINE_CATEGORIES
                   for line in lines)


def test_dump_trace_alone_adds_a_timeline_and_no_span_count(tmp_path):
    plain = run_soak(seed=7, smoke=True)
    traced = run_soak(seed=7, smoke=True, dump_trace=True)
    assert "spans_recorded" not in traced
    timeline = traced.pop("trace")
    assert "injecting server crash" in timeline
    assert traced == plain
    # --trace-out is the other observer: a faulted run shows its faults as
    # instants on the emitting node's track, beside the spans.
    trace_path = tmp_path / "chaos_trace.json"
    spanned = run_soak(seed=7, smoke=True, trace_out=str(trace_path))
    assert spanned.pop("spans_recorded") > 0 and spanned == plain
    events = json.loads(trace_path.read_text())["traceEvents"]
    assert any(e["ph"] == "i" and e["cat"] == "fault" for e in events)
    assert any(e["ph"] == "X" for e in events)


def test_forced_violation_prints_the_fault_timeline(monkeypatch, capsys):
    from repro.bench import chaos

    real_run = ChaosSoak.run

    def run_and_violate(self):
        report = real_run(self)
        report["violations"].append("forced by the test")
        return report

    monkeypatch.setattr(ChaosSoak, "run", run_and_violate)
    assert chaos.main(["--seed", "7", "--smoke", "--dump-trace"]) == 1
    err = capsys.readouterr().err
    assert "VIOLATION: forced by the test" in err
    tail = err.split("--- fault timeline (tail) ---\n", 1)[1].splitlines()
    assert 0 < len(tail) <= 200
    assert any("faults: injecting server crash" in line for line in tail)
