"""Zero-cost-when-off guards for the observability layer.

Three properties are pinned here:

1. With instrumentation off (``sim.spans is None``, ``sim.history is None``)
   the hot paths never construct a Span, call SpanRecorder.record or
   SpanRecorder.event (so no event message is built either), or touch a
   HistoryRecorder — proven by making all of them explode and running anyway,
   on the YCSB path and on the chaos path (faults, retries, transactions).
2. Installing the recorder does not move virtual time: the simulation
   schedule is bit-identical with and without instrumentation, events
   included.
3. The uninstrumented small-YCSB virtual time matches the committed
   BENCH_perf.json "current" capture exactly.
"""

import json
from pathlib import Path

from repro import obs
from repro.baselines.common import build_system
from repro.bench.runner import YcsbRunner
from repro.sim import Simulator
from repro.workloads.ycsb import WORKLOAD_B

REPO_ROOT = Path(__file__).resolve().parents[2]

def _run_ycsb(instrument: bool, seed: int = 42, ops: int = 80):
    sim = Simulator(seed=seed)
    system = build_system("gengar", sim, num_servers=2, num_clients=2)
    if instrument:
        obs.install(sim)
    spec = WORKLOAD_B.scaled(record_count=64, value_size=128)
    runner = YcsbRunner(system, spec, num_workers=2, ops_per_worker=ops)
    runner.load()
    result = runner.run()
    return sim, result


def _boom(*args, **kwargs):
    raise AssertionError("instrumentation touched on the disabled path")


def test_disabled_path_never_builds_spans_or_trace_strings(monkeypatch):
    monkeypatch.setattr("repro.obs.spans.Span.__init__", _boom)
    monkeypatch.setattr("repro.obs.spans.SpanRecorder.record", _boom)
    monkeypatch.setattr("repro.obs.spans.SpanRecorder.next_op", _boom)
    monkeypatch.setattr("repro.obs.spans.SpanRecorder.event", _boom)
    monkeypatch.setattr("repro.obs.spans.Instant.__init__", _boom)
    for hook in ("invoke", "ok", "fail", "info", "encode"):
        monkeypatch.setattr(f"repro.check.history.HistoryRecorder.{hook}",
                            _boom)
    sim, result = _run_ycsb(instrument=False)
    assert sim.spans is None and sim.history is None
    assert not hasattr(sim, "tracer")
    assert result.total_ops == 160


def test_disabled_chaos_path_never_builds_spans(monkeypatch):
    from repro.bench.chaos import ChaosSoak

    monkeypatch.setattr("repro.obs.spans.SpanRecorder.record", _boom)
    monkeypatch.setattr("repro.obs.spans.SpanRecorder.event", _boom)
    # The transaction phase too: txn/manager.py and chaos.py emit events.
    soak = ChaosSoak("chaos-txn", seed=7, smoke=True)
    report = soak.run()
    assert soak.recorder is None and soak.sim.spans is None
    assert report["ops_ok"] > 0
    assert report["counters"]["txn_commits"] > 0


def test_instrumentation_does_not_move_virtual_time():
    sim_off, res_off = _run_ycsb(instrument=False)
    sim_on, res_on = _run_ycsb(instrument=True)
    assert sim_on.spans is not None and len(sim_on.spans) > 0
    assert sim_on.now == sim_off.now
    assert res_on.total_ops == res_off.total_ops
    assert res_on.throughput_ops_s == res_off.throughput_ops_s


def test_recording_events_does_not_move_a_chaos_run():
    """Same contract on the paths that emit events: a soak with the
    events-only recorder (``--dump-trace``) reports what a bare soak does."""
    from repro.bench.chaos import ChaosSoak

    def soak(**kwargs):
        s = ChaosSoak("chaos-txn", seed=7, smoke=True, **kwargs)
        return s, s.run()

    off, report_off = soak()
    on, report_on = soak(dump_trace=True)
    assert len(on.recorder.events) > 0 and len(on.recorder) == 0
    assert on.sim.now == off.sim.now
    assert report_on == report_off
    assert (obs.registry_snapshot(on.sim.metrics)
            == obs.registry_snapshot(off.sim.metrics))


def test_virtual_time_matches_committed_perf_capture():
    bench = REPO_ROOT / "BENCH_perf.json"
    current = json.loads(bench.read_text())["current"]["ycsb_small"]
    sim = Simulator(seed=42)
    system = build_system("gengar", sim, num_servers=2, num_clients=2)
    spec = WORKLOAD_B.scaled(record_count=current["record_count"],
                             value_size=128)
    runner = YcsbRunner(system, spec,
                        num_workers=current["num_workers"],
                        ops_per_worker=current["ops_per_worker"])
    runner.load()
    runner.run()
    assert sim.now == current["virtual_time_ns"]
