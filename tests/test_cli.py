"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import main


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "gengar" in out
    assert "E12" in out
    assert "YCSB" in out


def test_demo(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "demo payload" in out
    assert "virtual time" in out


def test_ycsb_run(capsys):
    assert main(["ycsb", "--workload", "C", "--ops", "40",
                 "--records", "50", "--clients", "1", "--servers", "1"]) == 0
    out = capsys.readouterr().out
    assert "workload=YCSB-C" in out
    assert "throughput" in out


def test_experiments_unknown_id(capsys):
    assert main(["experiments", "E99"]) == 2
    assert "unknown experiment" in capsys.readouterr().out


def test_experiments_single(capsys):
    assert main(["experiments", "E9"]) == 0
    out = capsys.readouterr().out
    assert "E9" in out and "burst" in out


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])


def test_trace_writes_chrome_json(tmp_path, capsys):
    out_path = tmp_path / "trace.json"
    span_path = tmp_path / "spans.jsonl"
    # The default shape, as a reader following the README would run it.
    assert main(["trace", "--out", str(out_path),
                 "--spans", str(span_path)]) == 0
    doc = json.loads(out_path.read_text())
    assert doc["displayTimeUnit"] == "ms"
    names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
    # Point reads ride doorbell-batched gread_many in the YCSB driver, and
    # the pipelining machinery must leave its spans.
    assert names >= {"op.gread_many", "op.gwrite", "phase.cache_read",
                     "phase.nvm_read", "phase.proxy_stage", "srv.drain",
                     "phase.pipeline_wait"}
    rows = [json.loads(line) for line in span_path.read_text().splitlines()]
    assert rows and all(r["name"] and "start_ns" in r for r in rows)
    out = capsys.readouterr().out
    assert "spans" in out and str(out_path) in out


def test_metrics_prometheus_text(capsys):
    assert main(["metrics", "--workload", "B", "--ops", "60",
                 "--records", "64", "--clients", "2", "--servers", "2"]) == 0
    out = capsys.readouterr().out
    assert "# TYPE gengar_" in out
    assert "gengar_" in out and "_total" in out


def test_metrics_json_snapshot(capsys):
    assert main(["metrics", "--format", "json", "--workload", "C",
                 "--ops", "40", "--records", "50",
                 "--clients", "1", "--servers", "1"]) == 0
    snap = json.loads(capsys.readouterr().out)
    assert snap["schema"] == 1
    assert "counters" in snap and "histograms" in snap
