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


def _history_file(tmp_path, recs):
    path = tmp_path / "history.jsonl"
    path.write_text("".join(json.dumps(dict(rec, id=i)) + "\n"
                            for i, rec in enumerate(recs)))
    return str(path)


def _op(client, kind, key, t0, t1, **kw):
    return dict({"client": client, "op": kind, "key": key, "t0": t0,
                 "t1": t1, "status": "ok"}, **kw)


def test_check_clean_history_passes(tmp_path, capsys):
    # A plain write seeds 0x10, one transaction reads it and overwrites
    # it, and a plain read on 0x20 binds that key's initial value.
    path = _history_file(tmp_path, [
        _op("c0", "write", 0x10, 0, 10, value="a"),
        _op("c1", "txn", None, 20, 30, txn="t1", keys=[0x10]),
        _op("c1", "txn_read", 0x10, 20, 30, txn="t1", offset=0, result="a"),
        _op("c1", "txn_write", 0x10, 20, 30, txn="t1", offset=0, value="b"),
        _op("c0", "read", 0x10, 40, 50, result="b"),
        _op("c0", "read", 0x20, 40, 50, result="x"),
    ])
    assert main(["check", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == (f"{path}: 6 ops, 2 key components, 0 lock keys, "
                      "1 transactions (1 committed, 0 aborted, "
                      "0 indeterminate)")
    assert "linearizable and strictly serializable" in out[1]


def test_check_stale_read_fails_with_counterexample(tmp_path, capsys):
    path = _history_file(tmp_path, [
        _op("c0", "write", 0x10, 0, 10, value="a"),
        _op("c0", "write", 0x10, 20, 30, value="b"),
        _op("c1", "read", 0x10, 40, 50, result="a"),
    ])
    cex = tmp_path / "cex.jsonl"
    assert main(["check", path, "--counterexample", str(cex)]) == 1
    assert "FAIL: linearizability" in capsys.readouterr().err
    header = json.loads(cex.read_text().splitlines()[0])
    assert header["violation"] == "linearizability"
    assert header["key"] == 0x10
