"""The perf pin: ``BENCH_perf.json`` is regenerated and must not move.

Every number in the capture repeats exactly on any machine, so the gate is
equality with the committed file — virtual times, event budgets, scale-out
throughput and p99s, pool statistics, all of them.  A PR that moves one on
purpose commits the regenerated file and the diff is the record.
"""

import json
from pathlib import Path

from repro.bench import perf

BENCH = Path(__file__).resolve().parents[2] / "BENCH_perf.json"


def test_committed_capture_regenerates_byte_identically():
    committed = BENCH.read_text()
    doc = perf.capture()
    pinned = json.loads(committed)["current"]
    # Section by section first, so a failure names what moved.
    for section, got in doc["current"].items():
        assert got == pinned[section], section
    assert perf.render(doc) == committed

    # The shapes the scale-out records exist to show: throughput rises
    # through 4 shards and through 64 clients.
    by_shards = [p["ops_per_sec_virtual"] for p in pinned["scaleout"]["points"]
                 if p["shards"] <= 4]
    assert all(a < b for a, b in zip(by_shards, by_shards[1:]))
    by_clients = [p["ops_per_sec_virtual"]
                  for p in pinned["scaleout_clients"]["points"]
                  if p["clients"] <= 64]
    assert all(a < b for a, b in zip(by_clients, by_clients[1:]))


def test_cli_writes_the_capture_where_asked(tmp_path, monkeypatch, capsys):
    doc = json.loads(BENCH.read_text())
    monkeypatch.setattr(perf, "capture", lambda: doc)
    out = tmp_path / "perf.json"
    assert perf.main(["--out", str(out)]) == 0
    assert out.read_bytes() == BENCH.read_bytes()
    assert f"wrote {out}" in capsys.readouterr().out
