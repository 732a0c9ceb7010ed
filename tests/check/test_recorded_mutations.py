"""Seeded mutations of real chaos histories must each be caught.

The toy histories of ``test_linearize`` / ``test_serialize`` show the
checker rejects textbook breakages; this file shows it also rejects them
inside the histories the chaos rows actually record.  The chaos-partition
(seed 7) and chaos-txn (seed 11) smoke histories are recorded once, each
passes as recorded, and one targeted edit to a copy must then produce a
violation of the expected kind.
"""

import copy

import pytest

from repro.bench.chaos import ChaosSoak
from repro.check import check_history


@pytest.fixture(scope="module")
def recorded():
    histories = {}
    for scenario, seed in (("chaos-partition", 7), ("chaos-txn", 11)):
        soak = ChaosSoak(scenario, seed=seed, smoke=True)
        soak.run()
        recorder = soak.history_recorder or soak.txn_history_recorder
        histories[scenario] = recorder.ops
    return histories


def _kinds(ops):
    return {v.kind for v in check_history(ops).violations}


def test_recorded_histories_pass_unmutated(recorded):
    for ops in recorded.values():
        assert check_history(ops).ok


def test_stale_read_is_caught(recorded):
    # Rewrite one read to return a value that a later write had already
    # overwritten, completely, before the read began.
    ops = copy.deepcopy(recorded["chaos-partition"])
    writes = [r for r in ops if r["op"] == "write" and r["status"] == "ok"]
    read, old = next(
        (r, w1) for r in ops if r["op"] == "read" and r["status"] == "ok"
        for w1 in writes for w2 in writes
        if w1["key"] == w2["key"] == r["key"]
        and w1["t1"] < w2["t0"] and w2["t1"] < r["t0"]
        and w1["value"] != r["result"])
    read["result"] = old["value"]
    res = check_history(ops)
    assert {(v.kind, v.key) for v in res.violations} == {
        ("linearizability", read["key"])}


def test_aborting_an_observed_commit_is_caught(recorded):
    # Flip a committed transaction whose write someone later read — a
    # value no other op ever wrote — to aborted.
    ops = copy.deepcopy(recorded["chaos-txn"])
    writers = {}
    for r in ops:
        if r["op"] in ("write", "txn_write"):
            writers.setdefault((r["key"], r["value"]), []).append(r)
    reads = {(r["key"], r["result"]) for r in ops
             if r["op"] in ("read", "txn_read") and r["status"] == "ok"}
    committed = {r["txn"] for r in ops
                 if r["op"] == "txn" and r["status"] == "ok"}
    tid = next(ws[0]["txn"] for kv, ws in writers.items()
               if len(ws) == 1 and kv in reads
               and ws[0].get("txn") in committed)
    for r in ops:
        if r.get("txn") == tid:
            r["status"] = "fail"
    assert "txn-atomicity" in _kinds(ops)


def _exclusive_holds(ops):
    """(exclusive acquire, its ok release) pairs, paired as the audit
    pairs them: per client and key, in record order."""
    pending = {}
    for rec in ops:
        who = (rec["client"], rec["key"])
        if rec["op"] == "lock" and rec["status"] == "ok":
            pending[who] = rec
        elif rec["op"] == "unlock" and who in pending:
            acquire = pending.pop(who)
            if rec["status"] == "ok" and acquire["write"]:
                yield acquire, rec


def test_overlapping_exclusive_holds_are_caught(recorded):
    # Move one client's release past another client's later exclusive
    # acquire, so the two holds provably overlap.
    ops = copy.deepcopy(recorded["chaos-partition"])
    unlock, other = next(
        (release, b) for a, release in _exclusive_holds(ops)
        for b in ops if b["op"] == "lock" and b["status"] == "ok"
        and b["write"] and b["key"] == a["key"]
        and b["client"] != a["client"] and b["t1"] > release["t0"])
    unlock["t0"] = other["t1"] + 1
    assert "mutual-exclusion" in _kinds(ops)
