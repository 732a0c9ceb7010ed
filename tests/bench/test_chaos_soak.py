"""The chaos soak harness: every scenario row is green and bit-identical.

"Green" is one thing only — the report's ``violations`` list is empty and
two identically seeded runs agree — so every expectation a row has lives in
``bench/chaos.py`` as a violation, and the sabotage test below shows that
each one fires when its precondition is broken.

Each row's compared fields are also pinned (``tests/data/
chaos_rows_golden.json``): a change that claims no behaviour change leaves
every row byte-identical.  The golden moves only through ``PYTHONPATH=src
python -m tests.bench.test_chaos_soak --recapture "REASON"``, which records
why in its ``recaptured`` list.
"""

import argparse
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.bench import chaos
from repro.bench.chaos import (
    COMPARED_FIELDS,
    SCENARIOS,
    ChaosSoak,
    run_soak,
    soak_config,
    soak_plan,
)
from repro.core import RetryPolicy
from repro.faults import FaultPlan, RingStall, ServerCrash

ROWS = [(name, seed) for name, row in SCENARIOS.items() for seed in row.seeds]

GOLDEN_PATH = (Path(__file__).resolve().parents[1] / "data"
               / "chaos_rows_golden.json")


def _compared(report):
    """A report's compared fields, as the golden stores them."""
    return json.loads(json.dumps({k: report[k] for k in COMPARED_FIELDS}))


@pytest.mark.parametrize("scenario,seed", ROWS)
def test_scenario_row_is_green_and_repeats(scenario, seed, tmp_path):
    # The history and any counterexample land under pytest's basetemp,
    # which CI uploads when the suite fails.
    first = run_soak(scenario, seed=seed, smoke=True, dump_trace=True,
                     history_out=str(tmp_path / "history.jsonl"),
                     counterexample_out=str(tmp_path / "counterexample.jsonl"))
    assert first["violations"] == [], first["trace"]
    golden = json.loads(GOLDEN_PATH.read_text())["rows"][f"{scenario}@{seed}"]
    assert _compared(first) == golden
    second = run_soak(scenario, seed=seed, smoke=True)
    assert ({k: first[k] for k in COMPARED_FIELDS}
            == {k: second[k] for k in COMPARED_FIELDS})


def _skip_phase(monkeypatch, scenario):
    """The row's phase never runs, so nothing it must move moves."""
    monkeypatch.setitem(SCENARIOS, scenario,
                        replace(SCENARIOS[scenario], phase=lambda soak: None))


def _idle_rounds(monkeypatch, scenario):
    """The phase runs but its nemesis rounds inject and drive nothing."""
    monkeypatch.setattr(ChaosSoak, "_nemesis_round",
                        lambda self, *args, **kwargs: None)


def _empty_plan(monkeypatch, scenario):
    monkeypatch.setattr(chaos, "soak_plan",
                        lambda t0, smoke=False: FaultPlan.of())


def _full_pools(monkeypatch, scenario):
    """Every receive pool reports itself exactly full."""
    from repro.rdma.rpc import RpcServer

    real = RpcServer.pool_stats

    def pool_stats(self):
        stats = real(self)
        stats["capacity"] = stats["qps"]
        return stats

    monkeypatch.setattr(RpcServer, "pool_stats", pool_stats)


def _forced_direct_writes(monkeypatch, scenario):
    """Every write goes one-sided to NVM, as a proxy-off client's would."""
    from repro.core.ring import ClientRing

    def direct(self, gaddr, offset, data, span_op=0):
        client = self.client
        meta = client._metas.get(gaddr)
        if meta is None:
            meta = yield from client._metas.lookup(gaddr, span_op=span_op)
        yield from client._direct_write(self.conn, gaddr, meta, offset, data,
                                        span_op=span_op)
        client.m_direct_writes.add(len(data))

    monkeypatch.setattr(ClientRing, "stage", direct)


def _words_never_freed(monkeypatch, scenario):
    """Recovery clears no lock word: every ``recover_dead`` names none."""
    from repro.core.server import MemoryServer

    real = MemoryServer._handle_recover_dead

    def handler(self, request):
        return real(self, dict(request, lock_idxs=()))

    monkeypatch.setattr(MemoryServer, "_handle_recover_dead", handler)


def _torn_frames_applied(monkeypatch, scenario):
    """The drain's commit-word check passes every frame, torn or whole."""
    from repro.core import server

    class Matches(bytes):
        def __ne__(self, other):  # runs first: a bytes subclass on the right
            return False

    monkeypatch.setattr(server, "pack_commit_word",
                        lambda seq, frame: Matches())


def _moves(scenario):
    row = SCENARIOS[scenario]
    return [f"{scenario}: {name} moved by 0"
            for name in {**row.exactly, **row.at_least}]


@pytest.mark.parametrize("scenario,sabotage,expected", [
    ("base", _empty_plan, ["base: faults.crashes moved by 0",
                           "base: faults.recoveries moved by 0"]),
    ("crash-tolerance", _skip_phase, _moves("crash-tolerance")),
    ("crash-tolerance", _words_never_freed,
     ["crash-tolerance: wait check: the dead client's lock word was never "
      "freed"]),
    ("crash-tolerance", _torn_frames_applied,
     ["crash-tolerance: value check: "]),
    ("chaos-partition", _idle_rounds,
     _moves("chaos-partition")
     + ["nemesis: two failovers left the master at term 1, below 3"]),
    ("chaos-fanout", _full_pools,
     ["fanout: master has no spare receive slot"]),
    ("chaos-txn", _skip_phase, _moves("chaos-txn")),
    ("chaos-shard", _idle_rounds, _moves("chaos-shard")),
    ("base", _forced_direct_writes, ["proxy: "]),
])
def test_every_expectation_fires_when_its_precondition_breaks(
        monkeypatch, scenario, sabotage, expected):
    sabotage(monkeypatch, scenario)
    violations = run_soak(scenario, seed=SCENARIOS[scenario].seeds[0],
                          smoke=True)["violations"]
    for prefix in expected:
        assert any(v.startswith(prefix) for v in violations), (
            prefix, violations)


@pytest.mark.parametrize("scenario,seed", [("chaos-txn", 13),
                                           ("crash-tolerance", 7)])
def test_row_stays_green_with_the_failure_detector_armed(
        monkeypatch, scenario, seed):
    row = SCENARIOS[scenario]
    monkeypatch.setitem(SCENARIOS, scenario, replace(
        row, config=dict(row.config, failure_detector=True)))
    assert run_soak(scenario, seed=seed, smoke=True)["violations"] == []


def test_smoke_soak_upholds_the_durability_contract():
    report = run_soak(seed=7, smoke=True)
    assert report["violations"] == []
    assert report["ops_ok"] > 0
    assert report["counters"]["fabric_dropped"] > 0  # the lossy window bit


def test_smoke_soak_is_bit_identical_across_runs(tmp_path, capsys):
    """The CLI's own double run: ``--check-determinism`` is what a person
    reproducing a row types, so it has to agree with the test above."""
    out = tmp_path / "chaos.json"
    assert chaos.main(["--seed", "7", "--smoke", "--check-determinism",
                       "--out", str(out)]) == 0
    assert "determinism: identical across two runs" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["scenario"] == "base" and doc["violations"] == []


def test_different_seeds_change_the_traffic_not_the_contract():
    report = run_soak(seed=11, smoke=True)
    assert report["violations"] == []


def test_soak_profile_is_resilient():
    config = soak_config()
    assert RetryPolicy.from_config(config).max_attempts > 1
    assert config.op_deadline_ns > 0


def test_soak_plan_schedules_a_stall_before_the_first_crash():
    plan = soak_plan(t0=0)
    timed = plan.timed
    first_stall = next(f for f in timed if isinstance(f, RingStall))
    first_crash = next(f for f in timed if isinstance(f, ServerCrash))
    # The stall freezes drains so the crash catches staged writes in the
    # ring — the lost-write reporting path the soak exists to exercise.
    assert first_stall.at_ns < first_crash.at_ns
    assert first_stall.server_id == first_crash.server_id


def test_fanout_victims_inject_nothing_after_their_crash(monkeypatch):
    """A dead client sends nothing: across the chaos-fanout row, no victim
    puts a request on the wire after its crash instant.  Requests go
    through ``Fabric.inject``; responses through ``unicast``, which is
    rerouted here so that only requests are counted."""
    from repro.core.client import GengarClient
    from repro.hardware.network import Fabric

    order = []  # ("crash" | "inject", sim, node), in execution order
    inject, crash = Fabric.inject, GengarClient.crash

    def counting_inject(self, src, dst, nbytes):
        order.append(("inject", self.sim, src))
        return (yield from inject(self, src, dst, nbytes))

    def uncounted_unicast(self, src, dst, nbytes):
        flight_ns = None
        while flight_ns is None:  # None: dropped, so retransmit
            flight_ns = yield from inject(self, src, dst, nbytes)
        yield flight_ns

    def noting_crash(self):
        order.append(("crash", self.sim, self.name))
        crash(self)

    monkeypatch.setattr(Fabric, "inject", counting_inject)
    monkeypatch.setattr(Fabric, "unicast", uncounted_unicast)
    monkeypatch.setattr(GengarClient, "crash", noting_crash)
    assert run_soak("chaos-fanout", seed=7, smoke=True)["violations"] == []

    dead = set()
    after_crash = 0
    for kind, sim, node in order:
        if kind == "crash":
            dead.add((sim, node))
        elif (sim, node) in dead:
            after_crash += 1
    assert len(dead) == 8  # a quarter of the 32-client fanout
    assert after_crash == 0


def recapture(reason: str) -> None:
    """Rewrite the golden from this tree.  A move appends the reason and the
    rows that moved to its ``recaptured`` list."""
    old = (json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists()
           else {"rows": {}, "recaptured": []})
    rows = {f"{name}@{seed}": _compared(run_soak(name, seed=seed, smoke=True))
            for name, seed in ROWS}
    if rows == old["rows"]:
        print(f"{GOLDEN_PATH.name}: unchanged")
        return
    moved = sorted(k for k in rows if old["rows"].get(k) != rows[k])
    doc = {"rows": rows,
           "recaptured": old["recaptured"] + [{"reason": reason,
                                               "moved": moved}]}
    GOLDEN_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"{GOLDEN_PATH.name}: moved {', '.join(moved)}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Re-capture the chaos-row golden")
    parser.add_argument("--recapture", metavar="REASON", required=True,
                        help="why the rows moved, kept in the golden")
    recapture(parser.parse_args().recapture)
