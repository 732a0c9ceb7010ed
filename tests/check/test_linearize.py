"""Falsifiability of the linearizability checker on toy histories.

The checker is only worth trusting if it *rejects* broken histories: every
test here hand-builds a minimal history whose verdict is known by
inspection, including the classic stale read, the failed-unlock collapse,
and the epoch-regression zombie.  A checker bug that silently passes
everything would fail half this file.
"""

import pytest

from repro.check import CheckResult, check_history
from repro.check.linearize import Violation


def op(client, kind, key, t0, t1, status="ok", **kw):
    rec = {"id": 0, "client": client, "op": kind, "key": key,
           "t0": t0, "t1": t1, "status": status}
    rec.update(kw)
    return rec


# ----------------------------------------------------------------------
# Register model
# ----------------------------------------------------------------------
def test_clean_register_history_passes():
    res = check_history([
        op("c0", "write", 0x10, 0, 10, value="a"),
        op("c1", "read", 0x10, 20, 30, result="a"),
        op("c0", "write", 0x10, 40, 50, value="b"),
        op("c1", "read", 0x10, 60, 70, result="b"),
    ])
    assert res.ok
    assert res.stats["components"] == 1
    assert res.stats["undecided"] == []


def test_stale_read_is_rejected():
    # b completed strictly before the read began; reading the older a back
    # is the textbook non-linearizable history.
    res = check_history([
        op("c0", "write", 0x10, 0, 10, value="a"),
        op("c0", "write", 0x10, 20, 30, value="b"),
        op("c1", "read", 0x10, 40, 50, result="a"),
    ])
    assert not res.ok
    (v,) = res.violations
    assert v.kind == "linearizability"
    assert v.key == 0x10
    # The minimal counterexample is the whole 3-op prefix: any shorter
    # prefix is trivially linearizable.
    assert len(v.ops) == 3


def test_concurrent_write_makes_the_same_read_legal():
    # Same values, but the read overlaps write b: b may linearize after it.
    res = check_history([
        op("c0", "write", 0x10, 0, 10, value="a"),
        op("c0", "write", 0x10, 20, 60, value="b"),
        op("c1", "read", 0x10, 40, 50, result="a"),
    ])
    assert res.ok


def test_first_read_binds_the_unknown_initial_value():
    # The pool hands out uninitialized memory: two consistent reads of an
    # unwritten key pass, an inconsistent pair fails.
    assert check_history([
        op("c0", "read", 0x10, 0, 10, result="x"),
        op("c1", "read", 0x10, 20, 30, result="x"),
    ]).ok
    res = check_history([
        op("c0", "read", 0x10, 0, 10, result="x"),
        op("c1", "read", 0x10, 20, 30, result="y"),
    ])
    assert not res.ok


def test_indeterminate_write_may_have_landed():
    # The info write's effect is optional: a later read of either value
    # passes, because the abandoned attempt may or may not have landed.
    base = [op("c0", "write", 0x10, 0, 10, value="a"),
            op("c0", "write", 0x10, 20, None, status="info", value="b")]
    assert check_history(base + [op("c1", "read", 0x10, 40, 50, result="b")]).ok
    assert check_history(base + [op("c1", "read", 0x10, 40, 50, result="a")]).ok


def test_failed_write_is_a_definite_no_op():
    res = check_history([
        op("c0", "write", 0x10, 0, 10, value="a"),
        op("c0", "write", 0x10, 20, 30, status="fail", value="b"),
        op("c1", "read", 0x10, 40, 50, result="b"),
    ])
    assert not res.ok  # nothing ever (definitely or maybe) wrote b


def test_keys_are_checked_independently():
    res = check_history([
        op("c0", "write", 0x10, 0, 10, value="a"),
        op("c1", "read", 0x10, 20, 30, result="a"),
        op("c0", "write", 0x20, 0, 10, value="a"),
        op("c0", "write", 0x20, 20, 30, value="b"),
        op("c1", "read", 0x20, 40, 50, result="a"),
    ])
    assert not res.ok
    assert [v.key for v in res.violations] == [0x20]


def test_state_cap_reports_undecided_not_pass():
    # Sixteen pairwise-concurrent writes + a read explode the search; with
    # a one-state budget the key must surface as undecided, never as a
    # silent pass or a fabricated violation.
    ops = [op("c0", "write", 0x10, 0, 1000, value=f"v{i}") for i in range(16)]
    ops.append(op("c1", "read", 0x10, 0, 1000, result="v3"))
    res = check_history(ops, max_states=1)
    assert res.ok and not res.violations
    assert res.stats["undecided"] == [0x10]


# ----------------------------------------------------------------------
# Lock model
# ----------------------------------------------------------------------
def test_clean_lock_history_passes():
    res = check_history([
        op("c0", "lock", 0x10, 0, 10, write=True, epoch=0),
        op("c0", "unlock", 0x10, 20, 30, write=True, epoch=0),
        op("c1", "lock", 0x10, 40, 50, write=True, epoch=0),
        op("c1", "unlock", 0x10, 60, 70, write=True, epoch=0),
    ])
    assert res.ok
    assert res.stats["lock_keys"] == 1


def test_overlapping_exclusive_holds_are_rejected():
    # c0 provably holds [10, 100]; c1 provably holds [50, 60] inside it.
    res = check_history([
        op("c0", "lock", 0x10, 0, 10, write=True, epoch=0),
        op("c1", "lock", 0x10, 40, 50, write=True, epoch=0),
        op("c1", "unlock", 0x10, 60, 70, write=True, epoch=0),
        op("c0", "unlock", 0x10, 100, 110, write=True, epoch=0),
    ])
    assert not res.ok
    (v,) = res.violations
    assert v.kind == "mutual-exclusion"
    assert {rec["client"] for rec in v.ops} == {"c0", "c1"}


def test_two_shared_holds_may_overlap():
    res = check_history([
        op("c0", "lock", 0x10, 0, 10, write=False, epoch=0),
        op("c1", "lock", 0x10, 40, 50, write=False, epoch=0),
        op("c1", "unlock", 0x10, 60, 70, write=False, epoch=0),
        op("c0", "unlock", 0x10, 100, 110, write=False, epoch=0),
    ])
    assert res.ok


def test_tied_shared_holds_pass():
    # Two shared holds with the same start, end and mode: the audit must
    # order them without comparing their records.
    res = check_history([
        op("c0", "lock", 0x10, 0, 10, write=False, epoch=0),
        op("c1", "lock", 0x10, 0, 10, write=False, epoch=0),
        op("c0", "unlock", 0x10, 20, 30, write=False, epoch=0),
        op("c1", "unlock", 0x10, 20, 30, write=False, epoch=0),
    ])
    assert res.ok


def test_tied_exclusive_holds_are_rejected():
    res = check_history([
        op("c0", "lock", 0x10, 0, 10, write=True, epoch=0),
        op("c1", "lock", 0x10, 0, 10, write=True, epoch=0),
        op("c0", "unlock", 0x10, 20, 30, write=True, epoch=0),
        op("c1", "unlock", 0x10, 20, 30, write=True, epoch=0),
    ])
    assert not res.ok
    (v,) = res.violations
    assert v.kind == "mutual-exclusion"
    assert {rec["client"] for rec in v.ops} == {"c0", "c1"}


def test_failed_unlock_collapses_the_hold_to_a_point():
    # c0's release FAILED (fenced zombie): the master may have recovered
    # the lock any time after the acquire, so c0's hold proves nothing
    # past its ok instant and c1's overlapping hold is legal.
    res = check_history([
        op("c0", "lock", 0x10, 0, 10, write=True, epoch=0),
        op("c1", "lock", 0x10, 40, 50, write=True, epoch=1),
        op("c1", "unlock", 0x10, 60, 70, write=True, epoch=1),
        op("c0", "unlock", 0x10, 100, 110, status="fail",
           write=True, epoch=0),
    ])
    assert res.ok


def test_epoch_regression_is_rejected():
    # A zombie completing a lock op under a retired epoch is exactly the
    # split-brain the fence exists to stop.
    res = check_history([
        op("c0", "lock", 0x10, 0, 10, write=True, epoch=2),
        op("c0", "unlock", 0x10, 20, 30, write=True, epoch=2),
        op("c0", "lock", 0x10, 40, 50, write=True, epoch=1),
    ])
    assert not res.ok
    (v,) = res.violations
    assert v.kind == "epoch-regression"


# ----------------------------------------------------------------------
# Result plumbing
# ----------------------------------------------------------------------
def test_counterexample_dump_roundtrip(tmp_path):
    res = check_history([
        op("c0", "write", 0x10, 0, 10, value="a"),
        op("c0", "write", 0x10, 20, 30, value="b"),
        op("c1", "read", 0x10, 40, 50, result="a"),
    ])
    assert isinstance(res, CheckResult) and not res.ok
    path = tmp_path / "cex.jsonl"
    n = res.dump_counterexample(str(path))
    lines = path.read_text().strip().splitlines()
    assert len(lines) == n + 1  # header line + one line per op
    import json

    header = json.loads(lines[0])
    assert header["violation"] == "linearizability"
    assert header["key"] == 0x10


def test_violation_str_names_key_and_kind():
    v = Violation(key=0x10, kind="mutual-exclusion", detail="d", ops=[{}, {}])
    assert "mutual-exclusion" in str(v)
    assert "0x10" in str(v)
    assert "2 ops" in str(v)


def test_empty_and_keyless_histories_pass():
    assert check_history([]).ok
    assert check_history([op("c0", "sync", None, 0, 10)]).ok


def test_pending_read_constrains_nothing():
    res = check_history([
        op("c0", "write", 0x10, 0, 10, value="a"),
        op("c1", "read", 0x10, 20, None, status="pending", result="zzz"),
        op("c1", "read", 0x10, 40, 50, result="a"),
    ])
    assert res.ok
