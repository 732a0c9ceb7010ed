"""Falsifiability of the history checker on toy transactional histories.

Mirrors ``test_linearize``: every verdict here is known by inspection.
The checker must *accept* clean serializable chains (including ones that
need an indeterminate transaction woven in) and *reject* the classic
breakages — a stale read between transactions, a dirty read of an aborted
transaction's write, and a half-visible multi-key write-set.
"""

import itertools

from repro.check import check_history

_ids = itertools.count()


def txn(client, tid, keys, t0, t1, status="ok"):
    return {"id": next(_ids), "client": client, "op": "txn", "key": None,
            "txn": tid, "keys": list(keys), "t0": t0, "t1": t1,
            "status": status}


def txn_read(client, tid, key, value, t0, t1):
    return {"id": next(_ids), "client": client, "op": "txn_read", "key": key,
            "txn": tid, "offset": 0, "t0": t0, "t1": t1, "status": "ok",
            "result": value}


def txn_write(client, tid, key, value, t0, t1, status="ok"):
    return {"id": next(_ids), "client": client, "op": "txn_write", "key": key,
            "txn": tid, "offset": 0, "t0": t0, "t1": t1, "status": status,
            "value": value}


def plain(client, kind, key, t0, t1, status="ok", **kw):
    rec = {"id": next(_ids), "client": client, "op": kind, "key": key,
           "t0": t0, "t1": t1, "status": status}
    rec.update(kw)
    return rec


def committed(client, tid, keys, t0, t1, reads=(), writes=()):
    """A committed transaction: spanning record + read/write records."""
    recs = [txn(client, tid, keys, t0, t1)]
    for key, value in reads:
        recs.append(txn_read(client, tid, key, value, t0, t1))
    for key, value in writes:
        recs.append(txn_write(client, tid, key, value, t0, t1))
    return recs


K1, K2, K3 = 0x100, 0x200, 0x300


def test_serializable_chain_passes():
    res = check_history(
        committed("c0", "t1", [K1], 0, 10, writes=[(K1, "a")])
        + committed("c1", "t2", [K1], 20, 30,
                    reads=[(K1, "a")], writes=[(K1, "b")])
        + committed("c0", "t3", [K1], 40, 50, reads=[(K1, "b")]))
    assert res.ok
    assert res.stats["txns"] == 3
    assert res.stats["committed"] == 3
    assert res.stats["components"] == 1
    assert res.stats["undecided"] == []


def test_stale_txn_read_is_rejected_with_minimal_prefix():
    # t2's write completed strictly before t3 began, yet t3 reads t1's
    # older value — the transactional stale read.  t4 on a disjoint key
    # is its own component and must stay out of the counterexample.
    ops = (committed("c0", "t1", [K1], 0, 10, writes=[(K1, "a")])
           + committed("c0", "t2", [K1], 20, 30, writes=[(K1, "b")])
           + committed("c1", "t3", [K1], 40, 50, reads=[(K1, "a")])
           + committed("c1", "t4", [K3], 60, 70, writes=[(K3, "z")]))
    res = check_history(ops)
    assert not res.ok
    (v,) = res.violations
    assert v.kind == "txn-serializability"
    witness_txns = {rec["txn"] for rec in v.ops}
    assert witness_txns == {"t1", "t2", "t3"}
    assert res.stats["components"] == 2


def test_dirty_read_of_aborted_write_is_atomicity_violation():
    recs = [txn("c0", "t1", [K1], 0, 30, status="fail"),
            txn_write("c0", "t1", K1, "dirty", 0, 30, status="fail")]
    recs += committed("c1", "t2", [K1], 10, 20, reads=[(K1, "dirty")])
    res = check_history(recs)
    assert not res.ok
    kinds = {v.kind for v in res.violations}
    assert "txn-atomicity" in kinds
    assert res.stats["aborted"] == 1


def test_indeterminate_txn_may_fill_the_gap():
    # t2's client died mid-commit (info): its durable intent MAY have been
    # rolled forward, so t3 reading its value is legal, not a violation.
    recs = (committed("c0", "t1", [K1], 0, 10, writes=[(K1, "a")])
            + [txn("c1", "t2", [K1], 20, 30, status="info"),
               txn_write("c1", "t2", K1, "b", 20, 30, status="info")]
            + committed("c0", "t3", [K1], 40, 50, reads=[(K1, "b")]))
    res = check_history(recs)
    assert res.ok
    assert res.stats["indeterminate"] == 1


def test_plain_ops_are_singleton_transactions():
    # The plain write on K1 seeds the value a txn later reads (legal).
    # The plain traffic on K2 never meets a transaction: it is a one-key
    # component of singletons, and reading "whatever" after "noise"
    # completed is a stale read on that register.
    recs = ([plain("c0", "write", K1, 0, 10, value="seed"),
             plain("c0", "write", K2, 0, 10, value="noise"),
             plain("c1", "read", K2, 20, 30, result="whatever")]
            + committed("c1", "t1", [K1], 20, 30, reads=[(K1, "seed")]))
    res = check_history(recs)
    assert not res.ok
    (v,) = res.violations  # K1 passes
    assert v.kind == "linearizability"
    assert v.key == K2
    assert res.stats["txns"] == 1  # singletons aren't counted as txns


def test_half_visible_write_set_is_rejected():
    # t1 committed writes to BOTH keys before t2 began; t2 sees the new
    # K1 but the old K2 — exactly the torn multi-key visibility the
    # intent protocol forbids.
    recs = (committed("c0", "t0", [K1, K2], 0, 5,
                      writes=[(K1, "a0"), (K2, "b0")])
            + committed("c0", "t1", [K1, K2], 10, 20,
                        writes=[(K1, "a1"), (K2, "b1")])
            + committed("c1", "t2", [K1, K2], 30, 40,
                        reads=[(K1, "a1"), (K2, "b0")]))
    res = check_history(recs)
    assert not res.ok
    assert res.violations[0].kind == "txn-serializability"


def test_state_cap_exhaustion_is_undecided_not_guessed():
    recs = committed("c0", "t1", [K1], 0, 10,
                     reads=[(K1, "x")], writes=[(K1, "y")])
    res = check_history(recs, max_states=0)
    assert res.ok  # undecided is reported, never inflated to a violation
    assert res.stats["undecided"] == [K1]
