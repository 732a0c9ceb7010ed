"""Differential test of the history checker's one search against brute force.

Hypothesis draws small histories — at most six nodes on one or two keys,
each a plain read/write or a transaction, some of them indeterminate
(``info``) — and the verdict of :func:`check_history` must equal that of
an oracle that tries every order of the committed nodes plus every subset
of the indeterminate ones, keeps the orders that respect real time, and
replays each against a store whose keys start unbound (a key's first read
binds its initial value).  The oracle searches the whole history at once,
so it also checks the checker's split into key-connected components.
"""

import itertools
from typing import Any, Dict, List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import check_history

KEYS = (0x10, 0x20)
VALUES = ("a", "b", "c")
INF = float("inf")


@st.composite
def _node(draw, keys):
    t0 = draw(st.integers(0, 20))
    t1 = t0 + draw(st.integers(0, 10))
    info = draw(st.booleans()) and draw(st.booleans())  # ~1 in 4
    value = st.sampled_from(VALUES)
    if draw(st.booleans()):  # plain op
        key = draw(st.sampled_from(keys))
        if draw(st.booleans()):  # a read returned something: never info
            return {"t0": t0, "t1": t1, "info": False, "txn": False,
                    "reads": [(key, draw(value))], "writes": {}}
        return {"t0": t0, "t1": t1, "info": info, "txn": False,
                "reads": [], "writes": {key: draw(value)}}
    reads = [(k, draw(value)) for k in keys if draw(st.booleans())]
    writes = {k: draw(value) for k in keys if draw(st.booleans())}
    if not reads and not writes:
        writes = {keys[0]: draw(value)}
    return {"t0": t0, "t1": t1, "info": info, "txn": True,
            "reads": reads, "writes": writes}


@st.composite
def _histories(draw):
    keys = KEYS[:draw(st.integers(1, 2))]
    return draw(st.lists(_node(keys), min_size=1, max_size=6))


def _records(nodes: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The recorder's JSON form of ``nodes``."""
    recs: List[Dict[str, Any]] = []

    def add(**rec):
        rec.setdefault("client", f"c{len(recs) % 3}")
        recs.append(dict(rec, id=len(recs)))

    for n, node in enumerate(nodes):
        win = {"t0": node["t0"], "t1": node["t1"],
               "status": "info" if node["info"] else "ok"}
        if not node["txn"]:
            if node["reads"]:
                ((key, value),) = node["reads"]
                add(op="read", key=key, result=value, **win)
            else:
                ((key, value),) = node["writes"].items()
                add(op="write", key=key, value=value, **win)
            continue
        tid = f"t{n}"
        add(op="txn", key=None, txn=tid, **win)
        for key, value in node["reads"]:
            add(op="txn_read", key=key, txn=tid, offset=0, result=value,
                t0=node["t0"], t1=node["t1"], status="ok")
        for key, value in node["writes"].items():
            add(op="txn_write", key=key, txn=tid, offset=0, value=value,
                **win)
    return recs


def _legal(order: List[Dict[str, Any]]) -> bool:
    for i, a in enumerate(order):
        for b in order[i + 1:]:
            # b placed after a, yet a provably began after b completed.
            if not b["info"] and b["t1"] < a["t0"]:
                return False
    store: Dict[int, Any] = {}
    for node in order:
        for key, value in node["reads"]:
            if store.setdefault(key, value) != value:
                return False
        store.update(node["writes"])
    return True


def _oracle(nodes: List[Dict[str, Any]]) -> bool:
    required = [n for n in nodes if not n["info"]]
    optional = [n for n in nodes if n["info"]]
    for k in range(len(optional) + 1):
        for chosen in itertools.combinations(optional, k):
            for order in itertools.permutations(required + list(chosen)):
                if _legal(list(order)):
                    return True
    return False


@given(nodes=_histories())
@settings(max_examples=150, deadline=None)
def test_checker_verdict_matches_brute_force(nodes):
    res = check_history(_records(nodes))
    assert res.stats["undecided"] == []
    assert res.ok == _oracle(nodes), res.violations
    kinds = {v.kind for v in res.violations}
    assert kinds <= {"linearizability", "txn-serializability"}
