"""Offline consistency checking over a recorded op history.

One model covers every data op.  The history is grouped into *nodes*:
each transaction id is one node (its spanning ``"txn"`` record —
``ok`` = committed, ``fail`` = aborted, ``info``/``pending`` =
indeterminate — plus its ``"txn_read"`` / ``"txn_write"`` records, see
``repro.txn``), and each plain ``read``/``write`` is a singleton node.
Every access is keyed by ``(gaddr, offset)``.

**Atomicity audit** (no search): a read must never observe a value that
only an *aborted* transaction wrote — an aborted or incomplete
transaction leaking even one write is exactly the partial-visibility bug
the intent protocol exists to prevent.

**Strict serializability** (Wing & Gong over whole nodes): the committed
nodes must admit a total order in which every read sees the latest
preceding write to its key, and that order must respect real time — node
*b* after *a* whenever *a* completed before *b* began.  For singleton
nodes on one key this is exactly register linearizability, and
linearizability is local (Herlihy & Wing), so the search runs once per
key-connected component: a key no transaction touches is a one-key
component of singletons.  The search walks prefixes of such orders,
memoizing on (set of placed nodes, store image) so equivalent
interleavings are explored once.

Deliberate soundness choices, all of which *admit* more histories (a
reported violation is always real; some real violations may pass):

* **Indeterminate effects are optional.**  An ``info``/``pending`` write
  or transaction (abandoned attempt, run ended mid-op, commit handed to
  recovery) may have landed at any point from its invocation onward — its
  window is ``[t0, ∞)`` and the search may include or omit it.
* **The initial value is unknown.**  A key's first placed read *binds*
  the initial value rather than being checked against one: the pool hands
  out uninitialized memory, so whatever the first read saw is taken as
  ground truth and later reads must stay consistent with it.
* **Batched reads share one conservative window.**  ``gread_many``
  records each member over the whole batch's window; a wider window only
  adds legal orders.
* A component whose search exhausts the state cap is reported
  "undecided", never silently passed or failed.

What this does NOT prove: a committed write to a key nobody reads again
is unobservable in the history (the chaos soak's byte-level read-back
audit covers that), and reads served from a transaction's own write
buffer are internal and unrecorded.

Lock model (``lock``/``unlock`` per gaddr): two audits that need no
search.  *Mutual exclusion*: a client definitely holds the lock from its
acquire's ``ok`` to its release's invocation; two such definite holds on
one key must not overlap when either is exclusive.  *Epoch monotonicity*:
the fencing epoch a client presents in completed lock ops never
decreases — a zombie re-locking under a retired epoch is exactly the
split-brain the fence exists to stop.

On failure the checker reports the shortest prefix (in completion order)
of the component's committed nodes that already fails — the minimal
counterexample a human (or CI artifact reader) has to stare at.  A
component with no transaction reports ``linearizability`` on its gaddr,
any other ``txn-serializability``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["CheckResult", "Violation", "check_history"]

#: Value of a key before any write or read-binding has been placed.
_UNBOUND = object()

#: Per-component cap on memoized search states; a component that exhausts
#: it is reported "undecided" rather than silently passed or failed.
DEFAULT_MAX_STATES = 200_000

_Key = Tuple[int, int]  # (gaddr, offset)


@dataclass
class Violation:
    """One confirmed consistency violation on one key."""

    key: Optional[int]
    kind: str  # "linearizability" | "txn-serializability" | "txn-atomicity"
               # | "mutual-exclusion" | "epoch-regression"
    detail: str
    ops: List[Dict[str, Any]] = field(default_factory=list)

    def __str__(self) -> str:
        where = f"key={self.key:#x}" if isinstance(self.key, int) else f"key={self.key}"
        return f"{self.kind} violation on {where}: {self.detail} ({len(self.ops)} ops)"


@dataclass
class CheckResult:
    """Outcome of :func:`check_history` over one recorded history."""

    ok: bool
    violations: List[Violation]
    stats: Dict[str, Any]

    def counterexample(self) -> List[Dict[str, Any]]:
        """The first violation's minimal op set (empty when ok)."""
        return self.violations[0].ops if self.violations else []

    def dump_counterexample(self, path: str) -> int:
        """Write the first violation's ops as JSONL (the CI artifact)."""
        import json

        ops = self.counterexample()
        with open(path, "w", encoding="utf-8") as fh:
            if self.violations:
                v = self.violations[0]
                fh.write(json.dumps({
                    "violation": v.kind, "key": v.key, "detail": v.detail,
                }, sort_keys=True) + "\n")
            for rec in ops:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
        return len(ops)


@dataclass
class _Node:
    """One transaction, or one plain read/write as a singleton."""

    client: str = ""
    tid: Optional[str] = None  # None for a singleton
    status: str = "indeterminate"  # committed | aborted | indeterminate
    t0: int = 0
    t1: float = float("inf")
    #: (key, value) pairs in read order.
    reads: List[Tuple[_Key, Any]] = field(default_factory=list)
    writes: Dict[_Key, Any] = field(default_factory=dict)
    recs: List[Dict[str, Any]] = field(default_factory=list)

    def keys(self) -> List[_Key]:
        return list(self.writes) + [key for key, _v in self.reads]


def _key_of(rec: Dict[str, Any]) -> _Key:
    return (rec["key"], rec.get("offset") or 0)


def _collect(ops: List[Dict[str, Any]]
             ) -> Tuple[List[_Node], Dict[int, List[Dict[str, Any]]]]:
    """Group the history into nodes (txn ids + singletons) and lock ops."""
    txns: Dict[str, _Node] = {}
    plain: List[_Node] = []
    locks: Dict[int, List[Dict[str, Any]]] = {}
    for rec in ops:
        op, status = rec["op"], rec["status"]
        if op in ("lock", "unlock") and rec.get("key") is not None:
            locks.setdefault(rec["key"], []).append(rec)
        elif op == "txn":
            node = txns.setdefault(rec["txn"], _Node(tid=rec["txn"]))
            node.client = rec["client"]
            node.t0 = rec["t0"]
            if status == "ok":
                node.status = "committed"
                node.t1 = rec["t1"]
            elif status == "fail":
                node.status = "aborted"
            node.recs.insert(0, rec)
        elif op in ("txn_read", "txn_write"):
            node = txns.setdefault(rec["txn"], _Node(tid=rec["txn"]))
            if op == "txn_write":
                node.writes[_key_of(rec)] = rec.get("value")
            elif status == "ok":
                node.reads.append((_key_of(rec), rec.get("result")))
            node.recs.append(rec)
        elif op in ("read", "write"):
            # A failed/pending read returned nothing and a failed write is
            # a definite no-op: neither constrains anything.
            if status == "fail" or (op == "read" and status != "ok"):
                continue
            node = _Node(client=rec["client"], t0=rec["t0"], recs=[rec])
            if status == "ok":
                node.status = "committed"
                node.t1 = rec["t1"]
            if op == "read":
                node.reads.append((_key_of(rec), rec.get("result")))
            else:
                node.writes[_key_of(rec)] = rec.get("value")
            plain.append(node)
    return list(txns.values()) + plain, locks


# ----------------------------------------------------------------------
# Atomicity: no read may observe an aborted transaction's write
# ----------------------------------------------------------------------
def _check_atomicity(nodes: List[_Node],
                     violations: List[Violation]) -> None:
    aborted_writes: Dict[_Key, Dict[Any, _Node]] = {}
    live_values: Dict[_Key, set] = {}
    for node in nodes:
        for key, value in node.writes.items():
            if node.status == "aborted":
                aborted_writes.setdefault(key, {})[value] = node
            else:
                live_values.setdefault(key, set()).add(value)
    for node in nodes:
        if node.status == "aborted":
            continue
        for key, value in node.reads:
            writer = aborted_writes.get(key, {}).get(value)
            if writer is None or value in live_values.get(key, ()):
                continue
            violations.append(Violation(
                key=key[0], kind="txn-atomicity",
                detail=f"{node.client} read a value of {key[0]:#x} that "
                       f"only aborted transaction {writer.tid} ever wrote "
                       "(a rolled-back write became visible)",
                ops=node.recs + writer.recs))


# ----------------------------------------------------------------------
# Strict serializability: Wing & Gong per key-connected component
# ----------------------------------------------------------------------
def _serializable(required: List[_Node], optional: List[_Node],
                  max_states: int) -> Optional[bool]:
    """True/False, or None when the state cap was exhausted (undecided).

    ``required`` nodes (in completion order) must all be placed;
    ``optional`` (indeterminate) ones may be woven in wherever they help.
    Precedence: node *b* must come after node *a* iff ``a`` is required
    and ``a.t1 < b.t0`` — only completed nodes constrain real time.
    """
    if not required:
        return True
    nodes = required + optional
    n_req = len(required)
    slot: Dict[_Key, int] = {}
    for node in nodes:
        for key in node.keys():
            slot.setdefault(key, len(slot))
    reads = [[(slot[k], v) for k, v in node.reads] for node in nodes]
    writes = [[(slot[k], v) for k, v in node.writes.items()]
              for node in nodes]
    # preds[i]: required nodes whose window closed before i's opened —
    # a prefix of ``required``, which is in completion order.
    ends = [node.t1 for node in required]
    preds = [(1 << bisect_left(ends, node.t0)) - 1 for node in nodes]

    full_req = (1 << n_req) - 1
    seen = set()
    # Depth-first over (done-bitmask over all nodes, store image).  done's
    # low n_req bits are the required nodes; goal: all of them set.
    stack = [(0, 0, (_UNBOUND,) * len(slot))]
    while stack:
        if len(seen) > max_states:
            return None
        done_req, done_all, state = stack.pop()
        if done_req == full_req:
            return True
        if (done_all, state) in seen:
            continue
        seen.add((done_all, state))
        for i in range(len(nodes)):
            bit = 1 << i
            if done_all & bit or preds[i] & ~done_req:
                continue  # placed, or a completed predecessor is unplaced
            # Reads see the store before the node's own writes (a txn's
            # write buffer is local; recorded reads all hit the store).
            new = list(state)
            for s, value in reads[i]:
                if new[s] is _UNBOUND:
                    new[s] = value  # first access is a read: it binds
                elif new[s] != value:
                    break
            else:
                for s, value in writes[i]:
                    new[s] = value
                stack.append((done_req | bit if i < n_req else done_req,
                              done_all | bit, tuple(new)))
    return False


def _minimal_prefix(required: List[_Node], optional: List[_Node],
                    max_states: int) -> List[Dict[str, Any]]:
    """Shortest completion-order prefix of ``required`` that already fails."""
    for k in range(1, len(required) + 1):
        prefix = required[:k]
        horizon = max(node.t1 for node in prefix)
        opt = [node for node in optional if node.t0 <= horizon]
        if _serializable(prefix, opt, max_states) is False:
            return [rec for node in prefix + opt for rec in node.recs]
    # Cap interference; fall back to everything.
    return [rec for node in required + optional for rec in node.recs]


def _components(nodes: List[_Node]) -> List[Tuple[int, List[_Node]]]:
    """Partition nodes into key-connected components, each named by its
    lowest gaddr and in that order; disjoint components serialize
    independently (locality), which keeps each search small."""
    parent: Dict[_Key, _Key] = {}

    def find(x: _Key) -> _Key:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for node in nodes:
        first, *rest = node.keys()
        for key in rest:
            parent[find(key)] = find(first)
    comps: Dict[_Key, List[_Node]] = {}
    for node in nodes:
        comps.setdefault(find(node.keys()[0]), []).append(node)
    lowest: Dict[_Key, _Key] = {}
    for key in sorted(parent):
        lowest.setdefault(find(key), key)
    return [(lowest[root][0], comps[root])
            for root in sorted(comps, key=lowest.__getitem__)]


# ----------------------------------------------------------------------
# Lock model: mutual exclusion + fencing-epoch monotonicity
# ----------------------------------------------------------------------
def _check_lock_key(key: int, ops: List[Dict[str, Any]],
                    violations: List[Violation]) -> None:
    by_client: Dict[str, List[Dict[str, Any]]] = {}
    for rec in ops:
        by_client.setdefault(rec["client"], []).append(rec)

    # Epoch monotonicity per client: completed lock-plane ops never carry
    # an epoch lower than one this client already presented.
    for client, recs in by_client.items():
        last: Optional[Tuple[int, Dict[str, Any]]] = None
        for rec in recs:
            if rec["status"] != "ok" or "epoch" not in rec:
                continue
            if last is not None and rec["epoch"] < last[0]:
                violations.append(Violation(
                    key=key, kind="epoch-regression",
                    detail=f"{client} completed a lock op under epoch "
                           f"{rec['epoch']} after presenting epoch {last[0]}",
                    ops=[last[1], rec]))
            last = (rec["epoch"], rec)

    # Definite holds: [acquire.ok .. release.invoke] per client.  An
    # acquire with no later release collapses to a point — the lock may
    # have been recovered from a crashed holder at an unknown time, so
    # nothing past the ok instant is provable.  A release that *failed*
    # (fenced zombie, lapsed lease) collapses the same way: the failure
    # means the master already took the lock back at some unknown earlier
    # instant, so the release's invocation time proves nothing.
    holds: List[Tuple[int, float, bool, Dict[str, Any]]] = []
    for client, recs in by_client.items():
        pending: Optional[Dict[str, Any]] = None
        for rec in recs:
            if rec["op"] == "lock" and rec["status"] == "ok":
                pending = rec
            elif rec["op"] == "unlock" and pending is not None:
                end = rec["t0"] if rec["status"] == "ok" else pending["t1"]
                holds.append((pending["t1"], end,
                              bool(pending.get("write", True)), pending))
                pending = None
        if pending is not None:
            holds.append((pending["t1"], pending["t1"],
                          bool(pending.get("write", True)), pending))

    holds.sort(key=lambda hold: hold[:3])  # tied holds must not compare dicts
    for i in range(len(holds)):
        s_i, e_i, w_i, a_i = holds[i]
        for j in range(i + 1, len(holds)):
            s_j, e_j, w_j, a_j = holds[j]
            if s_j >= e_i:
                break  # sorted by start: no later hold can overlap i
            if a_i["client"] == a_j["client"] or not (w_i or w_j):
                continue  # re-entrant same client / two shared holds
            violations.append(Violation(
                key=key, kind="mutual-exclusion",
                detail=f"{a_i['client']} and {a_j['client']} provably held "
                       f"the lock simultaneously "
                       f"([{s_i}, {e_i}] vs [{s_j}, {e_j}] ns)",
                ops=[a_i, a_j]))


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def check_history(ops: List[Dict[str, Any]],
                  max_states: int = DEFAULT_MAX_STATES) -> CheckResult:
    """Audit one recorded history; see the module docstring for models."""
    nodes, locks = _collect(ops)
    violations: List[Violation] = []
    _check_atomicity(nodes, violations)

    components = _components([n for n in nodes if n.status != "aborted"
                              and (n.reads or n.writes)])
    undecided: List[int] = []
    for gaddr, comp in components:
        required = sorted((n for n in comp if n.status == "committed"),
                          key=lambda node: (node.t1, node.t0))
        optional = [n for n in comp if n.status == "indeterminate"]
        verdict = _serializable(required, optional, max_states)
        if verdict is None:
            undecided.append(gaddr)
        elif verdict is False:
            witness = _minimal_prefix(required, optional, max_states)
            if any(n.tid is not None for n in comp):
                violations.append(Violation(
                    key=None, kind="txn-serializability",
                    detail="no strict-serializable order of the committed "
                           "transactions exists within their real-time "
                           "windows", ops=witness))
            else:
                violations.append(Violation(
                    key=gaddr, kind="linearizability",
                    detail="no valid linearization of the completed "
                           "reads/writes exists within their real-time "
                           "windows", ops=witness))
    for key in sorted(locks):
        _check_lock_key(key, locks[key], violations)

    txns = [n for n in nodes if n.tid is not None]
    stats = {
        "ops": len(ops),
        "components": len(components),
        "undecided": undecided,
        "lock_keys": len(locks),
        "txns": len(txns),
        **{status: sum(n.status == status for n in txns)
           for status in ("committed", "aborted", "indeterminate")},
        "violations": len(violations),
    }
    return CheckResult(ok=not violations, violations=violations, stats=stats)
