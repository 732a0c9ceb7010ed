"""Offline linearizability checking over a recorded op history.

Register model (``read``/``write`` per gaddr): the classic Wing & Gong
search.  A history is linearizable iff every completed op can be assigned
a single *linearization point* inside its ``[t0, t1]`` real-time window
such that each read returns the latest preceding write.  The search walks
prefixes of such assignments, memoizing on (set of linearized ops,
register value) so equivalent interleavings are explored once.

Three deliberate soundness choices, all of which *admit* more histories
(a reported violation is always real; some real violations may pass):

* **Indeterminate writes are optional.**  An ``info``/``pending`` write
  (abandoned attempt, run ended mid-op) may have landed at any point from
  its invocation onward — its window is ``[t0, ∞)`` and the search may
  include or omit it.
* **The initial value is unknown.**  A register's first linearized read
  *binds* the initial value rather than being checked against one: the
  pool hands out uninitialized memory, so whatever the first read saw is
  taken as ground truth and later reads must stay consistent with it.
* **Batched reads share one conservative window.**  ``gread_many``
  records each member over the whole batch's window; a wider window only
  adds legal linearization points.

Lock model (``lock``/``unlock`` per gaddr): two audits that need no
search.  *Mutual exclusion*: a client definitely holds the lock from its
acquire's ``ok`` to its release's invocation; two such definite holds on
one key must not overlap when either is exclusive.  *Epoch monotonicity*:
the fencing epoch a client presents in completed lock ops never
decreases — a zombie re-locking under a retired epoch is exactly the
split-brain the fence exists to stop.

On failure the checker reports the shortest prefix (in completion order)
of the key's required ops that is itself non-linearizable — the minimal
counterexample a human (or CI artifact reader) has to stare at.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["CheckResult", "Violation", "check_history"]

#: Register value before any write or read-binding has been linearized.
_UNBOUND = object()

#: Per-key cap on memoized search states; a key that exhausts it is
#: reported "undecided" rather than silently passed or failed.
DEFAULT_MAX_STATES = 200_000


@dataclass
class Violation:
    """One confirmed consistency violation on one key."""

    key: Optional[int]
    kind: str           # "linearizability" | "mutual-exclusion" | "epoch-regression"
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


# ----------------------------------------------------------------------
# Register model: per-key Wing & Gong search
# ----------------------------------------------------------------------
def _window(rec: Dict[str, Any]) -> Tuple[int, float]:
    """Real-time window an op's linearization point must fall in."""
    t1 = rec.get("t1")
    if rec["status"] in ("info", "pending") or t1 is None:
        return rec["t0"], float("inf")
    return rec["t0"], t1


def _linearizable(required: List[Dict[str, Any]],
                  optional: List[Dict[str, Any]],
                  max_states: int) -> Optional[bool]:
    """True/False, or None when the state cap was exhausted (undecided).

    ``required`` ops must all be linearized; ``optional`` (indeterminate
    writes) may be woven in wherever they help.  Precedence: op *b* must
    come after op *a* iff ``a`` is required and ``a.t1 < b.t0`` — only
    completed ops constrain real time.
    """
    ops = required + optional
    n_req = len(required)
    if not required:
        return True
    windows = [_window(rec) for rec in ops]
    values = [
        rec.get("result") if rec["op"] == "read" else rec.get("value")
        for rec in ops
    ]
    # preds[i]: required ops whose window closed before i's opened.
    preds: List[int] = []
    for i, rec in enumerate(ops):
        mask = 0
        for j in range(n_req):
            if i != j and windows[j][1] < windows[i][0]:
                mask |= 1 << j
        preds.append(mask)

    full_req = (1 << n_req) - 1
    seen = set()
    # Depth-first over (done-bitmask over all ops, register value).
    # done's low n_req bits are the required ops; goal: all of them set.
    stack = [(0, 0, _UNBOUND)]
    while stack:
        if len(seen) > max_states:
            return None
        done_req, done_all, val = stack.pop()
        if done_req == full_req:
            return True
        key = (done_all, val if val is not _UNBOUND else _UNBOUND)
        if key in seen:
            continue
        seen.add(key)
        for i, rec in enumerate(ops):
            bit = 1 << i
            if done_all & bit:
                continue
            if (preds[i] & ~done_req) & full_req:
                continue  # a completed predecessor is not linearized yet
            if rec["op"] == "read":
                if val is _UNBOUND:
                    # First linearized access is a read: it *binds* the
                    # (unknown) initial value.
                    stack.append((done_req | bit, done_all | bit, values[i]))
                elif values[i] == val:
                    stack.append((done_req | bit, done_all | bit, val))
            else:  # write
                new_req = done_req | bit if i < n_req else done_req
                stack.append((new_req, done_all | bit, values[i]))
    return False


def _minimal_prefix(required: List[Dict[str, Any]],
                    optional: List[Dict[str, Any]],
                    max_states: int) -> List[Dict[str, Any]]:
    """Shortest completion-order prefix of ``required`` that already fails."""
    for k in range(1, len(required) + 1):
        prefix = required[:k]
        horizon = max(_window(rec)[1] for rec in prefix)
        opt = [rec for rec in optional if rec["t0"] <= horizon]
        if _linearizable(prefix, opt, max_states) is False:
            return prefix + opt
    return required + optional  # cap interference; fall back to everything


def _check_register_key(key: int, ops: List[Dict[str, Any]],
                        max_states: int,
                        violations: List[Violation]) -> Optional[str]:
    required: List[Dict[str, Any]] = []
    optional: List[Dict[str, Any]] = []
    for rec in ops:
        if rec["op"] == "read":
            if rec["status"] == "ok":
                required.append(rec)
            # failed/pending reads returned nothing: no constraint
        elif rec["op"] == "write":
            if rec["status"] == "ok":
                required.append(rec)
            elif rec["status"] in ("info", "pending"):
                optional.append(rec)
            # failed writes are definite no-ops
    required.sort(key=lambda rec: (_window(rec)[1], rec["t0"]))
    verdict = _linearizable(required, optional, max_states)
    if verdict is None:
        return "undecided"
    if verdict is False:
        witness = _minimal_prefix(required, optional, max_states)
        violations.append(Violation(
            key=key, kind="linearizability",
            detail="no valid linearization of the completed reads/writes "
                   "exists within their real-time windows",
            ops=witness))
    return None


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

    holds.sort()
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
    registers: Dict[int, List[Dict[str, Any]]] = {}
    locks: Dict[int, List[Dict[str, Any]]] = {}
    for rec in ops:
        key = rec.get("key")
        if key is None:
            continue  # sync and other keyless ops don't bind to a model
        if rec["op"] in ("read", "write"):
            registers.setdefault(key, []).append(rec)
        elif rec["op"] in ("lock", "unlock"):
            locks.setdefault(key, []).append(rec)

    violations: List[Violation] = []
    undecided: List[int] = []
    for key in sorted(registers):
        if _check_register_key(key, registers[key], max_states,
                               violations) == "undecided":
            undecided.append(key)
    for key in sorted(locks):
        _check_lock_key(key, locks[key], violations)

    stats = {
        "ops": len(ops),
        "register_keys": len(registers),
        "lock_keys": len(locks),
        "undecided_keys": undecided,
        "violations": len(violations),
    }
    return CheckResult(ok=not violations, violations=violations, stats=stats)
