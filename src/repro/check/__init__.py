"""Jepsen-style consistency auditing for the Gengar pool.

Two halves, wired so the simulator pays nothing unless both are asked for:

* :mod:`repro.check.history` — an operation-history recorder the client
  feeds through ``sim.history`` hooks: one *invoke* event when a public op
  starts, one completion event (*ok* / *fail* / *info*) when it returns.
  ``fail`` is a definite no-op (safe to ignore), ``info`` is indeterminate
  (an abandoned write may still land).  With ``sim.history`` left ``None``
  (the default) the hooks cost one attribute read per op and zero
  simulated events.

* :mod:`repro.check.linearize` — an offline checker over a recorded
  history: a per-key Wing&Gong linearizability search for the register
  ops (``read``/``write``), plus lock-model audits (mutual exclusion of
  exclusive holds, per-client fencing-epoch monotonicity).  On failure it
  extracts a minimal failing prefix as the counterexample.

* :mod:`repro.check.serialize` — the transactional sibling: an
  atomicity audit (no aborted transaction's write may ever be observed)
  plus a strict-serializability search over whole transactions grouped
  by txn id, with the same minimal-counterexample extraction.

The ``repro check`` CLI verb replays a JSONL history file through the
checkers; the ``chaos-partition`` / ``chaos-shard`` / ``chaos-txn``
scenarios of ``bench/chaos.py`` record and check a history in one run.
"""

from repro.check.history import HistoryRecorder, load_history
from repro.check.linearize import CheckResult, Violation, check_history
from repro.check.serialize import check_txn_history

__all__ = [
    "HistoryRecorder",
    "load_history",
    "CheckResult",
    "Violation",
    "check_history",
    "check_txn_history",
]
