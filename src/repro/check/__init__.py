"""Jepsen-style consistency auditing for the Gengar pool.

One recorder and one checker, wired so the simulator pays nothing unless
both are asked for:

* :mod:`repro.check.history` — an operation-history recorder the client
  feeds through ``sim.history`` hooks: one *invoke* event when a public op
  starts, one completion event (*ok* / *fail* / *info*) when it returns.
  ``fail`` is a definite no-op (safe to ignore), ``info`` is indeterminate
  (an abandoned write may still land).  With ``sim.history`` left ``None``
  (the default) the hooks cost one attribute read per op and zero
  simulated events.

* :mod:`repro.check.linearize` — an offline checker over a recorded
  history.  Every transaction is one node and every plain ``read`` /
  ``write`` a singleton node; an atomicity audit (no aborted write is
  ever observed) runs first, then one Wing & Gong strict-serializability
  search per key-connected component — for a key no transaction touches
  that is per-key register linearizability.  Lock-model audits (mutual
  exclusion of exclusive holds, per-client fencing-epoch monotonicity)
  need no search.  On failure it extracts a minimal failing prefix as
  the counterexample.

The ``repro check`` CLI verb replays a JSONL history file through the
checker; the ``chaos-partition`` / ``chaos-shard`` / ``chaos-txn``
scenarios of ``bench/chaos.py`` record and check a history in one run.
"""

from repro.check.history import HistoryRecorder, load_history
from repro.check.linearize import CheckResult, Violation, check_history

__all__ = [
    "HistoryRecorder",
    "load_history",
    "CheckResult",
    "Violation",
    "check_history",
]
