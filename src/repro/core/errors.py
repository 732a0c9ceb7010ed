"""Typed client error taxonomy.

Every failure a :class:`~repro.core.client.GengarClient` verb can surface is
a :class:`ClientError`, split into two actionable branches:

* :class:`FatalError` — usage errors and protocol states a retry cannot
  fix (out-of-bounds access, protection faults).  Callers should propagate
  these.
* :class:`RetryableError` — transient conditions where retrying (possibly
  after re-attaching to a restarted server) may succeed.  The client's
  built-in retry loop (see :class:`~repro.core.client.RetryPolicy`) handles
  these automatically, re-attaching first where the error names a server
  or master shard; one propagates only once the retry budget is spent.

:class:`DeadlineExceededError` sits outside both branches: it is the typed
signal that the per-op deadline elapsed, raised *instead of* blocking
forever.  It is deliberately not retryable — the caller's time budget is
already spent.

These live in their own module (rather than ``client.py``) because both the
client and the consistency layer raise them; ``client.py`` re-exports every
name for backward compatibility.
"""

from __future__ import annotations

from typing import Optional


class ClientError(Exception):
    """Invalid client operation or unrecoverable protocol failure."""


class FatalError(ClientError):
    """A failure no retry can fix: usage error, protection fault, corrupt
    protocol state."""


class RetryableError(ClientError):
    """A transient failure: retrying the operation (possibly after a
    re-attach) may succeed."""


class ServerUnavailableError(RetryableError):
    """A verb or RPC hit a dead or unreachable server (``RETRY_EXCEEDED``).

    Carries the server id so the retry loop knows which server to
    re-attach once it comes back.
    """

    def __init__(self, message: str, server_id: Optional[int] = None):
        super().__init__(message)
        self.server_id = server_id


class StaleRingError(RetryableError):
    """A proxy-ring access faulted because the ring was torn down by a
    server restart (its MR was deregistered at crash time).

    Distinct from :class:`ServerUnavailableError`: the server is *alive*
    again, but this client's session state is gone and must be rebuilt via
    :meth:`~repro.core.client.GengarClient.reattach_server`.
    """

    def __init__(self, message: str, server_id: Optional[int] = None):
        super().__init__(message)
        self.server_id = server_id


class MasterUnavailableError(RetryableError):
    """A control RPC failed because the master is down or restarting.

    Retryable: the retry loop backs off and re-attaches to the recovered
    master keeping the client's uid and fencing epoch, so leases and lock
    ownership survive the failover.
    """


class StaleTermError(RetryableError):
    """A master reply carried a term older than one this client has
    already observed — the replying master was deposed by a successor
    (split-brain fencing at the control-plane level).

    Retryable: the result was *discarded*, never applied, so the op can
    safely be reissued; the retry loop re-attaches first, which finds the
    current-term master.  Carries both terms for
    diagnostics.
    """

    def __init__(self, message: str, reply_term: int = 0, known_term: int = 0):
        super().__init__(message)
        self.reply_term = reply_term
        self.known_term = known_term


class NotMyShard(RetryableError):
    """A control RPC landed on a master shard that does not own the
    object (the client's cached shard map is stale — the pool was
    resharded, or a routing bug sent the op astray).

    Retryable: the owning shard rejected the op *before* applying it, so
    the client invalidates its shard map, re-resolves ownership at the
    current map epoch, and reissues against the right shard.  Carries the
    rejecting shard, the owner it named (if known), and the map epoch the
    reply was stamped with so the client can fast-forward without a full
    re-attach.
    """

    def __init__(self, message: str, shard_id: int = 0,
                 owner_shard: Optional[int] = None, map_epoch: int = 0):
        super().__init__(message)
        self.shard_id = shard_id
        self.owner_shard = owner_shard
        self.map_epoch = map_epoch


class PartitionSuspected(RetryableError):
    """Control-plane traffic to one master shard has failed in transport
    three times in a row (ops, re-attach handshakes and renewals alike).

    Retryable: partitions heal and masters restart; the retry loop backs
    off, re-attaches and reissues.  Distinct from
    :class:`MasterUnavailableError` — one lost RPC, or a master that
    answers "recovering" — so callers (and the chaos harness) can tell a
    blip from a path that has stayed dead.  A client cannot tell a crashed
    master from a cut path: both stop answering, so a master that stays
    down past the streak reads as this error too, and an op that spends
    its whole retry budget against one raises it.
    """


class FencedError(ClientError):
    """This client's lease expired and its fencing epoch was retired.

    Deliberately *not* retryable: the master may already have recovered
    this client's locks and another client may hold them — blindly
    retrying the same lock op would be exactly the zombie write the fence
    exists to stop.  The only recovery is
    :meth:`~repro.core.client.GengarClient.reattach_master`, which rejoins
    under a fresh epoch.
    """


class LeaseExpiredError(FencedError, RetryableError):
    """This client's lease deadline lapsed *locally* — renewals stopped
    flowing (master unreachable, or an op parked in a retry backoff longer
    than the lease) — but the master has not been heard to fence us.

    A :class:`FencedError` (the op was refused for exactly the zombie-
    write reason, and fail-fast callers treat it as such) that is *also*
    :class:`RetryableError`: the safe recovery is to re-attach first
    (re-establishing a live lease, adopting a bumped epoch if the master
    *did* fence us meanwhile) and only then retry.  The retry loop does
    exactly that, so a long seeded backoff no longer turns into a
    terminal self-fence while the master was merely unreachable.
    """


class DeadlineExceededError(ClientError):
    """The per-op deadline elapsed before the verb completed.

    When raised from the deadline watchdog (rather than between retry
    attempts), the abandoned attempt keeps running in the background and
    its side effects — including a write landing after all — may still
    occur; the caller only knows the op did not complete *in time*.
    """


class LockTimeoutError(ClientError):
    """A bounded lock acquire found the word held past its timeout (the
    transaction layer's wait-die bound).

    Like :class:`DeadlineExceededError`, this sits outside both branches:
    it is a typed, clean outcome — no lock state was changed — but the
    right reaction is policy, not a blind retry (the transaction layer
    consults the holder's wait-die stamp).  Only raised by an acquire that
    was given a timeout; a plain ``glock`` spins until it gets the word.
    """


class TxnError(ClientError):
    """Base class for transaction-layer failures (``repro.txn``)."""


class TxnAbortedError(TxnError):
    """The transaction aborted cleanly *before* its commit point: every
    lock was (or will be) released, no buffered write became visible, and
    the caller may simply re-run the transaction.

    Carries ``reason`` — e.g. ``"fenced"`` (an epoch went stale at commit
    validation), ``"oversize"`` (intent record exceeded a slot), or
    ``"wait-die"`` (see :class:`TxnWaitDieError`).
    """

    def __init__(self, message: str, reason: str = "abort"):
        super().__init__(message)
        self.reason = reason


class TxnWaitDieError(TxnAbortedError):
    """Wait-die contention abort: this (younger) transaction met a lock
    held by an older one and died rather than wait, preventing deadlock.

    The standard recovery is to retry the whole transaction with the
    *same* timestamp so it ages and eventually wins; the txn manager's
    ``run`` helper does this automatically.
    """

    def __init__(self, message: str):
        super().__init__(message, reason="wait-die")
