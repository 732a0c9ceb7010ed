"""Multi-user sharing with data consistency.

Gengar guarantees consistency for shared objects through per-object
reader/writer locks driven entirely by one-sided RDMA atomics against lock
words in server DRAM — the server CPU is never involved.

Lock word protocol (see :mod:`repro.core.protocol`):

* the word starts at 0 (free);
* a writer acquires with ``CAS(0 -> (uid << 32) | 1)`` — the word carries
  the owner's id, which makes abandoned locks attributable — and retries
  with backoff on failure;
* a reader acquires with ``FAA(+2)``; if the prior value had the writer bit
  set, it undoes itself with ``FAA(-2)`` and backs off;
* releases subtract exactly what acquire added, which is correct even when
  other parties' increments are in flight; a write release does it by CAS,
  so a word that is no longer ours is left alone.

**Release consistency.** Unlocking a write lock first syncs the client's
outstanding proxy writes (``gsync``), so any reader that subsequently
acquires the lock observes all writes made under it: proxy drains update
both the DRAM-cached copy and the NVM home before the drained counter
advances, and the writer's release happens only after that counter catches
up.  Unlocked (plain) accesses get relaxed consistency: a read may briefly
observe data older than an unsynced write, bounded by the proxy drain lag.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Generator

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.client import GengarClient

from repro.core.driver import stale_error
from repro.core.errors import (
    DeadlineExceededError,
    FencedError,
    LeaseExpiredError,
    LockTimeoutError,
)
from repro.core.protocol import (
    READER_UNIT,
    WRITER_BIT,
    lock_epoch,
    lock_owner,
    lock_reader_count,
    write_lock_word,
)

#: 64-bit two's complement constant for the shared-lock decrement.
_MINUS_READER = (1 << 64) - READER_UNIT

#: The reader half of a lock word (the count sits above the writer bit).
_READER_BITS = (1 << 32) - READER_UNIT

#: First backoff between lock retries; the legacy schedule doubles it per
#: attempt up to 64x.
LOCK_RETRY_NS = 2_000


class LockError(Exception):
    """Invalid lock usage (double release, unlock of unheld lock)."""


class LockOps:
    """Lock acquire/release state machines, bound to one client.

    Kept separate from the client so the protocol is unit-testable and the
    backoff policy is swappable.
    """

    def __init__(self, client: "GengarClient"):
        self.client = client
        self.sim = client.sim
        self._rng = self.sim.rng.stream(f"{client.name}.lockjitter")
        m = self.sim.metrics
        self.acquires = m.counter("pool.lock_acquires")
        self.retries = m.counter("pool.lock_retries")
        self.timeouts = m.counter("pool.lock_timeouts")
        #: gaddr -> the process that last took its write lock here.  Only
        #: read when a word turns out to be this client's own.
        self._holders: Dict[int, Any] = {}

    # ------------------------------------------------------------------
    def _backoff(self, attempt: int) -> Generator[Any, Any, None]:
        base = LOCK_RETRY_NS
        # Capped exponential backoff with jitter to break convoys.
        delay = min(base * (1 << min(attempt, 6)), 64 * base)
        yield self._rng.randrange(base, delay + 1)

    def _contention_wait(self, attempt: int, timeout_ns: int) -> Generator[Any, Any, None]:
        """Backoff between acquire attempts.

        An unbounded acquire keeps its own capped exponential; a bounded
        one (the txn's wait-die acquire) rides
        :class:`~repro.core.driver.RetryPolicy`'s seeded-jitter schedule so
        contenders and op retries share one tuning surface.
        """
        if timeout_ns:
            policy = self.client.retry_policy
            yield policy.backoff_ns(attempt + 1, self.client._driver.jitter_rng())
        else:
            yield from self._backoff(attempt)

    def _refuse_reentry(self, old: int, gaddr: int, what: str) -> None:
        """A word whose writer half carries this client's uid and epoch,
        taken by the very process now asking again, would never free: the
        wait would spin forever.  (Another process of this client that
        holds it releases it in time, so that wait stays a plain spin.)"""
        client = self.client
        if (old & WRITER_BIT and lock_owner(old) == client.uid
                and lock_epoch(old) == client.fence_epoch
                and self._holders.get(gaddr) is self.sim.active):
            raise LockError(f"{what} of {gaddr:#x}: already held by this client")

    def _check_acquire_timeout(self, start_ns: int, timeout_ns: int,
                               gaddr: int, what: str) -> None:
        """Bound the spin on a *held* word by the acquisition timeout.

        Unlike :meth:`_check_deadline` (the whole-op budget) this is a lock
        -layer verdict: the word is owned by someone else and has stayed so
        for ``timeout_ns``.  The typed error lets the caller apply policy:
        the txn layer consults the holder's wait-die stamp.
        """
        if timeout_ns and self.sim.now - start_ns >= timeout_ns:
            self.timeouts.add()
            raise LockTimeoutError(
                f"{what} of {gaddr:#x} still held after "
                f"{self.sim.now - start_ns} ns (acquire timeout {timeout_ns} ns)")

    def _word_offset(self, lock_idx: int) -> int:
        return lock_idx * 8

    def _resolve_fence(self, gaddr: int, what: str,
                       incarnation: int) -> Generator[Any, Any, None]:
        """Fence gate that resolves a local lease lapse *in place*.

        Lock ops bypass the client's retry engine (they have their own
        CAS loop), so the lapse must be settled here: probe the master
        for the real verdict — renewed at the same epoch, re-adopted by a
        restarted master, or a genuine terminal :class:`FencedError` —
        instead of self-fencing on a deadline the master never enforced.
        Bounded by the retry budget; if the master stays unreachable the
        retryable lapse propagates to the caller.

        The check itself is the client's (local: a zombie's ``CAS(0 ->
        word)`` on a free word would succeed whatever epoch it carries);
        releases add word-level fencing in :meth:`_release_word`.  An op
        begun before a restart (``incarnation`` is stale) fails at once,
        without probing.
        """
        client = self.client
        policy = client.retry_policy
        attempt = 0
        while True:
            if client._incarnation != incarnation:
                raise stale_error(what)
            try:
                client._check_lease_fence(what, gaddr)
                return
            except LeaseExpiredError as exc:
                if attempt >= policy.max_attempts:
                    raise
                # May raise FencedError: that verdict is terminal.
                shard = client._shards[exc.shard]
                yield from shard.lapse_probe(what)
                if self.sim.now < shard.lease_deadline:
                    continue  # renewed (or re-attached) in place
                attempt += 1
                yield policy.backoff_ns(attempt, client._driver.jitter_rng())

    def _check_deadline(self, start_ns: int, gaddr: int, what: str) -> None:
        """Bound a contended acquire loop by the client's op deadline.

        Without this, a lock held by a client that died (or a word a crash
        reset under a still-spinning acquirer) would spin forever; with a
        deadline configured the caller gets a typed error instead.
        """
        deadline = self.client.retry_policy.deadline_ns
        if deadline and self.sim.now - start_ns >= deadline:
            self.client.m_deadline_misses.add()
            raise DeadlineExceededError(
                f"{what} of {gaddr:#x} still contended after "
                f"{self.sim.now - start_ns} ns (deadline {deadline} ns)")

    # ------------------------------------------------------------------
    def acquire_write(self, gaddr: int, timeout_ns: int = 0,
                      span_op: int = 0) -> Generator[Any, Any, None]:
        """Take the exclusive lock on ``gaddr`` (blocks until acquired, or
        until the client's op deadline — if one is configured — expires).

        A positive ``timeout_ns`` bounds the spin on a word held by someone
        else with a typed :class:`LockTimeoutError`; a word the calling
        process already holds raises :class:`LockError` at once."""
        incarnation = self.client._incarnation
        yield from self._resolve_fence(gaddr, "write-lock", incarnation)
        meta = yield from self.client._metas.lookup(gaddr, span_op=span_op)
        offset = self._word_offset(meta.lock_idx)
        word = write_lock_word(self.client.uid, self.client.fence_epoch)
        start = self.sim.now
        attempt = 0
        while True:
            old = yield from self.client._atomic_cas(
                meta.server_id, offset, compare=0, swap=word
            )
            if old == 0:
                self.acquires.add()
                self._holders[gaddr] = self.sim.active
                return
            self._refuse_reentry(old, gaddr, "write-lock")
            self.retries.add()
            self._check_deadline(start, gaddr, "write-lock")
            self._check_acquire_timeout(start, timeout_ns, gaddr, "write-lock")
            yield from self._contention_wait(attempt, timeout_ns)
            yield from self._resolve_fence(gaddr, "write-lock", incarnation)
            attempt += 1

    def release_write(self, gaddr: int,
                      span_op: int = 0) -> Generator[Any, Any, None]:
        """Release the exclusive lock, after syncing outstanding writes."""
        # Fence before gsync: a zombie past its lease must not touch the
        # pool at all, not even to flush stale staged writes.
        client = self.client
        incarnation = client._incarnation
        yield from self._resolve_fence(gaddr, "write-unlock", incarnation)
        meta = client._metas.get(gaddr)
        if meta is None:
            # Lock verbs skip the op retry engine, and a failed acquire
            # holds nothing.  A release that failed here would leave the
            # word held by a caller who tried to drop it, so the lookup
            # retries under the client's policy and deadline: the word is
            # not touched yet, so another attempt is always safe.  A cached
            # entry skips the driver, and with it the deadline's watchdog.
            meta = yield from client._driver.resilient(
                "write-unlock", client._metas.lookup, gaddr, span_op,
                span_op=span_op)
        # Release consistency: all writes issued under the lock must be
        # durable (and cache-visible) before anyone else can acquire it.
        # (Disabled by config.sync_on_release=False at the cost of the
        # next holder's freshness guarantee.)
        if client.config.sync_on_release:
            yield from client.gsync(server_id=meta.server_id)
        if client._incarnation != incarnation:
            raise stale_error("write-unlock")
        yield from self._release_word(gaddr, meta)
        self._holders.pop(gaddr, None)

    def _release_word(self, gaddr, meta) -> Generator[Any, Any, None]:
        """Clear the writer half of the word, only while it is still ours.

        ``CAS(word -> word - mine)`` subtracts exactly what acquire
        installed; a CAS that loses to a reader's in-flight ``+2`` retries
        against the value it returned.  A word whose writer half is not
        ours (this client's uid and epoch) is left untouched.  A blind
        subtract would corrupt it: after a restart zeroed the lock table
        it would wrap the word, and after another client locked it, it
        would clear that holder's writer bit under it.

        The first CAS guesses an uncontended word, so a release costs one
        atomic.  With leases a word that is not ours is a fence event
        (:class:`FencedError`: the master recovered the lock), not a usage
        bug.
        """
        client = self.client
        offset = self._word_offset(meta.lock_idx)
        mine = write_lock_word(client.uid, client.fence_epoch)
        word = mine
        for _ in range(64):
            if word & ~_READER_BITS != mine:
                self._refuse_release(gaddr, word)
            old = yield from client._atomic_cas(
                meta.server_id, offset, compare=word, swap=word - mine)
            if old == word:
                return
            word = old
        raise LockError(f"write-unlock of {gaddr:#x}: lock word thrashing")

    def _refuse_release(self, gaddr: int, word: int) -> None:
        client = self.client
        if not client.lease_ns:
            raise LockError(
                f"write-unlock of {gaddr:#x} not held by this client "
                f"(word={word:#x}; lock table reset by a restart?)")
        client.m_fence_rejections.add()
        rec = self.sim.spans
        if rec is not None:
            rec.event(client.name, "fence", "release refused: word not ours",
                      gaddr=hex(gaddr), word=hex(word))
        raise FencedError(
            f"write-unlock of {gaddr:#x}: word {word:#x} does not carry "
            f"uid {client.uid} at epoch {client.fence_epoch} "
            f"(lock recovered after a lease expiry?)")

    def acquire_read(self, gaddr: int,
                     span_op: int = 0) -> Generator[Any, Any, None]:
        """Take a shared lock on ``gaddr`` (blocks until acquired, or until
        the client's op deadline — if one is configured — expires).  A word
        the calling process holds for writing raises :class:`LockError` at
        once."""
        incarnation = self.client._incarnation
        yield from self._resolve_fence(gaddr, "read-lock", incarnation)
        meta = yield from self.client._metas.lookup(gaddr, span_op=span_op)
        offset = self._word_offset(meta.lock_idx)
        start = self.sim.now
        attempt = 0
        while True:
            old = yield from self.client._atomic_faa(
                meta.server_id, offset, add=READER_UNIT
            )
            if not old & WRITER_BIT:
                self.acquires.add()
                return
            # A writer holds it: undo our increment and back off.
            yield from self.client._atomic_faa(meta.server_id, offset, add=_MINUS_READER)
            self._refuse_reentry(old, gaddr, "read-lock")
            self.retries.add()
            self._check_deadline(start, gaddr, "read-lock")
            yield from self._backoff(attempt)
            yield from self._resolve_fence(gaddr, "read-lock", incarnation)
            attempt += 1

    def release_read(self, gaddr: int,
                     span_op: int = 0) -> Generator[Any, Any, None]:
        """Drop a shared lock."""
        meta = yield from self.client._metas.lookup(gaddr, span_op=span_op)
        old = yield from self.client._atomic_faa(
            meta.server_id, self._word_offset(meta.lock_idx), add=_MINUS_READER
        )
        if lock_reader_count(old) == 0:
            raise LockError(f"read-unlock of {gaddr:#x} which had no readers")
