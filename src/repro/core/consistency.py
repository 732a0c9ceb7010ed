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
  other parties' increments are in flight.

**Release consistency.** Unlocking a write lock first syncs the client's
outstanding proxy writes (``gsync``), so any reader that subsequently
acquires the lock observes all writes made under it: proxy drains update
both the DRAM-cached copy and the NVM home before the drained counter
advances, and the writer's release happens only after that counter catches
up.  Unlocked (plain) accesses get relaxed consistency: a read may briefly
observe data older than an unsynced write, bounded by the proxy drain lag.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.client import GengarClient

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

    # ------------------------------------------------------------------
    def _backoff(self, attempt: int) -> Generator[Any, Any, None]:
        base = LOCK_RETRY_NS
        # Capped exponential backoff with jitter to break convoys.
        delay = min(base * (1 << min(attempt, 6)), 64 * base)
        yield self._rng.randrange(base, delay + 1)

    def _contention_wait(self, attempt: int, timeout_ns: int) -> Generator[Any, Any, None]:
        """Backoff between acquire attempts.

        The legacy path (no acquisition timeout) keeps its own capped
        exponential; with a timeout configured the wait rides
        :class:`~repro.core.client.RetryPolicy`'s seeded-jitter schedule so
        contenders and op retries share one tuning surface.
        """
        if timeout_ns:
            policy = self.client.retry_policy
            yield policy.backoff_ns(attempt + 1, self.client._jitter_rng())
        else:
            yield from self._backoff(attempt)

    def _effective_timeout(self, timeout_ns) -> int:
        if timeout_ns is None:
            return self.client.config.lock_acquire_timeout_ns
        return timeout_ns

    def _check_acquire_timeout(self, start_ns: int, timeout_ns: int,
                               gaddr: int, what: str) -> None:
        """Bound the spin on a *held* word by the acquisition timeout.

        Unlike :meth:`_check_deadline` (the whole-op budget) this is a lock
        -layer verdict: the word is owned by someone else and has stayed so
        for ``timeout_ns``.  The typed error lets callers apply policy —
        the txn layer consults the holder's wait-die stamp, plain callers
        give up instead of convoying.
        """
        if timeout_ns and self.sim.now - start_ns >= timeout_ns:
            self.timeouts.add()
            raise LockTimeoutError(
                f"{what} of {gaddr:#x} still held after "
                f"{self.sim.now - start_ns} ns (acquire timeout {timeout_ns} ns)")

    def _word_offset(self, lock_idx: int) -> int:
        return lock_idx * 8

    def _resolve_fence(self, gaddr: int, what: str) -> Generator[Any, Any, None]:
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
        releases add word-level fencing in :meth:`_release_write_fenced`.
        """
        policy = self.client.retry_policy
        attempt = 0
        while True:
            try:
                self.client._check_lease_fence(what, gaddr)
                return
            except LeaseExpiredError:
                if attempt >= policy.max_attempts:
                    raise
                # May raise FencedError: that verdict is terminal.
                yield from self.client._lease_lapse_probe(what)
                if self.sim.now < self.client.lease_deadline:
                    continue  # renewed (or re-attached) in place
                attempt += 1
                yield policy.backoff_ns(attempt, self.client._jitter_rng())

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
    def acquire_write(self, gaddr: int, timeout_ns=None,
                      span_op: int = 0) -> Generator[Any, Any, None]:
        """Take the exclusive lock on ``gaddr`` (blocks until acquired, or
        until the client's op deadline — if one is configured — expires).

        ``timeout_ns`` overrides ``config.lock_acquire_timeout_ns`` for
        this acquire (``None`` = use the config; 0 = spin legacy-style);
        a positive value bounds the spin on a held word with a typed
        :class:`LockTimeoutError`."""
        timeout_ns = self._effective_timeout(timeout_ns)
        yield from self._resolve_fence(gaddr, "write-lock")
        meta = yield from self.client._meta(gaddr, span_op=span_op)
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
                return
            self.retries.add()
            self._check_deadline(start, gaddr, "write-lock")
            self._check_acquire_timeout(start, timeout_ns, gaddr, "write-lock")
            yield from self._resolve_fence(gaddr, "write-lock")
            yield from self._contention_wait(attempt, timeout_ns)
            attempt += 1

    def release_write(self, gaddr: int,
                      span_op: int = 0) -> Generator[Any, Any, None]:
        """Release the exclusive lock, after syncing outstanding writes."""
        # Fence before gsync: a zombie past its lease must not touch the
        # pool at all, not even to flush stale staged writes.
        yield from self._resolve_fence(gaddr, "write-unlock")
        meta = yield from self.client._meta(gaddr, span_op=span_op)
        # Release consistency: all writes issued under the lock must be
        # durable (and cache-visible) before anyone else can acquire it.
        # (Disabled by config.sync_on_release=False at the cost of the
        # next holder's freshness guarantee.)
        if self.client.config.sync_on_release:
            yield from self.client.gsync(server_id=meta.server_id)
        if self.client.config.auto_reattach and not self.client.lease_ns:
            # A restart zeroes the lock table; a blind subtract against the
            # reset word would wrap it into a garbage state that poisons
            # every later acquire.  Verify ownership first (one extra READ,
            # paid only by a client that re-attaches to restarted servers).
            # With leases on the fenced release below performs the same
            # verification word-level and fails *typed* — a recovered lock
            # is a fence event there, not a usage bug, so this untyped
            # pre-check must not preempt it.
            conn = self.client._conns[meta.server_id]
            raw = yield from self.client._rdma_read(
                conn, conn.desc.lock_rkey, self._word_offset(meta.lock_idx), 8)
            current = int.from_bytes(raw, "little")
            if not current & WRITER_BIT or lock_owner(current) != self.client.uid:
                raise LockError(
                    f"write-unlock of {gaddr:#x} not held by this client "
                    f"(word={current:#x}; lock table reset by a restart?)")
        if self.client.lease_ns:
            yield from self._release_write_fenced(gaddr, meta)
            return
        # Subtract exactly what acquire installed (owner id + writer bit);
        # correct even while readers' +2 increments are in flight.
        word = write_lock_word(self.client.uid)
        old = yield from self.client._atomic_faa(
            meta.server_id, self._word_offset(meta.lock_idx),
            add=(1 << 64) - word,
        )
        if not old & WRITER_BIT:
            raise LockError(f"write-unlock of {gaddr:#x} which was not write-locked")

    def _release_write_fenced(self, gaddr, meta) -> Generator[Any, Any, None]:
        """Word-level fenced release: clear the writer part only if the word
        still carries *this* client's uid and epoch.

        A blind FAA would subtract our old word from whatever is there now —
        if the master recovered the lock after our lease lapsed (and a new
        holder re-acquired it), that subtraction silently corrupts the new
        holder's word.  The CAS loop tolerates concurrent reader FAAs (the
        reader half changes under us) but fails typed the moment the writer
        half is no longer ours.
        """
        client = self.client
        offset = self._word_offset(meta.lock_idx)
        conn = client._conns[meta.server_id]
        mine = write_lock_word(client.uid, client.fence_epoch)
        for _ in range(64):
            raw = yield from client._rdma_read(conn, conn.desc.lock_rkey, offset, 8)
            word = int.from_bytes(raw, "little")
            if (not word & WRITER_BIT or lock_owner(word) != client.uid
                    or lock_epoch(word) != client.fence_epoch):
                client.m_fence_rejections.add()
                rec = self.sim.spans
                if rec is not None:
                    rec.event(client.name, "fence",
                              "release refused: word not ours",
                              gaddr=hex(gaddr), word=hex(word))
                raise FencedError(
                    f"write-unlock of {gaddr:#x}: word {word:#x} does not carry "
                    f"uid {client.uid} at epoch {client.fence_epoch} "
                    f"(lock recovered after a lease expiry?)")
            old = yield from client._atomic_cas(
                meta.server_id, offset, compare=word, swap=word - mine)
            if old == word:
                return
        raise LockError(f"write-unlock of {gaddr:#x}: lock word thrashing")

    def acquire_read(self, gaddr: int, timeout_ns=None,
                     span_op: int = 0) -> Generator[Any, Any, None]:
        """Take a shared lock on ``gaddr`` (blocks until acquired, or until
        the client's op deadline — if one is configured — expires).

        ``timeout_ns`` as in :meth:`acquire_write`."""
        timeout_ns = self._effective_timeout(timeout_ns)
        yield from self._resolve_fence(gaddr, "read-lock")
        meta = yield from self.client._meta(gaddr, span_op=span_op)
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
            self.retries.add()
            self._check_deadline(start, gaddr, "read-lock")
            self._check_acquire_timeout(start, timeout_ns, gaddr, "read-lock")
            yield from self._resolve_fence(gaddr, "read-lock")
            yield from self._contention_wait(attempt, timeout_ns)
            attempt += 1

    def release_read(self, gaddr: int,
                     span_op: int = 0) -> Generator[Any, Any, None]:
        """Drop a shared lock."""
        meta = yield from self.client._meta(gaddr, span_op=span_op)
        old = yield from self.client._atomic_faa(
            meta.server_id, self._word_offset(meta.lock_idx), add=_MINUS_READER
        )
        if lock_reader_count(old) == 0:
            raise LockError(f"read-unlock of {gaddr:#x} which had no readers")
