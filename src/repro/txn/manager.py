"""Distributed transactions: lock-ordered 2PL, wait-die, durable intents.

The protocol, end to end:

1. **begin** — write locks are acquired in ascending global-address order
   (which alone rules out deadlock between transactions whose lock sets
   are declared up front).  Contention is additionally bounded by the
   wait-die policy: a contender whose acquire times out reads the holder's
   advisory *stamp* from the server's stamp table; an older contender
   waits, a younger one dies (:class:`TxnWaitDieError`) and retries under
   the **same** stamp so it ages and eventually wins.
2. **reads** happen under the held locks; **writes** are buffered locally
   (read-your-buffered-writes), so an abort before the commit point is a
   pure local discard — no partial write-set can exist remotely.
3. **commit** — the held fencing epoch is validated (any
   :class:`FencedError` ⇒ clean abort + rollback); then the whole
   write-set (payloads + the client's epoch) is pickled into one *intent
   record* and durably appended on the coordinator server (the home of
   the lowest written address).  That single append IS the commit point.
4. **apply** — the buffered writes are applied to each home server's NVM
   via ``txn_apply`` (after a ``gsync`` of a server whose ring overlay
   holds one of them), the intent cleared, the locks released in reverse.

Crash atomicity: a client that dies *before* its intent append leaves
nothing but locks (the master's lease sweep force-unlocks and the buffered
writes died with it — rollback); a client that dies *after* leaves a
durable record the sweep rolls *forward* behind the client's drains and
clears before force-unlocking, so the write-set lands exactly once.  No
interleaving makes a partial write-set durable.

With a sharded control plane (``config.num_master_shards > 1``) nothing
here changes shape — locks, stamps, intents, and applies are all *server*
ops, and the few master round trips (metadata lookups, the renew-verdict
probe inside the resilience engine) ride the client's per-shard routing.
What does change is recovery ownership: the coordinator server that holds
a dead client's intent may belong to a different shard than the servers
its write-set targets, so any shard fencing that client scans *all*
reachable intent regions (not just its own servers') and rolls the intent
forward before force-unlocking.  Applies are idempotent absolute writes,
so several shards racing the same roll-forward converge.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Generator, Iterable, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.client import GengarClient

from repro.core.addressing import server_of
from repro.core.errors import (
    FatalError,
    FencedError,
    LockTimeoutError,
    RetryableError,
    TxnAbortedError,
    TxnError,
    TxnWaitDieError,
)
from repro.rdma.rpc import RpcError
from repro.rdma.wr import WcStatus

__all__ = ["Transaction", "TxnManager", "pack_stamp"]

#: Wait-die stamps pack (begin_ns, uid) into one 8-byte word: lower stamp
#: = older transaction.  48 bits of virtual time, 16 bits of uid as the
#: tiebreaker; 0 is reserved for "free / holder unknown".
_STAMP_TIME_BITS = 48
#: How long an acquire spins on a held word before consulting the
#: holder's wait-die stamp.
WAIT_DIE_TIMEOUT_NS = 100_000


def pack_stamp(begin_ns: int, uid: int) -> int:
    """Total order over transactions: older (smaller) wins ties by uid."""
    return ((begin_ns & ((1 << _STAMP_TIME_BITS) - 1)) << 16) | (uid & 0xFFFF)


class Transaction:
    """One in-flight transaction: the declared lock set, the locks actually
    held, and the locally buffered write-set.

    Obtained from :meth:`TxnManager.begin`; reads/writes must stay inside
    the declared set (static 2PL — the set is what makes global lock
    ordering possible).
    """

    def __init__(self, manager: "TxnManager", txn_id: str, stamp: int,
                 lock_set: Tuple[int, ...]):
        self.manager = manager
        self.id = txn_id
        self.stamp = stamp
        self.lock_set = lock_set
        self.held: List[int] = []
        #: (gaddr, offset) -> payload bytes, applied atomically at commit.
        self.writes: Dict[Tuple[int, int], bytes] = {}
        self.active = True
        #: True once the intent record is durable (the commit point).
        self.committed = False
        self._tok = -1  # spanning "txn" history token

    # ------------------------------------------------------------------
    def _require(self, gaddr: int, what: str) -> None:
        if not self.active:
            raise TxnError(f"{what} on finished transaction {self.id}")
        if gaddr not in self.lock_set:
            raise TxnError(
                f"{what} of {gaddr:#x} outside the declared lock set of "
                f"transaction {self.id} (static 2PL: declare it at begin)")

    def write(self, gaddr: int, data: bytes, offset: int = 0) -> None:
        """Buffer a write; nothing leaves this client until commit."""
        self._require(gaddr, "txn write")
        if not data:
            raise TxnError("empty txn write")
        self.writes[(gaddr, offset)] = bytes(data)

    def read(self, gaddr: int, offset: int = 0,
             length: Optional[int] = None) -> Generator[Any, Any, bytes]:
        """Read under the held lock (serving own buffered writes first)."""
        self._require(gaddr, "txn read")
        buffered = self.writes.get((gaddr, offset))
        if buffered is not None and (length is None or length == len(buffered)):
            # Own uncommitted write: purely local, imposes no inter-txn
            # constraint, so it is deliberately not recorded.
            return bytes(buffered)
        client = self.manager.client
        data = yield from client._driver.op("gread", gaddr, offset, length,
                                            history=False)
        hist = client.sim.history
        if hist is not None:
            tok = hist.invoke(client.name, "txn_read", gaddr, txn=self.id,
                              offset=offset)
            hist.ok(tok, value=hist.encode(data))
        return data

    # Convenience delegates (``yield from txn.commit()``).
    def commit(self) -> Generator[Any, Any, None]:
        return self.manager.commit(self)

    def abort(self) -> Generator[Any, Any, None]:
        return self.manager.abort(self)


class TxnManager:
    """Per-client transaction engine (reached via ``client.txn``).

    The server side is always present: every server carves an intent
    region and a stamp table, and every fence of a dead client rolls its
    intents forward.  This client side is built on first use behind the
    ``client.txn`` property and sends nothing until a transaction begins.
    """

    def __init__(self, client: "GengarClient"):
        self.client = client
        self.sim = client.sim
        self._seq = 0
        #: Test/chaos seam: called as ``hook(point, txn)`` at named points
        #: inside the commit window ("pre-intent", "post-intent",
        #: "mid-apply", "pre-clear", "post-clear").  A hook that raises
        #: models a client dying at exactly that point.
        self.commit_hook = None
        m = self.sim.metrics
        self.m_begins = m.counter("pool.txn_begins")
        self.m_commits = m.counter("pool.txn_commits")
        self.m_aborts = m.counter("pool.txn_aborts")
        self.m_wait_die = m.counter("pool.txn_wait_die")
        self.m_handoffs = m.counter("pool.txn_handoffs")
        self.m_cross_shard = m.counter("pool.txn_cross_shard_commits")

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _hook(self, point: str, txn: Transaction) -> None:
        hook = self.commit_hook
        if hook is not None:
            hook(point, txn)

    def _server_call(self, server_id: int, method: str,
                     payload: dict) -> Generator[Any, Any, Any]:
        """Server RPC with transport failures mapped to the retryable
        taxonomy, so :meth:`~repro.core.driver.OpDriver.resilient` can handle them."""
        from repro.core.errors import ServerUnavailableError

        conn = self.client._conns[server_id]
        try:
            result = yield from conn.rpc.call(method, payload)
        except RpcError as exc:
            msg = str(exc)
            if WcStatus.WR_FLUSH_ERROR.value in msg:
                raise FatalError(f"{method}: {msg}") from exc  # we died
            if "transport failed" in msg:
                raise ServerUnavailableError(
                    f"{method}: server {server_id} unreachable",
                    server_id=server_id) from exc
            raise TxnError(f"{method}: {msg}") from exc
        return result

    def _write_stamp(self, meta, stamp: int) -> Generator[Any, Any, None]:
        conn = self.client._conns[meta.server_id]
        yield from self.client._rdma_write(
            conn, conn.desc.stamp_rkey, meta.lock_idx * 8, stamp.to_bytes(8, "little"))

    def _read_stamp(self, meta) -> Generator[Any, Any, int]:
        conn = self.client._conns[meta.server_id]
        raw = yield from self.client._reads.read(
            conn, conn.desc.stamp_rkey, meta.lock_idx * 8, 8)
        return int.from_bytes(raw, "little")

    # ------------------------------------------------------------------
    # begin / acquire
    # ------------------------------------------------------------------
    def begin(self, gaddrs: Iterable[int],
              stamp: Optional[int] = None) -> Generator[Any, Any, Transaction]:
        """Open a transaction over the given objects, acquiring their write
        locks in ascending global-address order.

        May raise :class:`TxnWaitDieError` (this txn was younger than a
        holder it timed out behind); every already-held lock is released
        first, so a died transaction leaves no state anywhere.
        """
        client = self.client
        lock_set = tuple(sorted(set(gaddrs)))
        if not lock_set:
            raise TxnError("transaction needs a non-empty lock set")
        if stamp is None:
            stamp = pack_stamp(self.sim.now, client.uid)
        self._seq += 1
        txn = Transaction(self, f"{client.name}.t{self._seq}", stamp, lock_set)
        rec = self.sim.spans
        t0 = self.sim.now if rec is not None else 0
        hist = self.sim.history
        if hist is not None:
            txn._tok = hist.invoke(client.name, "txn", None, txn=txn.id,
                                   keys=list(lock_set))
        self.m_begins.add()
        try:
            for gaddr in lock_set:
                yield from self._acquire_wait_die(txn, gaddr)
        except BaseException as exc:
            yield from self._release_locks(txn)
            txn.active = False
            self.m_aborts.add()
            if hist is not None:
                hist.fail(txn._tok, exc)
            raise
        finally:
            if rec is not None:
                rec.record(client.name, "txn.begin", t0, op=rec.next_op(),
                           txn=txn.id, locks=len(lock_set))
        if rec is not None:
            rec.event(client.name, "txn", "began", txn=txn.id,
                      locks=len(lock_set))
        return txn

    def _acquire_wait_die(self, txn: Transaction,
                          gaddr: int) -> Generator[Any, Any, None]:
        client = self.client
        meta = yield from client._metas.lookup(gaddr)
        start = self.sim.now
        while True:
            try:
                yield from client.locks.acquire(
                    gaddr, timeout_ns=WAIT_DIE_TIMEOUT_NS)
            except LockTimeoutError:
                # Elder waits are only live while *something* can free the
                # word — the holder releasing, or the lease sweep clearing
                # a dead holder.  With the master down neither may ever
                # happen, so the wait is bounded by the op deadline (when
                # configured): aborting an elder is always safe, and the
                # caller decides whether to re-run.
                deadline = client.retry_policy.deadline_ns
                if deadline and self.sim.now - start >= deadline:
                    raise TxnAbortedError(
                        f"txn {txn.id} gave up waiting on {gaddr:#x} after "
                        f"{self.sim.now - start} ns (op deadline "
                        f"{deadline} ns; lock recovery stalled)",
                        reason="stalled")
                holder = yield from self._read_stamp(meta)
                if holder and txn.stamp > holder:
                    # Younger than the holder: die, don't deadlock.  The
                    # caller retries under the same stamp so it ages.
                    self.m_wait_die.add()
                    rec = self.sim.spans
                    if rec is not None:
                        rec.event(client.name, "txn", "wait-die abort",
                                  txn=txn.id, gaddr=hex(gaddr))
                    raise TxnWaitDieError(
                        f"txn {txn.id} (stamp {txn.stamp:#x}) died waiting "
                        f"on {gaddr:#x} held by an older transaction "
                        f"(stamp {holder:#x})")
                # Older than the holder (or holder unknown — a zero stamp
                # reads as "wait", which is always safe): keep waiting.
                continue
            break
        txn.held.append(gaddr)
        yield from self._write_stamp(meta, txn.stamp)

    # ------------------------------------------------------------------
    # commit / abort
    # ------------------------------------------------------------------
    def commit(self, txn: Transaction) -> Generator[Any, Any, None]:
        """Commit: validate epochs, persist the intent (the commit point),
        apply, clear, unlock.

        Raises :class:`TxnAbortedError` on any pre-commit-point failure
        (everything rolled back); past the commit point the write-set is
        guaranteed to become fully visible even if this client dies —
        recovery rolls it forward from the durable intent.
        """
        client = self.client
        if not txn.active:
            raise TxnError(f"commit of finished transaction {txn.id}")
        rec = self.sim.spans
        t0 = self.sim.now if rec is not None else 0
        try:
            yield from self._commit_inner(txn)
        finally:
            if rec is not None:
                rec.record(client.name, "txn.commit", t0, op=rec.next_op(),
                           txn=txn.id, writes=len(txn.writes),
                           committed=txn.committed)

    def _commit_inner(self, txn: Transaction) -> Generator[Any, Any, None]:
        client = self.client
        hist = self.sim.history
        writes = [(g, off, txn.writes[(g, off)])
                  for (g, off) in sorted(txn.writes)]
        write_toks: List[int] = []
        if hist is not None:
            for gaddr, offset, data in writes:
                write_toks.append(hist.invoke(
                    client.name, "txn_write", gaddr, txn=txn.id,
                    value=hist.encode(data), offset=offset))
        self._hook("pre-intent", txn)
        # Epoch validation: a fenced epoch means the master may already
        # have recovered our locks — committing would race the next
        # holder.  Clean abort instead.  A mere *local* lease lapse rides
        # the resilience engine (renew probe) first; only the terminal
        # verdict aborts.
        try:
            yield from client._driver.resilient("txn_validate", self._validate_epoch)
        except FencedError as exc:
            self._abort_cleanup(txn, exc, write_toks)
            raise TxnAbortedError(
                f"txn {txn.id} aborted at commit validation: {exc}",
                reason="fenced") from exc
        if not writes:
            # Read-only: no intent, no apply — just release.
            yield from self._release_locks(txn)
            txn.active = False
            txn.committed = True
            self.m_commits.add()
            if hist is not None:
                hist.ok(txn._tok)
            return
        coordinator = server_of(writes[0][0])
        intent = {"txn": txn.id, "owner": client.uid,
                  "epoch": client.fence_epoch, "writes": writes}
        try:
            yield from client._driver.resilient(
                "txn_intent", self._server_call, coordinator,
                "txn_intent_put", intent)
        except FencedError as exc:
            self._abort_cleanup(txn, exc, write_toks)
            raise TxnAbortedError(
                f"txn {txn.id} aborted persisting its intent: {exc}",
                reason="fenced") from exc
        except TxnError as exc:
            # Oversize record / full intent region: clean pre-commit abort.
            self._abort_cleanup(txn, exc, write_toks)
            yield from self._release_locks(txn)
            raise TxnAbortedError(
                f"txn {txn.id} aborted: {exc}", reason="intent") from exc
        except RetryableError as exc:
            # Coordinator unreachable past the retry budget — still before
            # the commit point, so the abort is clean.
            self._abort_cleanup(txn, exc, write_toks)
            yield from self._release_locks(txn)
            raise TxnAbortedError(
                f"txn {txn.id} aborted: {exc}", reason="unavailable") from exc
        # ---- the commit point: the intent record is durable ------------
        txn.committed = True
        rec = self.sim.spans
        if rec is not None:
            rec.event(client.name, "txn", "committed (intent durable)",
                      txn=txn.id, writes=len(writes))
        self._hook("post-intent", txn)
        by_server: Dict[int, list] = {}
        for entry in writes:
            by_server.setdefault(server_of(entry[0]), []).append(entry)
        if client._num_shards > 1 and len(
                {client._resolve_shard(g) for g, _, _ in writes}) > 1:
            # The write-set spans shards: if this client dies mid-apply,
            # roll-forward responsibility falls to whichever shard fences
            # it first, applying across shard boundaries.  Counted so the
            # chaos soak can assert that path was actually exercised.
            self.m_cross_shard.add()
        handed_off = False
        first = True
        for sid in sorted(by_server):
            overlay = client._conns[sid].ring.overlay
            try:
                if any(g in overlay for g, _, _ in by_server[sid]):
                    # Drain our own staged writes to these objects first,
                    # or they land over the commit (gfree's rule too).
                    yield from client._driver.op("gsync", sid, history=False)
                yield from client._driver.resilient(
                    "txn_apply", self._server_call, sid, "txn_apply",
                    {"writes": by_server[sid]})
            except FencedError:
                # Past the commit point a fence is a hand-off, not a
                # failure: the master's sweep rolls the intent forward.
                handed_off = True
                break
            if first:
                self._hook("mid-apply", txn)
                first = False
        self._hook("pre-clear", txn)
        if not handed_off:
            try:
                yield from client._driver.resilient(
                    "txn_clear", self._server_call, coordinator,
                    "txn_intent_clear", {"txn": txn.id})
            except FencedError:
                handed_off = True
        self._hook("post-clear", txn)
        if not handed_off:
            yield from self._release_locks(txn)
        else:
            # The master owns cleanup now (roll-forward + force-unlock);
            # drop local bookkeeping so no double release is attempted.
            self.m_handoffs.add()
            txn.held.clear()
            rec = self.sim.spans
            if rec is not None:
                rec.event(client.name, "txn", "commit handed off to recovery",
                          txn=txn.id)
        txn.active = False
        self.m_commits.add()
        if hist is not None:
            if handed_off:
                # The writes WILL land (the intent is durable) but may not
                # have yet when the history ends: indeterminate, not ok.
                err = FencedError("commit handed off to master recovery")
                hist.info(txn._tok, err)
                for tok in write_toks:
                    hist.info(tok, err)
            else:
                hist.ok(txn._tok)
                for tok in write_toks:
                    hist.ok(tok)

    def abort(self, txn: Transaction) -> Generator[Any, Any, None]:
        """Roll back: discard the buffered write-set, release the locks.

        Always clean before the commit point — the writes never left this
        client.  Aborting an already-committed transaction is an error.
        """
        client = self.client
        if not txn.active:
            raise TxnError(f"abort of finished transaction {txn.id}")
        if txn.committed:
            raise TxnError(f"abort of committed transaction {txn.id}")
        rec = self.sim.spans
        t0 = self.sim.now if rec is not None else 0
        hist = self.sim.history
        if hist is not None:
            exc = TxnAbortedError(f"txn {txn.id} aborted by caller")
            for (gaddr, offset), data in sorted(txn.writes.items()):
                tok = hist.invoke(client.name, "txn_write", gaddr, txn=txn.id,
                                  value=hist.encode(data), offset=offset)
                hist.fail(tok, exc)
            hist.fail(txn._tok, exc)
        txn.writes.clear()
        yield from self._release_locks(txn)
        txn.active = False
        self.m_aborts.add()
        if rec is not None:
            rec.record(client.name, "txn.abort", t0, op=rec.next_op(),
                       txn=txn.id)
            rec.event(client.name, "txn", "aborted", txn=txn.id)

    def _abort_cleanup(self, txn: Transaction, exc: BaseException,
                       write_toks: List[int]) -> None:
        """Local bookkeeping for a pre-commit-point abort (history + state).
        Lock release is the caller's move — a fenced client must not touch
        the words (the master recovers them), an unfenced one must."""
        hist = self.sim.history
        if hist is not None:
            for tok in write_toks:
                hist.fail(tok, exc)
            hist.fail(txn._tok, exc)
        txn.writes.clear()
        txn.active = False
        self.m_aborts.add()

    def _release_locks(self, txn: Transaction) -> Generator[Any, Any, None]:
        """Release held locks in reverse acquisition order, clearing the
        wait-die stamps first.  Fence-tolerant: once fenced, the master
        owns the words and this client must stop touching them."""
        client = self.client
        for gaddr in reversed(txn.held):
            try:
                meta = yield from client._metas.lookup(gaddr)
                yield from self._write_stamp(meta, 0)
                yield from client.locks.release_write(gaddr)
            except FencedError:
                break
            except (RetryableError, TxnError):
                # Unreachable server: its lock table died with it (or the
                # lease sweep will reclaim the word) — move on rather than
                # wedging the abort path.
                continue
        txn.held.clear()

    def _validate_epoch(self) -> Generator[Any, Any, None]:
        self.client._check_lease_fence("txn-commit")
        return
        yield  # pragma: no cover — generator shape for resilient

    # ------------------------------------------------------------------
    # The retry harness
    # ------------------------------------------------------------------
    def run(self, gaddrs: Iterable[int], body,
            max_attempts: int = 16) -> Generator[Any, Any, Any]:
        """Run ``body(txn)`` (a process helper) as one transaction,
        retrying wait-die deaths under the same stamp until it commits.

        Returns ``body``'s return value.  Any other exception aborts (if
        the txn is still active) and propagates.
        """
        lock_set = tuple(sorted(set(gaddrs)))
        stamp = pack_stamp(self.sim.now, self.client.uid)
        for attempt in range(1, max_attempts + 1):
            try:
                txn = yield from self.begin(lock_set, stamp=stamp)
            except TxnWaitDieError:
                if attempt >= max_attempts:
                    raise
                yield self.client.retry_policy.backoff_ns(
                    attempt, self.client._driver.jitter_rng())
                continue
            try:
                result = yield from body(txn)
            except BaseException:
                if txn.active and not txn.committed:
                    yield from self.abort(txn)
                raise
            yield from self.commit(txn)
            return result
        raise TxnWaitDieError(
            f"transaction starved after {max_attempts} wait-die attempts")
