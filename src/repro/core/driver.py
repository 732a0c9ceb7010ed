"""The op driver: the one ladder every client verb runs through (history →
span → retry policy → precheck → attempt → accounting), the coalesced
re-attach gates a failed attempt repairs through, and the typed verdict on
a failed completion."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter
from typing import (TYPE_CHECKING, Any, Callable, Dict, Generator, Iterable, NamedTuple,
                    Optional)

from repro.core.config import GengarConfig
from repro.core.errors import (ClientError, DeadlineExceededError, FatalError, FencedError,
                               LeaseExpiredError, MasterUnavailableError, PartitionSuspected,
                               RetryableError, ServerUnavailableError, StaleRingError,
                               StaleTermError)
from repro.rdma.rpc import RpcError
from repro.rdma.wr import WcStatus

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.client import GengarClient


@dataclass(frozen=True)
class RetryPolicy:
    """How a client reacts to retryable failures.

    Every client retries: up to eight attempts per op, backing off between
    them, and re-attaching to a restarted server or master before the next
    attempt.  Only the deadline comes from the config.
    """

    #: Attempts per op before the RetryableError propagates.
    max_attempts: int = 8
    #: First backoff; doubles per attempt, capped at ``max_backoff_ns``.
    base_backoff_ns: int = 2_000
    max_backoff_ns: int = 50_000
    #: Per-op virtual-time budget; 0 disables the deadline watchdog.
    deadline_ns: int = 0

    @classmethod
    def from_config(cls, config: GengarConfig) -> "RetryPolicy":
        return cls(deadline_ns=config.op_deadline_ns)

    def backoff_ns(self, attempt: int, rng) -> int:
        """Delay before retry number ``attempt`` (1-based): drawn from the
        seeded ``rng`` in [base, current step] once the step has doubled."""
        delay = min(self.base_backoff_ns << min(attempt - 1, 20),
                    self.max_backoff_ns)
        if delay > self.base_backoff_ns:
            return rng.randrange(self.base_backoff_ns, delay + 1)
        return delay


#: The policy of verbs that do not retry as a whole (batch and lock verbs).
_ONE_ATTEMPT = RetryPolicy(max_attempts=1)


def wc_error(wc, what: str, conn, ring: bool = False) -> ClientError:
    """The typed error of a failed completion (raise it)."""
    status = wc.status
    if status is WcStatus.RETRY_EXCEEDED:
        return ServerUnavailableError(
            f"{what} failed: {status}", server_id=conn.desc.server_id)
    if ring and status is WcStatus.REMOTE_ACCESS_ERROR:
        # The ring MR was deregistered by a server restart; the data /
        # cache / lock MRs survive, so only ring traffic maps here.
        return StaleRingError(
            f"{what} failed: {status} (ring torn down by a restart)",
            server_id=conn.desc.server_id)
    return FatalError(f"{what} failed: {status}")


def stale_error(what: str) -> FencedError:
    """The error of an op begun before the client's last restart."""
    return FencedError(f"{what}: begun before this client restarted")


class OpDriver:
    """One client's op driver; the only owner of its retry jitter stream
    and its re-attach gates."""

    __slots__ = ("client", "sim", "_verbs", "_rng", "server_gates",
                 "master_gates")

    def __init__(self, client: "GengarClient"):
        self.client = client
        self.sim = client.sim
        #: name -> (its :class:`_Verb` row, its attempt bound to the client).
        self._verbs = {name: (verb, verb.attempt(client))
                       for name, verb in _VERBS.items()}
        self._rng = None  # seeded jitter stream, created on first use
        #: In-flight re-attach gates, one per server and one per master
        #: shard (:meth:`gated`); a kill forgets them.
        self.server_gates: Dict[int, Any] = {}
        self.master_gates: Dict[int, Any] = {}

    def jitter_rng(self):
        if self._rng is None:
            self._rng = self.sim.rng.stream(f"{self.client.name}.retry")
        return self._rng

    def op(self, name: str, *args: Any,
           history: bool = True) -> Generator[Any, Any, Any]:
        """Run verb ``name``: every data and lock verb is one call into here.

        One ladder, in this order: history invoke → ``op.<name>`` span (its
        op id minted up front, so every phase of the op can repeat it) →
        retry policy → per-attempt attach + lease-fence precheck → the
        verb's attempt body → logical-op accounting → history completion.
        What differs per verb is data: its :class:`_Verb` row.

        ``history=False`` is the no-history entry for ops the library (or a
        layer above it: txn reads, audits) issues on its own behalf — same
        span, retries and accounting, no history event.

        With no recorder installed nothing is built per op: the attempt
        travels as function + args, and history / span fields are computed
        only under their ``is not None`` checks.
        """
        verb, attempt = self._verbs[name]
        client, sim = self.client, self.sim
        hist = sim.history if history else None
        rec = sim.spans
        start = sim.now
        toks: Any = ()
        if hist is not None:
            toks = [hist.invoke(client.name, verb.kind, key, **fields)
                    for key, fields in verb.events(client, hist.encode, *args)]
        span_op = rec.next_op() if rec is not None else 0
        try:
            result = yield from self.resilient(
                name, attempt, span_op, *args,
                retries=verb.retries, span_op=span_op,
                fenced=(verb.lease_shards, args) if verb.data else None)
        except BaseException as exc:
            if hist is not None:
                complete = hist.info if verb.may_land else hist.fail
                for tok in toks:
                    complete(tok, exc)
            raise
        finally:
            if rec is not None:
                rec.record(client.name, "op." + name, start, op=span_op,
                           **verb.span_fields(*args))
        if verb.tally:
            # Logical-op accounting: one count and one first-attempt-to-
            # completion sample per op, however many attempts it took.
            if verb.kind == "read":
                client.m_reads.add()
                client.h_read.record(sim.now - start)
            else:
                client.m_writes.add()
                client.h_write.record(sim.now - start)
        if hist is not None:
            for tok, value in zip(toks, verb.ok_values(client, hist.encode,
                                                       result)):
                hist.ok(tok, value=value)
        return result

    def resilient(self, op: str, attempt: Callable[..., Generator], *args: Any,
                  retries: bool = True, fenced: Optional[tuple] = None,
                  span_op: int = 0) -> Generator[Any, Any, Any]:
        """Run ``attempt(*args)`` under the client's :class:`RetryPolicy`
        (``retries=False``: exactly once — the batch verbs retry per item
        through their serial fallbacks, the lock verbs in their CAS loop).
        ``fenced``, a data verb's ``(lease_shards, args)``, starts every
        attempt with the data-plane precheck against the lease of each
        shard in ``lease_shards(client, *args)``.  A lapse the precheck
        finds is probed before the next attempt (:meth:`between_attempts`);
        on the last attempt (the one attempt of a one-attempt policy),
        before that attempt, here.

        Pay-as-you-go: without a deadline an attempt that succeeds is a
        plain ``yield from`` — retries, backoff and re-attach cost simulated
        events only once something has failed.
        """
        client = self.client
        policy = client.retry_policy if retries else _ONE_ATTEMPT
        start = self.sim.now
        incarnation = client._incarnation
        tries = 1
        probed = False
        while True:
            try:
                if fenced is not None:
                    client._require_attached()
                    if client.lease_ns:
                        lease_shards, verb_args = fenced
                        try:
                            client._check_lease_fence(
                                op, shards=lease_shards(client, *verb_args))
                        except LeaseExpiredError as exc:
                            if tries < policy.max_attempts or probed:
                                raise
                            # No attempt left: probe here, as a retry would.
                            probed = True
                            yield from client._shards[exc.shard].lapse_probe(op)
                            if client._incarnation != incarnation:
                                raise stale_error(op)
                            continue
                if policy.deadline_ns:
                    result = yield from self._attempt_with_deadline(
                        op, start, policy, attempt, args)
                else:
                    result = yield from attempt(*args)
                return result
            except RetryableError as exc:
                if tries >= policy.max_attempts:
                    raise
                if (policy.deadline_ns
                        and self.sim.now - start >= policy.deadline_ns):
                    client.m_deadline_misses.add()
                    raise DeadlineExceededError(
                        f"{op} gave up after {self.sim.now - start} ns "
                        f"(deadline {policy.deadline_ns} ns): {exc}") from exc
                yield from self.between_attempts(op, exc, tries, policy,
                                                 incarnation, span_op)
                tries += 1

    def between_attempts(self, op: str, exc: RetryableError, tries: int,
                         policy: RetryPolicy, incarnation: int,
                         span_op: int = 0) -> Generator[Any, Any, None]:
        """After failed attempt ``tries``: count the retry, repair what the
        error names (a server or master re-attach, a lease probe), then
        back off.  An op begun before a restart (``incarnation`` is stale)
        fails instead, before the repair and after the backoff."""
        client = self.client
        if client._incarnation != incarnation:
            raise stale_error(op)
        client.m_retries.add()
        rec = self.sim.spans
        if rec is not None:
            rec.event(client.name, "retry", f"{op} attempt {tries} failed",
                      cause=type(exc).__name__)
        server_id = getattr(exc, "server_id", None)
        if server_id is not None:
            yield from self.auto_reattach(server_id)
        elif isinstance(exc, LeaseExpiredError):
            # May raise FencedError: a lapse the master resolved by
            # retiring our epoch is terminal, not retryable.
            yield from client._shards[exc.shard].lapse_probe(op)
        elif isinstance(exc, (MasterUnavailableError,
                              PartitionSuspected, StaleTermError)):
            # All three mean "the control plane, not this op, is the
            # problem": re-attach the shard that failed (rotating to a
            # standby master if wired) before burning the next attempt.
            yield from self.auto_reattach_master(getattr(exc, "shard", 0))
        rec = self.sim.spans
        t_wait = self.sim.now if rec is not None else 0
        yield policy.backoff_ns(tries, self.jitter_rng())
        if rec is not None:
            rec.record(client.name, "phase.retry_wait", t_wait, op=span_op,
                       attempt=tries, cause=type(exc).__name__)
        if client._incarnation != incarnation:
            raise stale_error(op)

    def _attempt_with_deadline(self, op: str, start: int, policy: RetryPolicy,
                               attempt: Callable[..., Generator],
                               args: tuple) -> Generator[Any, Any, Any]:
        """One attempt raced against the remaining deadline budget.

        A timed-out attempt is *abandoned*, never interrupted: an interrupt
        would run the attempt's ``finally`` blocks and hand its scratch span
        to the next op while its WR is still in flight and about to DMA
        into it.  The orphan runs to completion in the background — its
        buffers are released and a failure with no waiters is stored
        silently — while the caller gets the typed deadline error now.
        """
        client, sim = self.client, self.sim
        remaining = policy.deadline_ns - (sim.now - start)
        if remaining <= 0:
            client.m_deadline_misses.add()
            raise DeadlineExceededError(
                f"{op} deadline of {policy.deadline_ns} ns exhausted")
        proc = sim.spawn(attempt(*args), name=f"{client.name}.{op}")
        timer = sim.timeout(remaining)
        # A failed attempt fails the any_of, re-raising its typed error here.
        yield sim.any_of([proc, timer])
        if proc.triggered:
            return proc.value  # raises the attempt's failure, if any
        client.m_deadline_misses.add()
        rec = sim.spans
        if rec is not None:
            rec.event(client.name, "retry", f"{op} abandoned at deadline",
                      elapsed_ns=sim.now - start)
        raise DeadlineExceededError(
            f"{op} exceeded its {policy.deadline_ns} ns deadline")

    # ------------------------------------------------------------------
    # Re-attach gates
    # ------------------------------------------------------------------
    def gated(self, gates: Dict[int, Any], key: int, gate_name: str,
              handshake) -> Generator[Any, Any, Any]:
        """Run ``handshake(key)`` holding ``key``'s gate, once any handshake
        already in flight for it is done: an op that fails meanwhile waits
        on the gate (:meth:`_recover`) instead of running its own."""
        while key in gates:
            yield gates[key]
        gate = gates[key] = self.sim.event(name=gate_name)
        try:
            return (yield from handshake(key))
        finally:
            del gates[key]
            gate.succeed()

    def _recover(self, gates: Dict[int, Any], key: int, gate_name: str,
                 handshake, ok: str, failed: str, on_ok, on_fail=None,
                 **where: Any) -> Generator[Any, Any, None]:
        """A coalesced re-attach and the one handler of its outcome: the
        first failed op runs ``handshake(key)`` under the gate (:meth:`gated`),
        the rest wait on it.  A success is an ``ok`` event with the fields
        ``on_ok(result)`` returns; a failure is swallowed (the caller backs
        off and retries) as a ``failed`` event, then ``on_fail()``."""
        gate = gates.get(key)
        if gate is not None:
            yield gate
            return
        try:
            result = yield from self.gated(gates, key, gate_name, handshake)
        except (RetryableError, RpcError) as exc:
            rec = self.sim.spans
            if rec is not None:
                rec.event(self.client.name, "failover", failed, **where,
                          cause=type(exc).__name__)
            if on_fail is not None:
                on_fail()
            return
        fields = on_ok(result)
        rec = self.sim.spans
        if rec is not None:
            rec.event(self.client.name, "failover", ok, **where, **fields)

    def auto_reattach(self, server_id: int) -> Generator[Any, Any, None]:
        """Coalesced server re-attach; a success is a failover and one
        :attr:`~repro.core.client.GengarClient.fault_log` record."""
        client = self.client

        def reattached(lost: list) -> dict:
            client.m_failovers.add()
            if lost:
                client.m_lost_writes.add(len(lost))
            client.fault_log.append({
                "time_ns": self.sim.now,
                "server_id": server_id,
                "lost": lost,
            })
            return {"lost": len(lost)}

        return self._recover(
            self.server_gates, server_id, f"{client.name}.reattach{server_id}",
            client._reattach_server, "re-attached", "re-attach failed",
            reattached, server=server_id)

    def auto_reattach_master(self, shard: int = 0) -> Generator[Any, Any, None]:
        """Coalesced master re-attach, one gate per shard: other shards
        re-attach independently.  A failure moves the next retry to the
        shard's next wired master (no-op without standbys): an unreachable
        or deposed master should not absorb the whole retry budget when a
        live one exists."""
        client = self.client

        def reattached(_) -> dict:
            client.m_master_failovers.add()
            return {"epoch": client.fence_epoch}

        return self._recover(
            self.master_gates, shard,
            f"{client.name}.reattach_master" + (f"_s{shard}" if shard else ""),
            client.reattach_master, "re-attached to master",
            "master re-attach failed", reattached, client._shards[shard].rotate,
            shard=shard)


class _Verb(NamedTuple):
    """What the op driver (:meth:`OpDriver.op`) knows about one verb."""

    #: ``client`` → the verb's attempt, ``attempt(span_op, *args)``.
    attempt: Callable[..., Callable[..., Generator]]
    #: History op kind; a failed op records ``fail`` (it took no effect) or,
    #: with ``may_land``, ``info`` (an abandoned attempt may still land).
    kind: str
    #: ``(client, encode, *args)`` → one ``(key, invoke fields)`` per
    #: history event (the batch verbs record one event per item, all
    #: sharing the batch's time window — conservative but sound).
    events: Callable[..., list]
    #: ``(*args)`` → fields of the ``op.<name>`` span.
    span_fields: Callable[..., dict]
    #: ``(client, encode, result)`` → the ``ok`` value of each event.
    ok_values: Callable[..., Any] = lambda c, enc, result: repeat(None)
    may_land: bool = False
    #: The whole op retries under the client's :class:`RetryPolicy`.
    retries: bool = False
    #: Data verb: each attempt starts with the attach + lease-fence
    #: precheck (the lock verbs resolve their fence in the lock layer).
    data: bool = True
    #: ``(client, *args)`` → the master shards whose leases the precheck
    #: tests: the owners of the objects or servers the verb touches.  No
    #: default: every data verb names its own.
    lease_shards: Optional[Callable[..., Iterable[int]]] = None
    #: Counted and latency-sampled per logical op, under its kind (the
    #: batch verbs account per item in their attempt bodies).
    tally: bool = False


def _lock_event(c, enc, gaddr, write):
    # The epoch rides the event: the checker's monotonic-epoch model asserts
    # no lock is ever acquired under an epoch below one a later holder
    # already presented (a fenced zombie re-locking).
    return [(gaddr, {"write": write, "epoch": c.fence_epoch})]


def _lock_span(gaddr, write):
    return {"gaddr": hex(gaddr), "write": write}


_VERBS = {
    "gread": _Verb(
        attrgetter("_reads.gread"), "read",
        lambda c, enc, gaddr, offset, length:
            [(gaddr, {"offset": offset, "length": length})],
        lambda gaddr, offset, length: {"gaddr": hex(gaddr)},
        ok_values=lambda c, enc, data: (enc(data),),
        retries=True, tally=True,
        lease_shards=lambda c, gaddr, offset, length: (c._resolve_shard(gaddr),)),
    "gwrite": _Verb(
        attrgetter("_gwrite_attempt"), "write",
        lambda c, enc, gaddr, data, offset:
            [(gaddr, {"value": enc(data), "offset": offset,
                      "length": len(data)})],
        lambda gaddr, data, offset: {"gaddr": hex(gaddr), "bytes": len(data)},
        may_land=True, retries=True, tally=True,
        lease_shards=lambda c, gaddr, data, offset: (c._resolve_shard(gaddr),)),
    "gsync": _Verb(
        attrgetter("_gsync_attempt"), "sync",
        lambda c, enc, server_id: [(None, {"server": server_id})],
        lambda server_id: {},
        may_land=True, retries=True,  # staged writes may drain anyway
        lease_shards=lambda c, server_id: range(c._num_shards)
            if server_id is None else (c._server_shard(server_id),)),
    "gread_many": _Verb(
        attrgetter("_reads.gread_many"), "read",
        lambda c, enc, gaddrs: [(g, {}) for g in gaddrs],
        lambda gaddrs: {"reads": len(gaddrs)},
        ok_values=lambda c, enc, results: map(enc, results),
        lease_shards=lambda c, gaddrs:
            sorted({c._resolve_shard(g) for g in gaddrs})),
    "glock": _Verb(  # a failed acquire holds nothing
        attrgetter("_glock_attempt"), "lock", _lock_event, _lock_span,
        ok_values=lambda c, enc, result: (c.fence_epoch,), data=False),
    "gunlock": _Verb(
        attrgetter("_gunlock_attempt"), "unlock", _lock_event, _lock_span,
        ok_values=lambda c, enc, result: (c.fence_epoch,), data=False),
}
