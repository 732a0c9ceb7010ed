"""The Gengar client library.

All application access to the pool goes through this class, which is exactly
what lets Gengar harvest access semantics for free: every ``gread``/``gwrite``
the library posts is also an access record, batched and piggybacked to the
master (see :mod:`repro.core.hotness`).

Data-plane routing per operation:

* **read, object cached** → one RDMA READ of the home server's DRAM cache
  slot (self-verifying tag; a mismatch means stale metadata: the client
  re-reads the NVM home while a lookup runs, and keeps those bytes once
  the lookup returns),
* **read, uncached** → one RDMA READ of the NVM home,
* **write, proxy on** → one RDMA WRITE_WITH_IMM into the client's private
  ring in server DRAM; completion at DRAM latency, NVM updated by the
  server's drain loop off the critical path,
* **write, proxy off** → RDMA WRITE to NVM (plus a verified cache update
  when a DRAM copy exists).

Reads of objects with still-undrained proxy writes are served from the
client's local overlay, so every client observes its own writes.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from itertools import repeat
from typing import (TYPE_CHECKING, Any, Callable, Deque, Dict, Generator,
                    NamedTuple, Optional, Tuple)

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node
    from repro.rdma.qp import QueuePair
    from repro.rdma.rpc import RpcClient
    from repro.sim.kernel import Process

from repro.core.addressing import server_of
from repro.core.config import GengarConfig
from repro.core.consistency import LockOps
from repro.core.errors import (
    ClientError,
    DeadlineExceededError,
    FatalError,
    FencedError,
    LeaseExpiredError,
    LockTimeoutError,
    MasterUnavailableError,
    NotMyShard,
    PartitionSuspected,
    RetryableError,
    ServerUnavailableError,
    StaleRingError,
    StaleTermError,
    TxnAbortedError,
    TxnError,
    TxnWaitDieError,
)
from repro.core.layout import DramCarver
from repro.core.protocol import (
    CACHE_TAG_BYTES,
    PROXY_COMMIT_BYTES,
    ObjectMeta,
    RingDescriptor,
    ServerDescriptor,
    pack_proxy_commit,
    pack_proxy_slot,
    proxy_payload_capacity,
    tag_matches,
)
from repro.core.server import ReadCombineGroup
from repro.rdma.cq import CompletionMux
from repro.rdma.mr import AccessFlags
from repro.rdma.rpc import RpcError
from repro.rdma.wr import Opcode, WcStatus, WorkRequest

__all__ = [
    "GengarClient",
    "RetryPolicy",
    "ClientError",
    "FatalError",
    "RetryableError",
    "ServerUnavailableError",
    "MasterUnavailableError",
    "StaleRingError",
    "FencedError",
    "DeadlineExceededError",
    "LockTimeoutError",
    "TxnError",
    "TxnAbortedError",
    "TxnWaitDieError",
]


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
    #: Randomize each backoff in [base, current] (seeded stream).
    jitter: bool = True
    #: Per-op virtual-time budget; 0 disables the deadline watchdog.
    deadline_ns: int = 0

    @classmethod
    def from_config(cls, config: GengarConfig) -> "RetryPolicy":
        return cls(deadline_ns=config.op_deadline_ns)

    def backoff_ns(self, attempt: int, rng) -> int:
        """Delay before retry number ``attempt`` (1-based)."""
        delay = min(self.base_backoff_ns << min(attempt - 1, 20),
                    self.max_backoff_ns)
        if self.jitter and delay > self.base_backoff_ns:
            return rng.randrange(self.base_backoff_ns, delay + 1)
        return delay


#: The policy of verbs that do not retry as a whole (batch and lock verbs).
_ONE_ATTEMPT = RetryPolicy(max_attempts=1)


@dataclass
class _PendingWrite:
    """Read-your-writes overlay entry for one object."""

    offset: int
    data: bytes
    server_id: int
    seq: int  # the ring sequence number of the staging write


@dataclass
class _ServerConn:
    """Client-side state for one memory server."""

    desc: ServerDescriptor
    #: Data QPs to the server ("read lanes").  Lane 0 is the ordered lane:
    #: writes, proxy WRITE_IMMs and atomics stay on it, so their per-QP
    #: order holds; only RDMA READs spread across the lanes.
    lanes: Tuple["QueuePair", ...]
    rpc: "RpcClient"
    ring: Optional[RingDescriptor] = None
    written: int = 0  # proxy writes issued
    drained_known: int = 0  # last drained-counter value observed
    reads_posted: int = 0  # round-robin cursor over the lanes

    @property
    def data_qp(self) -> "QueuePair":
        """The ordered lane."""
        return self.lanes[0]

    def read_lane(self) -> "QueuePair":
        """The lane the next RDMA READ goes out on (round-robin)."""
        qp = self.lanes[self.reads_posted % len(self.lanes)]
        self.reads_posted += 1
        return qp


#: The registered bounce region for RDMA payloads, and the largest single
#: transfer through it (bigger reads and writes are chunked).
_SCRATCH_BYTES = 4 * 1024 * 1024
_MAX_TRANSFER = 256 * 1024
#: Scratch is lent in whole lines.
_SCRATCH_LINE = 64


class _Scratch:
    """The client's bounce region, lent by the byte.

    A transfer holds only its own span, rounded up to a whole line (at
    least one, so an empty transfer still owns its offset): first fit over
    the free runs in offset order, given back with :meth:`free`, which
    coalesces it with its free neighbours.  A taker that does not fit waits
    on :meth:`wait`'s event; waiters are served strictly in arrival order,
    so :meth:`try_alloc` fails while anyone waits and a large transfer is
    never starved by a stream of small ones.
    """

    __slots__ = ("sim", "size", "_runs", "_waiters")

    def __init__(self, sim, size: int):
        self.sim = sim
        self.size = size
        #: Free ``[lo, hi)`` runs, in offset order, never adjacent.
        self._runs: list = [[0, size]]
        #: ``(nbytes, event)`` of each waiting taker, oldest first.
        self._waiters: Deque[tuple] = deque()

    def _fit(self, nbytes: int) -> Optional[int]:
        need = (nbytes + _SCRATCH_LINE - 1) & -_SCRATCH_LINE or _SCRATCH_LINE
        runs = self._runs
        for i, run in enumerate(runs):
            lo = run[0]
            left = run[1] - lo - need
            if left >= 0:
                if left:
                    run[0] = lo + need
                else:
                    del runs[i]
                return lo
        return None

    def try_alloc(self, nbytes: int) -> Optional[int]:
        """Lend ``nbytes`` now: the offset, or None when no free run fits
        or an earlier taker is waiting."""
        return None if self._waiters else self._fit(nbytes)

    def wait(self, nbytes: int):
        """The event, to be yielded, that fires with the offset of
        ``nbytes`` once every earlier waiter is served and they fit."""
        event = self.sim.event()
        self._waiters.append((nbytes, event))
        return event

    def free(self, offset: int, nbytes: int) -> None:
        """Take back the ``nbytes`` lent at ``offset``, then serve waiters
        in order while the oldest fits."""
        hi = offset + ((nbytes + _SCRATCH_LINE - 1) & -_SCRATCH_LINE
                       or _SCRATCH_LINE)
        runs = self._runs
        i = bisect_left(runs, [offset])
        after = runs[i] if i < len(runs) and runs[i][0] == hi else None
        if i and runs[i - 1][1] == offset:
            before = runs[i - 1]
            if after is None:
                before[1] = hi
            else:
                before[1] = after[1]
                del runs[i]
        elif after is not None:
            after[0] = offset
        else:
            runs.insert(i, [offset, hi])
        waiters = self._waiters
        while waiters:
            got = self._fit(waiters[0][0])
            if got is None:
                return
            waiters.popleft()[1].succeed(got)

    @property
    def idle(self) -> bool:
        """True when the whole region is free and nobody waits."""
        return self._runs == [[0, self.size]] and not self._waiters


#: Consecutive master transport failures before the client's verdict
#: upgrades from "one lost RPC" to "the path to the master is partitioned".
_SUSPECT_STREAK = 3

#: What a shard's "not my shard" rejection looks like on the wire; the
#: client parses the owning shard and map epoch out of it to correct its
#: cached shard map before retrying at the right shard.
_NOT_MY_SHARD_RE = re.compile(
    r"not my shard: server (\d+) is owned by shard (\d+), "
    r"not shard (\d+) \(map epoch (\d+)\)")


class GengarClient:
    """One application's handle on the pool.

    All public operations are *process helpers*: call them with
    ``yield from`` inside a simulation process.
    """

    def __init__(self, node: "Node", config: GengarConfig, name: str = ""):
        self.node = node
        self.sim = node.sim
        self.name = name or node.name
        self.config = config
        self.master_rpc: Optional["RpcClient"] = None  # shard-0 active conn
        #: Per-shard master connections in rotation order (active +
        #: standbys); shard 0 is the only populated entry on an unsharded
        #: pool.
        self._shard_rpcs: Dict[int, list] = {}
        #: Per-shard active connection — what :meth:`_master_call` dials.
        self._shard_active: Dict[int, "RpcClient"] = {}
        #: Highest master term observed in any reply, tracked PER SHARD
        #: (``master_terms``): every shard runs its own term sequence, so
        #: a failover on one shard must not make another shard's perfectly
        #: healthy replies look stale.  Replies below a shard's floor are
        #: deposed-master echoes and are rejected.
        self._master_terms: Dict[int, int] = {}
        #: Consecutive master transport failures, per shard; at the
        #: suspicion streak the failure is reported as PartitionSuspected,
        #: not just one more MasterUnavailableError.
        self._master_fail_streaks: Dict[int, int] = {}
        #: Client-side shard map (home server id -> owning shard), learned
        #: at attach and corrected lazily by "not my shard" redirects that
        #: carry a map epoch at least as new as the one cached here.
        self._shard_map: Dict[int, int] = {}
        self._shard_map_epoch = 0
        self._num_shards = config.num_master_shards
        #: Round-robin cursor spreading gmallocs across shards.
        self._alloc_rr = 0
        #: req_id -> shard memo: every retry of one logical gmalloc must
        #: re-present its idempotency token to the SAME shard (or, after a
        #: redirect, to the shard that inherited the dedup entry).
        self._req_shards: Dict[int, int] = {}
        self._conns: Dict[int, _ServerConn] = {}
        self._meta_cache: Dict[int, ObjectMeta] = {}
        # Epoch-based invalidation: each entry remembers the per-server epoch
        # it was learned under; bumping a server's epoch (reattach) devalues
        # every entry for that server in O(1) instead of scanning the cache.
        self._meta_epoch: Dict[int, int] = {}
        self._srv_epoch: Dict[int, int] = {}
        #: Per-shard cursor into the master's location log: the next report
        #: to a shard brings every cache-location change it made since.
        self._loc_cursors: Dict[int, int] = {}
        self._overlay: Dict[int, _PendingWrite] = {}
        self._access_counts: Dict[int, list] = {}  # gaddr -> [reads, writes]
        self._ops_since_report = 0
        self._report_inflight = False
        self.locks = LockOps(self)
        #: Lazily constructed transaction engine (see the ``txn`` property);
        #: stays None — zero cost — unless transactions are actually used.
        self._txn_manager = None
        self._attached = False
        #: Unique id assigned by the master at attach; tags write locks so
        #: abandoned ones are attributable and recoverable.
        self.uid = 0
        #: Monotone per-client sequence for idempotency tokens: one req_id
        #: per *logical* gmalloc/gfree, reused verbatim across retries so
        #: the master can deduplicate an execute-then-crash replay.
        self._req_seq = 0
        self.retry_policy = RetryPolicy.from_config(config)
        self._retry_rng = None  # seeded jitter stream, created on first use
        #: In-flight auto-reattach gates, one per server: concurrent failed
        #: ops coalesce onto a single re-attach handshake.
        self._reattach_gates: Dict[int, Any] = {}
        #: Coalescing gates for master re-attach, one per shard (same
        #: pattern as the per-server gates above).
        self._reattach_master_gates: Dict[int, Any] = {}
        # ---- lease / fencing state (all inert while lease_ns == 0) ------
        #: Lease duration granted by the master at attach; 0 = leases off.
        self.lease_ns = 0
        #: Virtual time at which the current lease lapses.
        self.lease_deadline = 0
        #: Fencing epoch carried in every lock word this client installs.
        self.fence_epoch = 0
        self._fenced = False
        self._heartbeat_proc = None
        self._last_renew_ns = 0
        #: Last successfully staged proxy write (server_id, gaddr, offset,
        #: data) — what a torn-write fault injection would re-stage halfway.
        self._last_staged: Optional[tuple] = None
        #: One record per completed re-attach: {"time_ns", "server_id",
        #: "lost"} — the durability audit trail (each lost staged write is
        #: reported in exactly one record).
        self.fault_log: list = []

        # Local scratch buffers for DMA sources/destinations.
        self._carver = DramCarver(node.dram)
        self._scratch_base: Optional[int] = None
        self._scratch_mr = None
        self._scratch: Optional[_Scratch] = None

        m = self.sim.metrics
        self.m_reads = m.counter("pool.reads")
        self.m_writes = m.counter("pool.writes")
        self.m_cache_hits = m.counter("pool.cache_hits")
        self.m_nvm_reads = m.counter("pool.nvm_reads")
        self.m_overlay_hits = m.counter("pool.overlay_hits")
        self.m_tag_misses = m.counter("pool.tag_misses")
        self.m_proxy_writes = m.counter("pool.proxy_writes")
        self.m_direct_writes = m.counter("pool.direct_writes")
        self.m_lookups = m.counter("pool.lookups")
        self.m_retries = m.counter("pool.retries")
        self.m_failovers = m.counter("pool.failovers")
        self.m_lost_writes = m.counter("pool.lost_staged_writes")
        self.m_deadline_misses = m.counter("pool.deadline_misses")
        self.m_lease_renewals = m.counter("pool.lease_renewals")
        self.m_fence_rejections = m.counter("pool.fence_rejections")
        self.m_master_failovers = m.counter("pool.master_failovers")
        self.m_lease_lapses = m.counter("pool.lease_lapses")
        self.m_stale_terms = m.counter("pool.stale_term_rejections")
        self.m_partition_suspected = m.counter("pool.partition_suspected")
        self.m_shard_redirects = m.counter("pool.shard_redirects")
        self.m_location_updates = m.counter("pool.location_updates")
        self.m_location_resyncs = m.counter("pool.location_resyncs")
        self.h_read = m.histogram("pool.read_latency")
        self.h_write = m.histogram("pool.write_latency")
        #: Per-doorbell batch sizes from gread_many — mean = effective
        #: read-pipelining depth, reported by the perf harness.
        self.h_read_batch = m.histogram("pool.read_batch")

    # ------------------------------------------------------------------
    @property
    def fenced(self) -> bool:
        """True once the master has fenced this client's epoch (its locks
        were recovered); every lock op raises FencedError until
        :meth:`reattach_master`."""
        return self._fenced

    @property
    def crashed(self) -> bool:
        return not self.node.endpoint.alive

    def _check_lease_fence(self, what: str,
                           gaddr: Optional[int] = None) -> None:
        """Lease fencing (the FaRM rule): a client whose lease has lapsed —
        or that the master already fenced — must not touch the pool.  Its
        locks may have been recovered and handed to a new holder; letting
        a zombie's RDMA WRITE (or its ``CAS(0 -> word)`` on a free lock
        word) race the new owner's critical section would corrupt exactly
        the data the lock protects.  Data verbs check per attempt, lock
        ops per acquire/release (naming the ``gaddr``).  Inert with leases
        off (``lease_ns == 0``), so the fault-free path pays nothing.
        """
        if not self.lease_ns:
            return
        fields = {} if gaddr is None else {"gaddr": hex(gaddr)}
        where = what if gaddr is None else f"{what} of {gaddr:#x}"
        if self._fenced:
            self.m_fence_rejections.add()
            rec = self.sim.spans
            if rec is not None:
                rec.event(self.name, "fence", f"{what} refused: epoch fenced",
                          **fields)
            raise FencedError(
                f"{where}: master fenced this epoch; "
                "reattach_master() to rejoin under a fresh epoch")
        if self.sim.now >= self.lease_deadline:
            # The deadline lapsed *locally* but the master never said
            # "fenced" — typically the master was unreachable longer than
            # one lease (its own retry backoff can outlast the lease).
            # That is a retryable condition, not a terminal one: the
            # resilience engine re-attaches (fresh lease, same epoch) and
            # retries, instead of a zombie-style self-fence.
            self.m_fence_rejections.add()
            self.m_lease_lapses.add()
            rec = self.sim.spans
            if rec is not None:
                rec.event(self.name, "lease",
                          f"{what} parked: lease lapsed locally", **fields)
            raise LeaseExpiredError(
                f"{where}: lease deadline lapsed locally; re-attach to "
                "renew before retrying")

    # ------------------------------------------------------------------
    # Wiring + attach (called by the deployment bootstrap)
    # ------------------------------------------------------------------
    def carve_dram(self, nbytes: int, label: str) -> int:
        """Reserve client DRAM for connection buffers (bootstrap helper)."""
        return self._carver.carve(nbytes, label)

    def add_server_conn(self, desc: ServerDescriptor,
                        lanes: Tuple["QueuePair", ...],
                        rpc: "RpcClient") -> None:
        self._conns[desc.server_id] = _ServerConn(desc=desc, lanes=lanes, rpc=rpc)

    def add_master_conn(self, rpc: "RpcClient", shard: int = 0) -> None:
        """Register a master control connection (active or standby) for one
        shard.  The first one registered for a shard becomes that shard's
        active master; the rest are the rotation order
        :meth:`_rotate_master` walks on failover."""
        rots = self._shard_rpcs.setdefault(shard, [])
        if rpc not in rots:
            rots.append(rpc)
        if shard not in self._shard_active:
            self._shard_active[shard] = rpc
        if shard == 0 and self.master_rpc is None:
            self.master_rpc = rpc

    def _rotate_master(self, shard: int = 0) -> None:
        """Point the shard's control plane at its next wired master (no-op
        without standbys).  Stale-term protection makes this safe to do
        eagerly: if the rotation lands on a deposed master, its replies
        carry a term below the one we have seen and are rejected, rotating
        us onward."""
        rots = self._shard_rpcs.get(shard, [])
        if len(rots) < 2:
            return
        try:
            i = rots.index(self._shard_active.get(shard))
        except ValueError:
            i = -1
        self._shard_active[shard] = rots[(i + 1) % len(rots)]
        if shard == 0:
            self.master_rpc = self._shard_active[0]
        rec = self.sim.spans
        if rec is not None:
            rec.event(self.name, "failover", "rotated to next master",
                      shard=shard)

    def _learn_redirect(self, msg: str) -> tuple:
        """Parse a "not my shard" rejection and fold the ownership it
        reveals into the client-side shard map (newest map epoch wins).
        Returns ``(owner_shard, map_epoch)`` — both None/stale-safe."""
        m = _NOT_MY_SHARD_RE.search(msg)
        if m is None:
            return None, self._shard_map_epoch
        sid, owner, _asked, epoch = (int(g) for g in m.groups())
        if epoch >= self._shard_map_epoch:
            if self._server_shard(sid) != owner:
                # The new owner's log names the records it adopted, but
                # only to a cursor that predates the adoption: forget
                # their locations rather than rely on that.
                self._shard_map[sid] = owner
                self._resync_locations([sid])
            self._shard_map_epoch = epoch
        return owner, epoch

    def _master_call(self, method: str, payload,
                     shard: int = 0) -> Generator[Any, Any, Any]:
        """Call one master shard, mapping transport failures and the
        recovering window into the retryable
        :class:`MasterUnavailableError` so the resilience engine (and its
        auto master re-attach) can handle them.

        With ``master_terms`` the reply rides a ``{"t": term, "r": result}``
        envelope: the term is compared against the highest this client has
        observed *from this shard*, and a reply below it is a deposed
        master's echo — rejected with :class:`StaleTermError` rather than
        trusted.  A streak of pure transport failures upgrades the verdict
        to :class:`PartitionSuspected`: not one lost RPC, a dead path.
        A shard that no longer owns the addressed server answers "not my
        shard"; that surfaces as :class:`NotMyShard` after correcting the
        cached shard map, so the retry dials the owner.

        Every raised error is tagged with the shard it came from
        (``exc.shard``) so the resilience engine re-attaches the right
        control-plane connection.
        """
        rpc = self._shard_active.get(shard) or self.master_rpc
        try:
            try:
                result = yield from rpc.call(method, payload)
            except RpcError as exc:
                msg = str(exc)
                if "not my shard" in msg:
                    owner, epoch = self._learn_redirect(msg)
                    self.m_shard_redirects.add()
                    rec = self.sim.spans
                    if rec is not None:
                        rec.event(self.name, "shard", f"{method} redirected",
                                  shard=shard, owner=owner)
                    raise NotMyShard(
                        f"{method}: {msg}", shard_id=shard, owner_shard=owner,
                        map_epoch=epoch) from exc
                if "master deposed" in msg or "stale master term" in msg:
                    self.m_stale_terms.add()
                    rec = self.sim.spans
                    if rec is not None:
                        rec.event(self.name, "term",
                                  f"{method} hit a deposed master",
                                  shard=shard)
                    raise StaleTermError(
                        f"{method}: {msg}",
                        known_term=self._master_terms.get(shard, 0)) from exc
                if WcStatus.WR_FLUSH_ERROR.value in msg:
                    raise FatalError(f"{method}: {msg}") from exc  # we died
                if "transport failed" in msg:
                    streak = self._master_fail_streaks.get(shard, 0) + 1
                    self._master_fail_streaks[shard] = streak
                    if streak >= _SUSPECT_STREAK:
                        self.m_partition_suspected.add()
                        rec = self.sim.spans
                        if rec is not None:
                            rec.event(self.name, "partition",
                                      "master path suspected partitioned",
                                      shard=shard, failures=streak)
                        raise PartitionSuspected(
                            f"{method}: {streak} consecutive "
                            f"master transport failures ({msg})") from exc
                    raise MasterUnavailableError(f"{method}: {msg}") from exc
                if "master recovering" in msg:
                    raise MasterUnavailableError(f"{method}: {msg}") from exc
                raise
            self._master_fail_streaks[shard] = 0
            if self.config.master_terms:
                term = result["t"]
                known = self._master_terms.get(shard, 0)
                if term < known:
                    self.m_stale_terms.add()
                    rec = self.sim.spans
                    if rec is not None:
                        rec.event(self.name, "term",
                                  f"{method} reply term stale", shard=shard,
                                  reply_term=term, known_term=known)
                    raise StaleTermError(
                        f"{method}: reply term {term} below observed "
                        f"{known}", reply_term=term, known_term=known)
                self._master_terms[shard] = term
                result = result["r"]
        except RetryableError as err:
            err.shard = shard
            raise
        return result

    def _resolve_shard(self, gaddr: int) -> int:
        """Which shard owns ``gaddr``'s home server, per the client-side
        shard map (default: server id mod shard count, the bootstrap
        layout, until a redirect teaches us better)."""
        return self._server_shard(server_of(gaddr))

    def _server_shard(self, sid: int) -> int:
        """Which shard owns server ``sid``, per the client-side shard map."""
        if self._num_shards <= 1:
            return 0
        return self._shard_map.get(sid, sid % self._num_shards)

    def attach(self) -> Generator[Any, Any, None]:
        """Join the pool: learn our uid, lease and servers from the master,
        set up proxy rings."""
        if self.master_rpc is None:
            raise FatalError("client not wired to a master")
        info = yield from self._master_call("attach", {"client": self.name})
        self.uid = info["client_id"]
        self.fence_epoch = info["epoch"]
        self.lease_ns = info["lease_ns"]
        self._loc_cursors[0] = info["log"]
        servers = list(info["servers"])
        if self._num_shards > 1:
            # Phase the allocation round-robin by our (master-issued,
            # sequential) uid: with every client starting its cursor at 0,
            # the fleet sweeps the shards in lockstep — each instant all
            # allocs converge on ONE shard and the others idle, which is
            # single-master queueing with extra steps.
            self._alloc_rr = self.uid
            # Multi-shard attach: shard 0 minted our uid; present it to the
            # other shards so they adopt the same identity (and lease us).
            # Each shard's reply lists only the servers it owns — the union
            # is the pool, and which shard answered IS the shard map.
            for desc in info["servers"]:
                self._shard_map[desc.server_id] = 0
            for shard in range(1, self._num_shards):
                extra = yield from self._master_call(
                    "attach",
                    {"client": self.name, "uid": self.uid,
                     "epoch": self.fence_epoch},
                    shard=shard)
                self.fence_epoch = max(self.fence_epoch, extra["epoch"])
                self._loc_cursors[shard] = extra["log"]
                for desc in extra["servers"]:
                    self._shard_map[desc.server_id] = shard
                servers.extend(extra["servers"])
        if self.lease_ns:
            self.lease_deadline = self.sim.now + self.lease_ns
            self._last_renew_ns = self.sim.now
            self._start_heartbeat()

        self._scratch_base = self._carver.carve(_SCRATCH_BYTES, "scratch")
        self._scratch_mr = self.node.endpoint.register_mr(
            self.node.dram, self._scratch_base, _SCRATCH_BYTES,
            access=AccessFlags.ALL, name=f"{self.name}.scratch",
        )
        self._scratch = _Scratch(self.sim, _SCRATCH_BYTES)

        for desc in servers:
            conn = self._conns.get(desc.server_id)
            if conn is None:
                raise FatalError(
                    f"master lists server {desc.server_id} but no QP was wired"
                )
            if self.config.enable_proxy:
                conn.ring = yield from self._ring_handshake(conn)
        self._attached = True

    def _ring_handshake(self, conn: _ServerConn) -> Generator[Any, Any, Any]:
        """Ask the server for a (fresh) proxy ring bound to our data QP."""
        return conn.rpc.call(
            "attach",
            {"client": self.name, "qp_num": conn.data_qp.remote.qp_num})

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def gmalloc(self, size: int) -> Generator[Any, Any, int]:
        """Allocate an object in the pool; returns its global address.

        Fresh objects read as zeros (calloc semantics): freed extents are
        scrubbed server-side before reuse, so no allocation can observe a
        previous object's bytes.
        """
        self._require_attached()
        req_id = self._next_req_id()
        if self._num_shards > 1:
            # Spread allocations round-robin across shards; the memo pins
            # every retry of this req_id to one shard so its dedup entry
            # is consulted where it lives.
            self._req_shards[req_id] = self._alloc_rr % self._num_shards
            self._alloc_rr += 1
        try:
            meta = yield from self._resilient(
                "gmalloc", self._gmalloc_once, size, req_id)
        finally:
            self._req_shards.pop(req_id, None)
        return meta.gaddr

    def _next_req_id(self) -> int:
        """Mint an idempotency token: globally unique (uid is master-issued
        and survives re-attach), minted once per logical op, repeated
        verbatim on every retry of that op."""
        self._req_seq += 1
        return (self.uid << 32) | self._req_seq

    def _gmalloc_once(self, size: int, req_id: int = 0) -> Generator[Any, Any, ObjectMeta]:
        shard = self._req_shards.get(req_id, 0)
        try:
            meta = yield from self._master_call(
                "gmalloc", {"size": size, "client": self.name,
                            "req_id": req_id}, shard=shard)
        except NotMyShard as exc:
            # A reshard moved the allocation's home mid-retry: chase the
            # dedup entry to the owning shard so the retry observes the
            # original outcome instead of double-allocating.
            if exc.owner_shard is not None:
                self._req_shards[req_id] = exc.owner_shard
            raise
        if self.config.metadata_cache:
            self._store_meta(meta)
        return meta

    def gfree(self, gaddr: int) -> Generator[Any, Any, None]:
        """Free a pool object.  Outstanding writes are synced first."""
        self._require_attached()
        if gaddr in self._overlay:
            yield from self._op("gsync", self._overlay[gaddr].server_id,
                                history=False)
        yield from self._resilient(
            "gfree", self._gfree_once, gaddr, self._next_req_id())
        self._invalidate_meta(gaddr)
        self._access_counts.pop(gaddr, None)

    def _gfree_once(self, gaddr: int,
                    req_id: int) -> Generator[Any, Any, None]:
        # Re-resolved per attempt: a redirect may have moved the shard.
        return self._master_call("gfree", {"gaddr": gaddr, "req_id": req_id},
                                 shard=self._resolve_shard(gaddr))

    def gread(self, gaddr: int, offset: int = 0,
              length: Optional[int] = None) -> Generator[Any, Any, bytes]:
        """Read ``length`` bytes of an object (defaults to the whole object).

        Applies the client's :class:`RetryPolicy`: retryable failures (dead
        server, torn-down ring) are retried with backoff up to
        ``max_attempts``, optionally re-attaching automatically; a deadline
        turns an unbounded stall into :class:`DeadlineExceededError`.
        """
        return self._op("gread", gaddr, offset, length)

    def _gread_attempt(self, span_op: int, gaddr: int, offset: int,
                       length: Optional[int]) -> Generator[Any, Any, bytes]:
        meta = self._cached_meta(gaddr)
        if meta is None:
            meta = yield from self._meta(gaddr, span_op=span_op)
        if length is None:
            length = meta.size - offset
        self._check_bounds(meta, offset, length)
        yield from self.node.cpu_work()

        # Read-your-writes: serve from the overlay when it covers the range.
        pending = self._overlay.get(gaddr)
        if pending is not None:
            if (pending.offset <= offset
                    and offset + length <= pending.offset + len(pending.data)):
                self.m_overlay_hits.add()
                self._note_access(gaddr, read=True)
                lo = offset - pending.offset
                return pending.data[lo : lo + length]
            # Partial overlap: force the write down before reading remotely.
            yield from self._op("gsync", pending.server_id, history=False)

        data = yield from self._remote_read(gaddr, meta, offset, length,
                                            span_op=span_op)
        self._note_access(gaddr, read=True)
        return data

    def gwrite(self, gaddr: int, data: bytes, offset: int = 0) -> Generator[Any, Any, None]:
        """Write ``data`` into an object at ``offset``.

        Retries per the client's :class:`RetryPolicy`.  With the proxy on,
        every write is staged in the home server's ring (:meth:`_proxy_write`).
        """
        return self._op("gwrite", gaddr, data, offset)

    def _gwrite_attempt(self, span_op: int, gaddr: int, data: bytes,
                        offset: int) -> Generator[Any, Any, None]:
        if not data:
            raise FatalError("empty write")
        meta = self._cached_meta(gaddr)
        if meta is None:
            meta = yield from self._meta(gaddr, span_op=span_op)
        self._check_bounds(meta, offset, len(data))
        yield from self.node.cpu_work()

        conn = self._conns[meta.server_id]
        if self.config.enable_proxy:
            yield from self._proxy_write(conn, gaddr, offset, data,
                                         span_op=span_op)
            self.m_proxy_writes.add(len(data))
        else:
            yield from self._direct_write(conn, gaddr, meta, offset, data,
                                          span_op=span_op)
            self.m_direct_writes.add(len(data))
        self._note_access(gaddr, read=False)

    def gsync(self, server_id: Optional[int] = None) -> Generator[Any, Any, None]:
        """Block until outstanding proxy writes have drained to NVM.

        With ``server_id=None``, syncs every server.  Retries per the
        client's :class:`RetryPolicy` (a crash mid-sync surfaces as
        :class:`ServerUnavailableError`; after an auto re-attach the lost
        staged writes are recorded in :attr:`fault_log` and the sync
        trivially completes).
        """
        return self._op("gsync", server_id)

    def _gsync_attempt(self, span_op: int,
                       server_id: Optional[int]) -> Generator[Any, Any, None]:
        targets = [server_id] if server_id is not None else sorted(self._conns)
        for sid in targets:
            conn = self._conns[sid]
            if conn.ring is None:
                # Mid-reattach (or ring torn down): sync cannot vouch for
                # writes still staged toward this server — fail typed rather
                # than return a hollow success.
                if any(p.server_id == sid for p in self._overlay.values()):
                    raise StaleRingError(
                        f"gsync: ring to server {sid} is down with writes "
                        "still staged", server_id=sid)
                continue
            if conn.written <= conn.drained_known:
                continue
            rec = self.sim.spans
            t0 = self.sim.now if rec is not None else 0
            backoff = 0
            while conn.drained_known < conn.written:
                if conn.ring is None:
                    # Ring torn down mid-wait (crash / reattach handshake):
                    # same verdict as finding it down up front.
                    raise StaleRingError(
                        f"gsync: ring to server {sid} is down with writes "
                        "still staged", server_id=sid)
                yield from self._poll_drained(conn)
                if conn.drained_known < conn.written:
                    backoff = min(backoff + 1, 5)
                    yield 500 * (1 << backoff)
            self._prune_overlay(sid)
            if rec is not None:
                rec.record(self.name, "phase.drain_wait", t0, op=span_op,
                           server=sid)

    def reattach_server(self, server_id: int) -> Generator[Any, Any, list]:
        """Re-establish state with a recovered server.

        Returns the global addresses of this client's writes that were still
        staged in the (lost) proxy ring — the data that did NOT survive the
        crash.  Applications decide whether to replay them.

        The session bookkeeping (lost-write report, counters, epoch bump)
        happens only *after* the ring handshake succeeds, in one atomic
        (yield-free) step — a failed re-attach against a still-dead server
        leaves the session state untouched, so the eventual successful
        re-attach reports each lost write exactly once.
        """
        self._require_attached()
        conn = self._conns[server_id]
        new_ring = None
        if self.config.enable_proxy:
            prev_ring = conn.ring
            # Writers must not stage into the old (torn-down) ring while the
            # handshake is in flight: they fail typed and wait on its gate
            # (which _auto_reattach may already hold).
            conn.ring = None
            gates, gate = self._reattach_gates, None
            if server_id not in gates:
                gate = gates[server_id] = self.sim.event(name=f"{self.name}.reattach{server_id}")
            try:
                new_ring = yield from self._ring_handshake(conn)
            except BaseException:
                conn.ring = prev_ring
                raise
            finally:
                if gate is not None:
                    del gates[server_id]
                    gate.succeed()
        lost = sorted(
            g for g, p in self._overlay.items() if p.server_id == server_id
        )
        for g in lost:
            del self._overlay[g]
        conn.written = 0
        conn.drained_known = 0
        # Location metadata for that server's objects is stale (the DRAM
        # cache is empty now); bump the server epoch so every cached entry
        # for it reads as a miss and is re-learned lazily — O(1) instead of
        # scanning the whole metadata cache.
        self._srv_epoch[server_id] = self._srv_epoch.get(server_id, 0) + 1
        if self.config.enable_proxy:
            conn.ring = new_ring
        return lost

    def reattach_master(self, shard: int = 0) -> Generator[Any, Any, None]:
        """Re-join a restarted (or fencing) master shard.

        Presents the old uid so the master re-adopts this identity instead
        of minting a new one — cached metadata, lock attribution, and the
        journal-rebuilt directory all keep working.  Adopts whatever epoch
        the master grants (bumped past ours if we were fenced), clears the
        fenced flag, and restarts the heartbeat.  Proxy rings are NOT
        re-established here; the StaleRingError machinery heals those
        lazily per server.
        """
        self._require_attached()
        info = yield from self._master_call(
            "attach",
            {"client": self.name, "uid": self.uid, "epoch": self.fence_epoch},
            shard=shard,
        )
        # The location cursor stays: a restarted master's log is a new
        # incarnation, so the next report to it resyncs.
        self.uid = info["client_id"]
        self.fence_epoch = info.get("epoch", self.fence_epoch)
        self.lease_ns = info.get("lease_ns", self.lease_ns)
        self._fenced = False
        if self.lease_ns:
            self.lease_deadline = self.sim.now + self.lease_ns
            self._last_renew_ns = self.sim.now
            self._start_heartbeat()

    # ------------------------------------------------------------------
    # Crash / revive (driven by the fault injector)
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Stop this client cold: its endpoint dies, so every WR it posts
        from now on flushes unsent (a request already on the wire still
        lands).  Heartbeats cease, so its lease lapses and the master
        recovers its locks/pins/rings; application processes built on this
        client fail at their next verb, which flushes."""
        endpoint = self.node.endpoint
        if not endpoint.alive:
            return
        endpoint.alive = False
        rec = self.sim.spans
        if rec is not None:
            rec.event(self.name, "fault", "client crashed")

    def revive(self) -> None:
        """Bring a crashed client back as a *zombie*: its lease has usually
        lapsed by now, so lock ops fence locally until
        :meth:`reattach_master` rejoins under a fresh epoch."""
        endpoint = self.node.endpoint
        if endpoint.alive:
            return
        endpoint.alive = True
        rec = self.sim.spans
        if rec is not None:
            rec.event(self.name, "fault", "client revived")
        if (self.lease_ns and not self._fenced
                and self.sim.now < self.lease_deadline):
            self._start_heartbeat()

    # ------------------------------------------------------------------
    # Lease heartbeats
    # ------------------------------------------------------------------
    def _start_heartbeat(self) -> None:
        if self._heartbeat_proc is not None and self._heartbeat_proc.is_alive:
            return
        self._heartbeat_proc = self.sim.spawn(
            self._heartbeat_loop(), name=f"{self.name}.heartbeat")

    def _heartbeat_loop(self) -> Generator[Any, Any, None]:
        """Renew the lease at lease/3.  Reports piggyback renewals for
        free; this loop only issues a standalone ``renew`` when no report
        went out recently, so an idle client stays alive too.  A crash ends
        the loop: its next renewal flushes (``FatalError``)."""
        interval = max(1, self.lease_ns // 3)
        while True:
            yield interval
            if self._fenced or not self.lease_ns:
                return
            # Secondary shards lease us independently and see piggybacked
            # renewals only for objects they own, so renew them on every
            # tick regardless of report recency.
            for shard in range(1, self._num_shards):
                yield from self._renew_shard(shard)
                if self._fenced:
                    return
            if self.sim.now - self._last_renew_ns < interval:
                continue  # a piggybacked report renewed shard 0 recently
            yield from self._renew_shard(0)
            if self._fenced:
                return

    def _renew_shard(self, shard: int) -> Generator[Any, Any, None]:
        """One standalone renewal against one shard; failures are
        swallowed (the next tick tries again, and so does a failed
        re-attach: it must cost a tick, not the loop keeping the other
        shards' leases alive), a ``fenced`` verdict sets the global fenced
        flag — the epoch is retired everywhere."""
        try:
            reply = yield from self._master_call(
                "renew", {"client": self.name, "epoch": self.fence_epoch},
                shard=shard)
        except StaleTermError:
            # Our master was deposed: rotate / re-attach so renewals
            # reach the incumbent before the lease deadline does.
            yield from self._auto_reattach_master(shard)
            return
        except (RetryableError, RpcError):
            return  # master down/recovering: keep trying until fenced
        if reply.get("ok"):
            if shard == 0:  # the local deadline tracks shard 0's lease
                self._note_renewal(reply.get("lease_ns", self.lease_ns))
            return
        reason = reply.get("reason")
        if reason == "unknown":
            # A restarted master forgot us: re-adopt our identity there.
            yield from self._auto_reattach_master(shard)
            return
        self._fenced = True
        self.m_fence_rejections.add()
        rec = self.sim.spans
        if rec is not None:
            rec.event(self.name, "fence", "heartbeat fenced", shard=shard,
                      reason=reason)

    def _note_renewal(self, lease_ns: int) -> None:
        self._last_renew_ns = self.sim.now
        self.lease_deadline = self.sim.now + (lease_ns or self.lease_ns)
        self.m_lease_renewals.add()

    # ------------------------------------------------------------------
    # Resilience engine: retries, deadlines, auto-reattach
    # ------------------------------------------------------------------
    def _jitter_rng(self):
        if self._retry_rng is None:
            self._retry_rng = self.sim.rng.stream(f"{self.name}.retry")
        return self._retry_rng

    def _op(self, name: str, *args: Any,
            history: bool = True) -> Generator[Any, Any, Any]:
        """The op driver: every data and lock verb is one call into here.

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
        verb = _VERBS[name]
        sim = self.sim
        hist = sim.history if history else None
        rec = sim.spans
        start = sim.now
        toks: Any = ()
        if hist is not None:
            toks = [hist.invoke(self.name, verb.kind, key, **fields)
                    for key, fields in verb.events(self, hist.encode, *args)]
        span_op = rec.next_op() if rec is not None else 0
        try:
            result = yield from self._resilient(
                name, verb.attempt, self, span_op, *args,
                retries=verb.retries, fenced=verb.data, span_op=span_op)
        except BaseException as exc:
            if hist is not None:
                complete = hist.info if verb.may_land else hist.fail
                for tok in toks:
                    complete(tok, exc)
            raise
        finally:
            if rec is not None:
                rec.record(self.name, "op." + name, start, op=span_op,
                           **verb.span_fields(*args))
        if verb.tally:
            # Logical-op accounting: one count and one first-attempt-to-
            # completion sample per op, however many attempts it took.
            if verb.kind == "read":
                self.m_reads.add()
                self.h_read.record(sim.now - start)
            else:
                self.m_writes.add()
                self.h_write.record(sim.now - start)
        if hist is not None:
            for tok, value in zip(toks, verb.ok_values(self, hist.encode,
                                                       result)):
                hist.ok(tok, value=value)
        return result

    def _resilient(self, op: str, attempt: Callable[..., Generator], *args: Any,
                   retries: bool = True, fenced: bool = False,
                   span_op: int = 0) -> Generator[Any, Any, Any]:
        """Run ``attempt(*args)`` under the active :class:`RetryPolicy`
        (``retries=False``: exactly once — the batch verbs retry per item
        through their serial fallbacks, the lock verbs in their CAS loop).
        ``fenced`` starts every attempt with the data-plane precheck.

        Pay-as-you-go: without a deadline an attempt that succeeds is a
        plain ``yield from`` — retries, backoff and re-attach cost simulated
        events only once something has failed.
        """
        policy = self.retry_policy if retries else _ONE_ATTEMPT
        start = self.sim.now
        tries = 1
        while True:
            try:
                if fenced:
                    self._require_attached()
                    self._check_lease_fence(op)
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
                    self.m_deadline_misses.add()
                    raise DeadlineExceededError(
                        f"{op} gave up after {self.sim.now - start} ns "
                        f"(deadline {policy.deadline_ns} ns): {exc}") from exc
                yield from self._between_attempts(op, exc, tries, policy,
                                                  span_op)
                tries += 1

    def _between_attempts(self, op: str, exc: RetryableError, tries: int,
                          policy: RetryPolicy,
                          span_op: int = 0) -> Generator[Any, Any, None]:
        """After failed attempt ``tries``: count the retry, repair what the
        error names (a server or master re-attach, a lease probe), then
        back off."""
        self.m_retries.add()
        rec = self.sim.spans
        if rec is not None:
            rec.event(self.name, "retry", f"{op} attempt {tries} failed",
                      cause=type(exc).__name__)
        server_id = getattr(exc, "server_id", None)
        if server_id is not None:
            yield from self._auto_reattach(server_id)
        elif isinstance(exc, LeaseExpiredError):
            # May raise FencedError: a lapse the master resolved by
            # retiring our epoch is terminal, not retryable.
            yield from self._lease_lapse_probe(op)
        elif isinstance(exc, (MasterUnavailableError,
                              PartitionSuspected, StaleTermError)):
            # All three mean "the control plane, not this op, is the
            # problem": re-attach the shard that failed (rotating to a
            # standby master if wired) before burning the next attempt.
            yield from self._auto_reattach_master(getattr(exc, "shard", 0))
        rec = self.sim.spans
        t_wait = self.sim.now if rec is not None else 0
        yield policy.backoff_ns(tries, self._jitter_rng())
        if rec is not None:
            rec.record(self.name, "phase.retry_wait", t_wait, op=span_op,
                       attempt=tries, cause=type(exc).__name__)

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
        remaining = policy.deadline_ns - (self.sim.now - start)
        if remaining <= 0:
            self.m_deadline_misses.add()
            raise DeadlineExceededError(
                f"{op} deadline of {policy.deadline_ns} ns exhausted")
        proc = self.sim.spawn(attempt(*args), name=f"{self.name}.{op}")
        timer = self.sim.timeout(remaining)
        # A failed attempt fails the any_of, re-raising its typed error here.
        yield self.sim.any_of([proc, timer])
        if proc.triggered:
            return proc.value  # raises the attempt's failure, if any
        self.m_deadline_misses.add()
        rec = self.sim.spans
        if rec is not None:
            rec.event(self.name, "retry", f"{op} abandoned at deadline",
                      elapsed_ns=self.sim.now - start)
        raise DeadlineExceededError(
            f"{op} exceeded its {policy.deadline_ns} ns deadline")

    def _coalesced(self, gates: Dict[int, Any], key: int, gate_name: str,
                   handshake) -> Generator[Any, Any, Optional[tuple]]:
        """Run ``handshake(key)`` unless one is already in flight for
        ``key``: the first failed op runs it, concurrent failures wait on
        its gate.  Returns ``(result, None)`` or — the failure swallowed,
        the caller backs off and retries, re-entering here — ``(None,
        exc)``; a waiter gets ``None``.
        """
        gate = gates.get(key)
        if gate is not None:
            yield gate
            return None
        gate = gates[key] = self.sim.event(name=gate_name)
        try:
            return (yield from handshake(key)), None
        except (RetryableError, RpcError) as exc:
            return None, exc
        finally:
            gates.pop(key, None)
            gate.succeed()

    def _auto_reattach(self, server_id: int) -> Generator[Any, Any, None]:
        """Coalesced server re-attach (see :meth:`_coalesced`)."""
        outcome = yield from self._coalesced(
            self._reattach_gates, server_id,
            f"{self.name}.reattach{server_id}", self.reattach_server)
        if outcome is None:
            return
        lost, exc = outcome
        if exc is not None:
            rec = self.sim.spans
            if rec is not None:
                rec.event(self.name, "failover", "re-attach failed",
                          server=server_id, cause=type(exc).__name__)
            return
        self.m_failovers.add()
        if lost:
            self.m_lost_writes.add(len(lost))
        self.fault_log.append({
            "time_ns": self.sim.now,
            "server_id": server_id,
            "lost": lost,
        })
        rec = self.sim.spans
        if rec is not None:
            rec.event(self.name, "failover", "re-attached", server=server_id,
                      lost=len(lost))

    def _lease_lapse_probe(self, op: str) -> Generator[Any, Any, None]:
        """Resolve a *locally* lapsed lease before the next attempt.

        The lapse is ambiguous: either the master was merely unreachable
        longer than one lease (an op parked in retry backoff outlasted the
        deadline — recoverable), or the master actually expired us and
        retired our epoch (our locks are gone — terminal).  A zombie must
        not be silently re-attached under a fresh epoch mid-op, so probe
        with a ``renew`` carrying our current epoch and let the master's
        verdict pick the branch:

        * ``ok`` — lease re-established at the same epoch; retry proceeds.
        * ``fenced`` — the epoch was retired: mark fenced and raise the
          terminal :class:`FencedError` the zombie contract promises.
        * ``unknown`` — a restarted master forgot us; a full re-attach
          re-adopts our identity (same epoch via the max rule).
        * probe unreachable — back off and probe again next attempt.
        """
        try:
            reply = yield from self._master_call(
                "renew", {"client": self.name, "epoch": self.fence_epoch})
        except StaleTermError:
            yield from self._auto_reattach_master()
            return
        except RetryableError:
            return  # master still unreachable: keep heartbeating + retrying
        if reply.get("ok"):
            self._note_renewal(reply.get("lease_ns", self.lease_ns))
            return
        if reply.get("reason") == "unknown":
            yield from self._auto_reattach_master()
            return
        self._fenced = True
        rec = self.sim.spans
        if rec is not None:
            rec.event(self.name, "fence", f"{op} fenced after lease lapse",
                      epoch=self.fence_epoch)
        raise FencedError(
            f"{op}: lease lapsed and the master fenced this epoch; "
            "reattach_master() to rejoin")

    def _auto_reattach_master(self, shard: int = 0) -> Generator[Any, Any, None]:
        """Coalesced master re-attach (see :meth:`_coalesced`), one gate
        per shard: other shards re-attach independently."""
        outcome = yield from self._coalesced(
            self._reattach_master_gates, shard,
            f"{self.name}.reattach_master" + (f"_s{shard}" if shard else ""),
            self.reattach_master)
        if outcome is None:
            return
        _, exc = outcome
        if exc is not None:
            rec = self.sim.spans
            if rec is not None:
                rec.event(self.name, "failover", "master re-attach failed",
                          shard=shard, cause=type(exc).__name__)
            # Next retry tries the shard's next wired master (no-op
            # without standbys): an unreachable or deposed master
            # should not absorb the whole retry budget when a live one
            # exists.
            self._rotate_master(shard)
            return
        self.m_master_failovers.add()
        rec = self.sim.spans
        if rec is not None:
            rec.event(self.name, "failover", "re-attached to master",
                      shard=shard, epoch=self.fence_epoch)

    def _check_wc(self, wc, what: str, conn: _ServerConn,
                  ring: bool = False) -> None:
        """Classify a failed completion into the typed error taxonomy."""
        if wc.ok:
            return
        status = wc.status
        if status is WcStatus.RETRY_EXCEEDED:
            raise ServerUnavailableError(
                f"{what} failed: {status}", server_id=conn.desc.server_id)
        if ring and status is WcStatus.REMOTE_ACCESS_ERROR:
            # The ring MR was deregistered by a server restart; the data /
            # cache / lock MRs survive, so only ring traffic maps here.
            raise StaleRingError(
                f"{what} failed: {status} (ring torn down by a restart)",
                server_id=conn.desc.server_id)
        raise FatalError(f"{what} failed: {status}")

    # Batched operations --------------------------------------------------
    def gread_many(self, gaddrs) -> Generator[Any, Any, list]:
        """Read many whole objects with true doorbell batching; results in
        argument order.

        Reads are grouped by home server; each group's RDMA READs (DRAM
        cache or NVM, per object) are dealt round-robin across the server's
        read lanes and posted with one
        :meth:`~repro.rdma.qp.QueuePair.post_send_many` doorbell per lane, and
        completions are consumed *out of order* as they arrive — a finished
        read is processed (and its scratch span recycled) while
        earlier-posted reads are still in flight.  Adjacent NVM reads in a
        doorbell are additionally tagged for server-side read combining.
        A stale cache tag is repaired inside the batch: the item re-reads
        its NVM home while its ``lookup`` runs, and stands once that returns.

        Items the batched path cannot serve — overlay partial overlaps,
        objects larger than one transfer, failed lookups, failed
        completions — fall back to serial :meth:`gread` (which retries per
        the :class:`RetryPolicy`); the first failure, in argument order,
        propagates.
        """
        return self._op("gread_many", list(gaddrs))

    def _gread_many_attempt(self, span_op: int,
                            gaddrs: list) -> Generator[Any, Any, list]:
        start = self.sim.now
        rec = self.sim.spans
        scratch = self._scratch
        results: list = [None] * len(gaddrs)
        fallback: list = []  # indices routed through serial gread
        groups: Dict[int, list] = {}  # server_id -> [(idx, gaddr, meta)]
        for idx, gaddr in enumerate(gaddrs):
            meta = self._cached_meta(gaddr)
            if meta is None:
                try:
                    meta = yield from self._meta(gaddr, span_op=span_op)
                except ClientError:
                    fallback.append(idx)  # serial gread retries the lookup
                    continue
            length = meta.size
            pending = self._overlay.get(gaddr)
            if pending is not None:
                if pending.offset == 0 and len(pending.data) >= length:
                    self.m_reads.add()
                    self.m_overlay_hits.add()
                    self._note_access(gaddr, read=True)
                    self.h_read.record(self.sim.now - start)
                    results[idx] = pending.data[:length]
                else:
                    fallback.append(idx)  # partial overlap: gread syncs first
                continue
            if length > _MAX_TRANSFER - CACHE_TAG_BYTES:
                fallback.append(idx)  # chunked path stays serial
                continue
            groups.setdefault(meta.server_id, []).append((idx, gaddr, meta))

        if groups:
            # One CPU pass covers building every WQE in the batch.
            yield from self.node.cpu_work()
        mux = CompletionMux(self.sim)

        def _consume_one():
            """Process whichever posted read, or repair lookup, completes
            next.  A tag is ``(idx, gaddr, meta, span, conn, scratch_off,
            lookup, t_post)``: ``lookup`` is set on a repair, and
            ``scratch_off`` is None once only its lookup is left."""
            tag, ev = yield mux.next_event()
            idx, gaddr, meta, span, conn, scratch_off, lookup, t_post = tag
            length = meta.size
            if scratch_off is None:
                # A repair's lookup is back; its home bytes wait in results.
                if not ev.ok or ev.value.size != length:
                    fallback.append(idx)  # serial gread raises what it raised
                    return
                self.m_nvm_reads.add()
                if rec is not None:
                    rec.record(self.name, "phase.nvm_read", t_post,
                               op=span_op, bytes=length)
            else:
                try:
                    self._check_wc(ev.value, "RDMA read", conn)
                except ClientError:
                    scratch.free(scratch_off, span)
                    fallback.append(idx)  # serial gread applies the RetryPolicy
                    return
                if lookup is not None or span == length:  # the NVM home
                    results[idx] = self._scratch_mr.peek(scratch_off, length)
                    scratch.free(scratch_off, span)
                    if lookup is not None:
                        # A repair READ: its bytes stand once the lookup
                        # returns.
                        mux.add(lookup, (idx, gaddr, meta, span, conn, None,
                                         lookup, t_post))
                        return
                    self.m_nvm_reads.add()
                    if rec is not None:
                        rec.record(self.name, "phase.nvm_read", t_post,
                                   op=span_op, bytes=length)
                else:  # a cache slot: tag + payload
                    raw = self._scratch_mr.peek(scratch_off, span)
                    if not tag_matches(raw, gaddr):
                        # Repair in the batch: re-read the NVM home into the
                        # same scratch bytes while the lookup runs.
                        lookup = self._stale_tag(gaddr, t_post, length, span_op)
                        mux.add(conn.read_lane().post_send(WorkRequest(
                            opcode=Opcode.RDMA_READ,
                            local_mr=self._scratch_mr, local_offset=scratch_off,
                            length=length, remote_rkey=conn.desc.data_rkey,
                            remote_offset=meta.nvm_offset,
                        )), (idx, gaddr, meta, span, conn, scratch_off, lookup,
                             self.sim.now))
                        return
                    scratch.free(scratch_off, span)
                    self.m_cache_hits.add()
                    results[idx] = raw[CACHE_TAG_BYTES:]
                    if rec is not None:
                        rec.record(self.name, "phase.cache_read", t_post,
                                   op=span_op, hit=True, bytes=length)
            self.m_reads.add()
            self._note_access(gaddr, read=True)
            self.h_read.record(self.sim.now - start)

        def _post(conn, wrs, tags):
            """Deal a server's accumulated READs round-robin across its read
            lanes and ring one doorbell per lane used."""
            self._attach_combine_groups(wrs)
            self.h_read_batch.record(len(wrs))
            lanes, n = conn.lanes, len(conn.lanes)
            first = conn.reads_posted
            conn.reads_posted += len(wrs)
            for k in range(min(n, len(wrs))):
                qp = lanes[(first + k) % n]
                for ev, tag in zip(qp.post_send_many(wrs[k::n]), tags[k::n]):
                    mux.add(ev, tag)

        for sid in sorted(groups):
            conn = self._conns[sid]
            wrs: list = []
            tags: list = []
            for idx, gaddr, meta in groups[sid]:
                if self.config.enable_cache and meta.cached:
                    span = CACHE_TAG_BYTES + meta.size
                    rkey, roff = conn.desc.cache_rkey, meta.cache_offset
                else:
                    span = meta.size
                    rkey, roff = conn.desc.data_rkey, meta.nvm_offset
                # Scratch acquisition can never deadlock on our own batch:
                # recycle completed reads first, and if none are in flight
                # while WRs are pending here, ring the doorbell early (a
                # batch larger than the scratch region degrades to several
                # doorbells instead of wedging).
                while True:
                    scratch_off = scratch.try_alloc(span)
                    if scratch_off is not None:
                        break
                    if len(mux):
                        yield from _consume_one()
                    elif wrs:
                        _post(conn, wrs, tags)
                        wrs, tags = [], []
                    else:
                        scratch_off = yield scratch.wait(span)
                        break
                wrs.append(WorkRequest(
                    opcode=Opcode.RDMA_READ,
                    local_mr=self._scratch_mr, local_offset=scratch_off,
                    length=span, remote_rkey=rkey, remote_offset=roff,
                ))
                tags.append((idx, gaddr, meta, span, conn, scratch_off, None,
                             self.sim.now))
            if wrs:
                _post(conn, wrs, tags)

        inflight = len(mux)
        t_wait = self.sim.now
        while len(mux):
            yield from _consume_one()
        if rec is not None and inflight:
            rec.record(self.name, "phase.pipeline_wait", t_wait, op=span_op,
                       inflight=inflight)

        failures: list = []
        for idx in sorted(fallback):
            try:
                results[idx] = yield from self._op(
                    "gread", gaddrs[idx], 0, None, history=False)
            except ClientError as exc:
                failures.append((idx, exc))
        if failures:
            raise failures[0][1]
        return results

    @staticmethod
    def _attach_combine_groups(wrs) -> None:
        """Tag contiguous READs in one doorbell for server-side combining.

        Runs of RDMA_READ WRs whose remote ranges are adjacent within the
        same remote region share a
        :class:`~repro.core.server.ReadCombineGroup`; the target services
        the whole run as a single device transfer (one per-transfer setup
        charge — the Optane win) and slices each member's bytes out of it.
        """
        by_rkey: Dict[int, list] = {}
        for wr in wrs:
            if wr.opcode is Opcode.RDMA_READ:
                by_rkey.setdefault(wr.remote_rkey, []).append(wr)
        for rkey, group in by_rkey.items():
            group.sort(key=lambda w: w.remote_offset)
            run = [group[0]]
            for wr in group[1:]:
                prev = run[-1]
                if wr.remote_offset == prev.remote_offset + prev.length:
                    run.append(wr)
                else:
                    GengarClient._seal_combine_run(rkey, run)
                    run = [wr]
            GengarClient._seal_combine_run(rkey, run)

    @staticmethod
    def _seal_combine_run(rkey: int, run: list) -> None:
        if len(run) < 2:
            return
        base = run[0].remote_offset
        total = run[-1].remote_offset + run[-1].length - base
        grp = ReadCombineGroup(rkey=rkey, base_offset=base,
                               total_length=total, members=len(run))
        for wr in run:
            wr.combine = grp

    # Lock API (delegates to the consistency layer) ----------------------
    def glock(self, gaddr: int, write: bool = True) -> Generator[Any, Any, None]:
        """Acquire the object's lock (exclusive by default, shared if not)."""
        return self._op("glock", gaddr, write)

    def _glock_attempt(self, span_op: int, gaddr: int,
                       write: bool) -> Generator[Any, Any, None]:
        if write:
            return self.locks.acquire_write(gaddr, span_op=span_op)
        return self.locks.acquire_read(gaddr, span_op=span_op)

    def gunlock(self, gaddr: int, write: bool = True) -> Generator[Any, Any, None]:
        """Release the object's lock.  Write unlocks sync first."""
        return self._op("gunlock", gaddr, write)

    def _gunlock_attempt(self, span_op: int, gaddr: int,
                         write: bool) -> Generator[Any, Any, None]:
        if write:
            return self.locks.release_write(gaddr, span_op=span_op)
        return self.locks.release_read(gaddr, span_op=span_op)

    # Transactions (delegates to repro.txn) ------------------------------
    @property
    def txn(self):
        """This client's :class:`~repro.txn.TxnManager` (requires
        ``config.enable_txn``); constructed on first use so the txn-free
        path pays nothing."""
        if self._txn_manager is None:
            from repro.txn import TxnManager

            self._txn_manager = TxnManager(self)
        return self._txn_manager

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------
    def _require_attached(self) -> None:
        if not self._attached:
            raise FatalError(f"client {self.name} is not attached; run attach() first")

    def _cached_meta(self, gaddr: int) -> Optional[ObjectMeta]:
        """Hot-key fast path: a valid cache hit costs two dict probes and no
        generator machinery.  Returns None on miss or stale epoch."""
        meta = self._meta_cache.get(gaddr)
        if meta is not None and (self._meta_epoch.get(gaddr)
                                 == self._srv_epoch.get(meta.server_id, 0)):
            return meta
        return None

    def _store_meta(self, meta: ObjectMeta) -> None:
        self._meta_cache[meta.gaddr] = meta
        self._meta_epoch[meta.gaddr] = self._srv_epoch.get(meta.server_id, 0)

    def _meta(self, gaddr: int,
              span_op: int = 0) -> Generator[Any, Any, ObjectMeta]:
        meta = self._cached_meta(gaddr)
        if meta is not None:
            return meta
        rec = self.sim.spans
        t0 = self.sim.now if rec is not None else 0
        meta = yield from self._master_call(
            "lookup", {"gaddr": gaddr}, shard=self._resolve_shard(gaddr))
        self.m_lookups.add()
        if rec is not None:
            rec.record(self.name, "phase.meta_lookup", t0, op=span_op,
                       gaddr=hex(gaddr))
        if self.config.metadata_cache:
            self._store_meta(meta)
        return meta

    def _invalidate_meta(self, gaddr: int) -> None:
        self._meta_cache.pop(gaddr, None)
        self._meta_epoch.pop(gaddr, None)

    @staticmethod
    def _check_bounds(meta: ObjectMeta, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > meta.size:
            raise FatalError(
                f"access [{offset}, {offset + length}) outside object "
                f"{meta.gaddr:#x} of size {meta.size}"
            )

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def _remote_read(self, gaddr: int, meta: ObjectMeta, offset: int,
                     length: int,
                     span_op: int = 0) -> Generator[Any, Any, bytes]:
        rec = self.sim.spans
        conn = self._conns[meta.server_id]
        t0 = self.sim.now if rec is not None else 0
        if self.config.enable_cache and meta.cached:
            # One READ covering the tag and the requested range.
            raw = yield from self._rdma_read(
                conn, conn.desc.cache_rkey, meta.cache_offset,
                CACHE_TAG_BYTES + offset + length)
            if tag_matches(raw, gaddr):
                self.m_cache_hits.add()
                if rec is not None:
                    rec.record(self.name, "phase.cache_read", t0,
                               op=span_op, hit=True, bytes=length)
                return raw[CACHE_TAG_BYTES + offset : CACHE_TAG_BYTES + offset + length]
            lookup = self._stale_tag(gaddr, t0, length, span_op)
            t0 = self.sim.now if rec is not None else 0
        else:
            lookup = None
        data = yield from self._rdma_read(
            conn, conn.desc.data_rkey, meta.nvm_offset + offset, length)
        if lookup is not None:
            fresh = yield lookup
            self._check_bounds(fresh, offset, length)
        self.m_nvm_reads.add()
        if rec is not None:
            rec.record(self.name, "phase.nvm_read", t0, op=span_op,
                       bytes=length)
        return data

    def _stale_tag(self, gaddr: int, t0: int, length: int,
                   span_op: int) -> "Process":
        """A cache READ found another object's tag (``gaddr`` was demoted
        or its slot reused): drop the cached location and start its
        ``lookup`` as a process of its own.

        The caller READs the NVM home in the same instant: NVM is never
        staler than the cache, because the drain, promotes and direct
        writes all write NVM first or only.  Those bytes stand once the
        returned process does; it fails with the error the lookup raised
        (the object was freed), the one a serial :meth:`gread` gives.
        """
        self.m_tag_misses.add()
        rec = self.sim.spans
        if rec is not None:
            rec.record(self.name, "phase.cache_read", t0, op=span_op,
                       hit=False, bytes=length)
        self._invalidate_meta(gaddr)
        return self.sim.spawn(self._meta(gaddr, span_op=span_op))

    # ------------------------------------------------------------------
    # Write paths
    # ------------------------------------------------------------------
    def _proxy_write(self, conn: _ServerConn, gaddr: int, offset: int,
                     data: bytes,
                     span_op: int = 0) -> Generator[Any, Any, None]:
        """Stage one write into the proxy ring: one frame, or frame groups
        when longer than a slot.  A full ring is waited out; a missing one (a
        re-attach is in flight) fails the attempt with StaleRingError."""
        rec = self.sim.spans
        t0 = self.sim.now if rec is not None else 0
        ring = conn.ring
        if ring is None:
            raise StaleRingError(f"ring to server {conn.desc.server_id} is being "
                                 "re-attached", server_id=conn.desc.server_id)
        capacity = proxy_payload_capacity(ring.slot_size, commit=self.config.proxy_commit)
        if len(data) > capacity:
            seq = yield from self._stage_groups(conn, ring, gaddr, offset,
                                                data, capacity)
        else:
            if conn.written - conn.drained_known >= ring.slots:
                yield from self._await_ring_space(conn)
            frame = pack_proxy_slot(gaddr, offset, data)
            total = len(frame) + (PROXY_COMMIT_BYTES if self.config.proxy_commit else 0)
            # Acquire the scratch span (the only potential yield) BEFORE
            # reserving the sequence number: reserve -> post must be atomic in
            # virtual time, so doorbells always reach the server in seq order.
            # A writer parked between the two would let a concurrent (or
            # injected mid-crash) write with a later seq overtake it, and the
            # drain's seq cursor would then reject the earlier frame as torn.
            scratch = self._scratch
            scratch_off = None
            if not self.node.nic.is_inline(total):
                scratch_off = scratch.try_alloc(total)
                if scratch_off is None:
                    scratch_off = yield scratch.wait(total)
            try:
                seq = conn.written
                conn.written += 1
                slot = seq % ring.slots
                payload = frame
                if self.config.proxy_commit:
                    # Trailing commit word: the drain loop validates seq ^ crc32
                    # before applying, so a write torn mid-flight is skipped,
                    # never applied as garbage.
                    payload += pack_proxy_commit(seq, frame)
                wr = WorkRequest(
                    opcode=Opcode.RDMA_WRITE_IMM,
                    remote_rkey=ring.ring_rkey,
                    remote_offset=slot * ring.slot_size,
                    imm_data=slot, length=len(payload),
                )
                if scratch_off is None:
                    wr.inline_data = payload
                else:
                    self._scratch_mr.poke(scratch_off, payload)
                    wr.local_mr = self._scratch_mr
                    wr.local_offset = scratch_off
                wc = yield conn.data_qp.post_send(wr)
            finally:
                if scratch_off is not None:
                    scratch.free(scratch_off, total)
            self._check_wc(wc, "proxy write", conn, ring=True)
        if rec is not None:
            rec.record(self.name, "phase.proxy_stage", t0, op=span_op,
                       server=conn.desc.server_id, bytes=len(data))
        # The drained counter is 1-based: write #seq is drained once the
        # counter reaches seq + 1.
        self._overlay[gaddr] = _PendingWrite(
            offset=offset, data=data, server_id=conn.desc.server_id, seq=seq + 1
        )
        self._last_staged = (conn.desc.server_id, gaddr, offset, data)

    def _stage_groups(self, conn: _ServerConn, ring: RingDescriptor,
                      gaddr: int, offset: int, data: bytes,
                      capacity: int) -> Generator[Any, Any, int]:
        """Stage a write longer than one slot as frame groups, in order, and
        return its last frame's seq (docs/PROTOCOLS.md §3.2).  A ring
        re-attached meanwhile fails the attempt; the retry restages it all."""
        commit, slot_size = self.config.proxy_commit, ring.slot_size
        step = capacity * max(1, min(ring.slots, _MAX_TRANSFER // slot_size))
        scratch, mr = self._scratch, self._scratch_mr
        for lo in range(0, len(data), step):
            hi = min(lo + step, len(data))
            frames = [pack_proxy_slot(gaddr, offset + pos, data[pos:pos + capacity],
                                      more=pos + capacity < hi)
                      for pos in range(lo, hi, capacity)]
            if conn.written - conn.drained_known + len(frames) > ring.slots:
                yield from self._await_ring_space(conn, need=len(frames))
            total = len(frames) * slot_size
            base = scratch.try_alloc(total)
            if base is None:
                base = yield scratch.wait(total)
            try:
                if conn.ring is not ring:
                    raise StaleRingError(f"ring to server {conn.desc.server_id} "
                                         "re-attached mid-write",
                                         server_id=conn.desc.server_id)
                wrs = []
                for at, frame in zip(range(base, base + total, slot_size), frames):
                    seq = conn.written
                    conn.written = seq + 1
                    if commit:
                        frame += pack_proxy_commit(seq, frame)
                    mr.poke(at, frame)
                    wrs.append(WorkRequest(
                        opcode=Opcode.RDMA_WRITE_IMM, remote_rkey=ring.ring_rkey,
                        remote_offset=seq % ring.slots * slot_size,
                        imm_data=seq % ring.slots, length=len(frame),
                        local_mr=mr, local_offset=at))
                wcs = []
                for proc in conn.data_qp.post_send_many(wrs):
                    wcs.append((yield proc))
            finally:
                scratch.free(base, total)
            for wc in wcs:
                self._check_wc(wc, "proxy write", conn, ring=True)
        return seq

    def _direct_write(self, conn: _ServerConn, gaddr: int, meta: ObjectMeta,
                      offset: int, data: bytes,
                      span_op: int = 0) -> Generator[Any, Any, None]:
        rec = self.sim.spans
        t0 = self.sim.now if rec is not None else 0
        yield from self._rdma_write(
            conn, conn.desc.data_rkey, meta.nvm_offset + offset, data
        )
        if self.config.enable_cache and meta.cached:
            fresh = yield from self._verified_cache_write(conn, gaddr, meta, offset, data)
            if not fresh:
                self._invalidate_meta(gaddr)
        if rec is not None:
            rec.record(self.name, "phase.direct_write", t0, op=span_op,
                       bytes=len(data))

    def _verified_cache_write(self, conn: _ServerConn, gaddr: int, meta: ObjectMeta,
                              offset: int, data: bytes) -> Generator[Any, Any, bool]:
        """Update the DRAM copy of a cached object, verifying the tag first.

        Without the proxy this costs an extra round trip per write — the
        coherence tax the proxy design eliminates (drains update the cache
        server-side for free).
        """
        raw = yield from self._rdma_read(
            conn, conn.desc.cache_rkey, meta.cache_offset, CACHE_TAG_BYTES
        )
        if not tag_matches(raw, gaddr):
            self.m_tag_misses.add()
            return False
        yield from self._rdma_write(
            conn, conn.desc.cache_rkey,
            meta.cache_offset + CACHE_TAG_BYTES + offset, data,
        )
        return True

    # ------------------------------------------------------------------
    # Proxy flow control
    # ------------------------------------------------------------------
    def _poll_drained(self, conn: _ServerConn) -> Generator[Any, Any, None]:
        """Fetch the server-side drained counter with one 8-byte READ."""
        raw = yield from self._rdma_read(
            conn, conn.ring.ring_rkey, conn.ring.counter_offset, 8, ring=True
        )
        value = int.from_bytes(raw, "little")
        if value > conn.drained_known:
            conn.drained_known = value
            self._prune_overlay(conn.desc.server_id)

    def _await_ring_space(self, conn: _ServerConn,
                          need: int = 1) -> Generator[Any, Any, None]:
        """Poll the drained counter until ``need`` ring slots are free; only
        the op's deadline (``op_deadline_ns``) bounds the wait."""
        backoff = 0
        while True:
            if conn.ring is None:
                # Torn down mid-wait; staging is impossible until reattach.
                raise StaleRingError(
                    f"ring to server {conn.desc.server_id} torn down while "
                    "waiting for slot space", server_id=conn.desc.server_id)
            if conn.written - conn.drained_known + need <= conn.ring.slots:
                return
            yield from self._poll_drained(conn)
            if conn.ring is not None and (
                    conn.written - conn.drained_known + need <= conn.ring.slots):
                return
            backoff = min(backoff + 1, 5)
            yield 500 * (1 << backoff)

    def _prune_overlay(self, server_id: int) -> None:
        conn = self._conns[server_id]
        stale = [
            g for g, p in self._overlay.items()
            if p.server_id == server_id and p.seq <= conn.drained_known
        ]
        for g in stale:
            del self._overlay[g]

    # ------------------------------------------------------------------
    # Raw verb helpers
    # ------------------------------------------------------------------
    def _rdma_read(self, conn: _ServerConn, rkey: int, remote_offset: int,
                   nbytes: int, ring: bool = False) -> Generator[Any, Any, bytes]:
        if nbytes > _MAX_TRANSFER:
            # Transparent chunking: huge reads issue sequential transfer-sized
            # verbs (one WQE each), like a real library's segmented SGE path.
            parts: list[bytes] = []
            pos = 0
            while pos < nbytes:
                chunk = min(_MAX_TRANSFER, nbytes - pos)
                part = yield from self._rdma_read(conn, rkey,
                                                  remote_offset + pos, chunk,
                                                  ring=ring)
                parts.append(part)
                pos += chunk
            return b"".join(parts)
        scratch = self._scratch
        scratch_off = scratch.try_alloc(nbytes)
        if scratch_off is None:
            scratch_off = yield scratch.wait(nbytes)
        try:
            wc = yield conn.read_lane().post_send(WorkRequest(
                opcode=Opcode.RDMA_READ,
                local_mr=self._scratch_mr, local_offset=scratch_off, length=nbytes,
                remote_rkey=rkey, remote_offset=remote_offset,
            ))
            self._check_wc(wc, "RDMA read", conn, ring=ring)
            return self._scratch_mr.peek(scratch_off, nbytes)
        finally:
            scratch.free(scratch_off, nbytes)

    def _rdma_write(self, conn: _ServerConn, rkey: int, remote_offset: int,
                    data: bytes) -> Generator[Any, Any, None]:
        if len(data) > _MAX_TRANSFER:
            pos = 0
            while pos < len(data):
                chunk = data[pos : pos + _MAX_TRANSFER]
                yield from self._rdma_write(conn, rkey, remote_offset + pos, chunk)
                pos += len(chunk)
            return
        wr = WorkRequest(
            opcode=Opcode.RDMA_WRITE, remote_rkey=rkey,
            remote_offset=remote_offset, length=len(data),
        )
        if self.node.nic.is_inline(len(data)):
            wr.inline_data = data
            wc = yield conn.data_qp.post_send(wr)
        else:
            scratch = self._scratch
            scratch_off = scratch.try_alloc(len(data))
            if scratch_off is None:
                scratch_off = yield scratch.wait(len(data))
            try:
                self._scratch_mr.poke(scratch_off, data)
                wr.local_mr = self._scratch_mr
                wr.local_offset = scratch_off
                wc = yield conn.data_qp.post_send(wr)
            finally:
                scratch.free(scratch_off, len(data))
        self._check_wc(wc, "RDMA write", conn)

    def _atomic_cas(self, server_id: int, lock_offset: int, compare: int,
                    swap: int) -> Generator[Any, Any, int]:
        conn = self._conns[server_id]
        wc = yield conn.data_qp.post_send(WorkRequest(
            opcode=Opcode.ATOMIC_CAS,
            remote_rkey=conn.desc.lock_rkey, remote_offset=lock_offset,
            compare=compare, swap=swap,
        ))
        self._check_wc(wc, "atomic CAS", conn)
        return wc.atomic_value

    def _atomic_faa(self, server_id: int, lock_offset: int,
                    add: int) -> Generator[Any, Any, int]:
        conn = self._conns[server_id]
        wc = yield conn.data_qp.post_send(WorkRequest(
            opcode=Opcode.ATOMIC_FAA,
            remote_rkey=conn.desc.lock_rkey, remote_offset=lock_offset,
            add=add,
        ))
        self._check_wc(wc, "atomic FAA", conn)
        return wc.atomic_value

    # ------------------------------------------------------------------
    # Hotness reporting (the RDMA-semantics harvest)
    # ------------------------------------------------------------------
    def _note_access(self, gaddr: int, read: bool) -> None:
        counts = self._access_counts.get(gaddr)
        if counts is None:
            counts = [0, 0]
            self._access_counts[gaddr] = counts
        counts[0 if read else 1] += 1
        self._ops_since_report += 1
        if (self._ops_since_report >= self.config.report_every_ops
                and not self._report_inflight):
            self._report_inflight = True
            self.sim.spawn(self._send_report(), name=f"{self.name}.report")

    def _by_shard(self, entries: list) -> Dict[int, list]:
        """Split report entries (gaddr first) along the shard
        map: each shard scores only the objects it owns, so the batch
        becomes one RPC per shard with entries."""
        if self._num_shards <= 1:
            return {0: entries}
        groups: Dict[int, list] = {}
        for entry in entries:
            groups.setdefault(self._resolve_shard(entry[0]), []).append(entry)
        return groups

    def _send_report(self) -> Generator[Any, Any, None]:
        """Send the access counts, one ``report`` per shard, and apply the
        location changes each reply brings (PROTOCOLS §3.5)."""
        entries = [(gaddr, reads, writes)
                   for gaddr, (reads, writes) in self._access_counts.items()]
        self._access_counts.clear()
        self._ops_since_report = 0
        piggyback = bool(self.lease_ns and not self._fenced)
        try:
            for shard, group in self._by_shard(entries).items():
                request: Dict[str, Any] = {"entries": group,
                                           "cursor": self._loc_cursors[shard]}
                if piggyback:
                    # Every report doubles as a lease heartbeat for free.
                    request["client"] = self.name
                    request["epoch"] = self.fence_epoch
                try:
                    reply = yield from self._master_call("report", request,
                                                         shard=shard)
                except (MasterUnavailableError, NotMyShard, RpcError):
                    continue  # hotness reports are advisory; drop on the floor
                if piggyback:
                    verdict = reply["lease"]
                    if verdict == "ok" and shard == 0:
                        # _last_renew_ns gates only the shard-0 standalone
                        # renew; a report that renewed a secondary shard
                        # must not silence it, or an access pattern that
                        # never touches shard 0's objects starves its lease.
                        self._note_renewal(self.lease_ns)
                    elif verdict == "fenced":
                        self._fenced = True
                        self.m_fence_rejections.add()
                        rec = self.sim.spans
                        if rec is not None:
                            rec.event(self.name, "fence", "report fenced")
                self._apply_locations(shard, reply)
        finally:
            self._report_inflight = False

    def _apply_locations(self, shard: int, reply: dict) -> None:
        """Fold one report reply's location changes into the metadata
        cache (only entries we hold) and move the shard's cursor."""
        updates = reply["updates"]
        if updates is None:
            # The cursor fell off the log or names another incarnation of
            # the shard's master: what it missed is unknowable.
            self._resync_locations(
                [sid for sid in self._conns if self._server_shard(sid) == shard])
        else:
            for gaddr, cached, cache_offset in updates:
                meta = self._cached_meta(gaddr)
                if meta is not None and (meta.cached != cached
                                         or meta.cache_offset != cache_offset):
                    self._store_meta(meta.with_cache(cached, cache_offset))
                    self.m_location_updates.add()
        self._loc_cursors[shard] = reply["cursor"]

    def _resync_locations(self, server_ids) -> None:
        """Devalue every cached location on ``server_ids`` (the epoch bump
        :meth:`reattach_server` uses); each is re-learned at its next use."""
        self.m_location_resyncs.add()
        for sid in server_ids:
            self._srv_epoch[sid] = self._srv_epoch.get(sid, 0) + 1


class _Verb(NamedTuple):
    """What the op driver (:meth:`GengarClient._op`) knows about one verb."""

    #: One attempt: ``attempt(client, span_op, *args)``.
    attempt: Callable[..., Generator]
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
        GengarClient._gread_attempt, "read",
        lambda c, enc, gaddr, offset, length:
            [(gaddr, {"offset": offset, "length": length})],
        lambda gaddr, offset, length: {"gaddr": hex(gaddr)},
        ok_values=lambda c, enc, data: (enc(data),),
        retries=True, tally=True),
    "gwrite": _Verb(
        GengarClient._gwrite_attempt, "write",
        lambda c, enc, gaddr, data, offset:
            [(gaddr, {"value": enc(data), "offset": offset,
                      "length": len(data)})],
        lambda gaddr, data, offset: {"gaddr": hex(gaddr), "bytes": len(data)},
        may_land=True, retries=True, tally=True),
    "gsync": _Verb(
        GengarClient._gsync_attempt, "sync",
        lambda c, enc, server_id: [(None, {"server": server_id})],
        lambda server_id: {},
        may_land=True, retries=True),  # staged writes may drain anyway
    "gread_many": _Verb(
        GengarClient._gread_many_attempt, "read",
        lambda c, enc, gaddrs: [(g, {}) for g in gaddrs],
        lambda gaddrs: {"reads": len(gaddrs)},
        ok_values=lambda c, enc, results: map(enc, results)),
    "glock": _Verb(  # a failed acquire holds nothing
        GengarClient._glock_attempt, "lock", _lock_event, _lock_span,
        ok_values=lambda c, enc, result: (c.fence_epoch,), data=False),
    "gunlock": _Verb(
        GengarClient._gunlock_attempt, "unlock", _lock_event, _lock_span,
        ok_values=lambda c, enc, result: (c.fence_epoch,), data=False),
}
