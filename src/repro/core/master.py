"""The Gengar master: allocation, directory, and the hotness planner.

The master is control plane only.  It owns the global allocator and object
directory, receives the clients' piggybacked access reports, and every epoch
asks the placement policy for promotions/demotions, which it executes by RPC
against the home servers.  No data ever moves through the master.
"""

from __future__ import annotations

from collections import deque
from typing import (TYPE_CHECKING, Any, Deque, Dict, Generator, List,
                    NamedTuple, Optional, Tuple)

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node
    from repro.rdma.qp import QueuePair
    from repro.rdma.rpc import RpcClient
    from repro.sim import Process

from repro.core.addressing import server_of
from repro.core.allocator import (AllocatorError, ExtentAllocator, OutOfMemory,
                                  PoolAllocationPolicy)
from repro.core.config import GengarConfig
from repro.core.directory import Directory
from repro.core.hotness import EpochDecayPolicy, NeverCachePolicy
from repro.core.layout import DramCarver
from repro.core.protocol import (
    CACHE_TAG_BYTES,
    JOURNAL_OP_ALLOC,
    JOURNAL_OP_FENCE,
    JOURNAL_OP_FREE,
    JOURNAL_OP_TERM,
    JOURNAL_PAGE_RECORDS,
    LOCATION_REPLY_UPDATES,
    ObjectMeta,
    ServerDescriptor,
)
from repro.rdma.rpc import DEFAULT_RING_SLOTS, RpcError, RpcServer

#: RPC buffer size; every ring starts at ``DEFAULT_RING_SLOTS`` deep.
_RPC_BUFFER_SIZE = 4096
#: Most extents one ``scrub`` carries: an ``(offset, size)`` pair pickles to
#: at most 24 bytes, so a full batch fits the RPC buffer with room to spare.
_SCRUB_MAX_EXTENTS = _RPC_BUFFER_SIZE // 32
#: Most lock indices one ``recover_dead`` carries: an index pickles to at
#: most 5 bytes and a cleared ``(lock_idx, owner)`` reply pair to at most 13,
#: so a full batch and its reply leave half the RPC buffer to the filter.
_RECOVER_MAX_LOCKS = _RPC_BUFFER_SIZE // 32
#: Phi-accrual failure detection (``failure_detector``): the suspicion level
#: (base 10) at which a suspected client is declared dead and fenced — phi
#: == k means "if heartbeats kept their observed cadence, the chance they
#: are merely late is 10^-k" — and the heartbeat inter-arrival samples kept
#: per client for the estimate.
PHI_THRESHOLD = 8.0
PHI_WINDOW = 16
#: Cache-location changes a shard keeps for its clients' ``report`` cursors
#: (PROTOCOLS §3.5); a cursor older than the oldest one kept resyncs.
LOCATION_LOG_ENTRIES = 4096


def _fragments(intents: list) -> Dict[int, list]:
    """Cut each scanned ``(coordinator, record)`` intent's write-set by
    home server: server id -> one ``writes`` fragment per intent, each to
    ride one ``recover_dead`` (PROTOCOLS §8.2 says why it fits)."""
    fragments: Dict[int, list] = {}
    for _, record in intents:
        by_server: Dict[int, list] = {}
        for entry in record["writes"]:
            by_server.setdefault(server_of(entry[0]), []).append(entry)
        for sid, writes in by_server.items():
            fragments.setdefault(sid, []).append(writes)
    return fragments


class MasterError(Exception):
    """Invalid master-side operation."""


class ExtentViolation(NamedTuple):
    """One breach of the extent invariant (see :class:`_ServerHandle`)."""

    server_id: int
    kind: str  # "extent" | "bytes" | "lock" | "allocator"
    detail: str

    def __str__(self) -> str:
        return f"server {self.server_id}: {self.kind}: {self.detail}"


class _ServerHandle:
    """Master's view of one memory server.

    The extent invariant: *an extent is allocated (a directory record names
    it), quarantined, or free (the allocator may hand it out) — never two,
    never none*; an object's lock index travels with its extent.  ``gfree``
    moves both from the directory to :attr:`quarantine`; only the scrubber,
    after the server confirmed the zeroing, moves them on to the allocator
    and the lock free list.  :meth:`Master.check_extents` audits it.
    """

    def __init__(self, descriptor: ServerDescriptor, rpc: "RpcClient", data_capacity: int,
                 lock_entries: int):
        self.descriptor = descriptor
        self.rpc = rpc
        self.allocator = ExtentAllocator(data_capacity)
        self._lock_free: List[int] = []
        self._lock_next = 0
        self._lock_entries = lock_entries
        #: Freed, not yet scrubbed, oldest first: ``(nvm_offset, size,
        #: lock_idx)``; ``lock_idx`` is None where a journal replay already
        #: accounted the index (:meth:`Master.rebuild`).  The scrubber sends
        #: a prefix and deletes it once the server replied.  Whoever takes
        #: the extents over (reset, reshard) installs a *new* list, which is
        #: how a scrub that straddles the hand-over knows not to settle them
        #: a second time.
        self.quarantine: List[Tuple[int, int, Optional[int]]] = []
        #: The process draining :attr:`quarantine`; None while it is empty.
        self.scrubber: Optional["Process"] = None
        #: Someone asked for a scrub while one was in flight.
        self.rescrub = False

    def alloc_lock_idx(self) -> int:
        if self._lock_free:
            return self._lock_free.pop()
        if self._lock_next >= self._lock_entries:
            raise OutOfMemory("lock table exhausted")
        idx = self._lock_next
        self._lock_next += 1
        return idx

    def free_lock_idx(self, idx: int) -> None:
        self._lock_free.append(idx)


class Master:
    """Runtime state of the Gengar master."""

    def __init__(self, node: "Node", config: GengarConfig, policy_factory=None,
                 standby: bool = False, shard_id: int = 0, num_shards: int = 1):
        self.node = node
        self.sim = node.sim
        self.config = config
        self.directory = Directory()
        #: Which control-plane shard this master is (0 in the single-master
        #: topology).  A shard *owns* the servers registered with
        #: ``add_server(owned=True)`` — its directory, allocator spans,
        #: journal, lease sweep, txn-intent scan, and planner cover exactly
        #: that subset, so the PR 3/7 failover machinery generalizes
        #: per-shard without cloning.
        self.shard_id = shard_id
        self.num_shards = max(1, num_shards)
        #: server_id -> owning shard, kept in lockstep across shards by the
        #: pool (reshard bumps :attr:`map_epoch` everywhere).  Clients cache
        #: this map and invalidate it on the epoch, mirroring the metadata
        #: cache's epoch-invalidation shape.
        self.shard_map: Dict[int, int] = {}
        self.map_epoch = 0
        #: Per-server DRAM-cache budget set by the cross-shard hotness
        #: aggregation (empty = every server gets ``config.cache_capacity``,
        #: the single-master behaviour).
        self._cache_budget: Dict[int, int] = {}
        #: Shard 0's control connections to the peer shards (aggregation).
        self._peer_shards: Dict[int, "RpcClient"] = {}
        #: Every wired server handle, owned or not.  Non-owned handles carry
        #: only a control connection: the txn-intent roll-forward uses them
        #: to apply a cross-shard write-set without forfeiting the intent.
        self._all_servers: Dict[int, _ServerHandle] = {}
        self._servers: Dict[int, _ServerHandle] = {}
        self._alloc_policy: Optional[PoolAllocationPolicy] = None
        if policy_factory is None:
            if config.enable_cache:
                policy_factory = lambda: EpochDecayPolicy(  # noqa: E731
                    promote_threshold=config.promote_threshold)
            else:
                policy_factory = NeverCachePolicy
        self._policy_factory = policy_factory
        self._policies: Dict[int, Any] = {}

        carver = DramCarver(node.dram)
        rpc_base = carver.carve(
            2 * DEFAULT_RING_SLOTS * _RPC_BUFFER_SIZE, "rpc")
        self._carver = carver
        self.rpc = RpcServer(
            node.endpoint, node.dram, base=rpc_base,
            buffer_size=_RPC_BUFFER_SIZE, name=f"{node.name}.rpc",
            grow_cb=lambda nbytes: carver.carve(nbytes, "rpc-grow"),
        )
        self._client_uids: Dict[str, int] = {}
        self._next_uid = 1
        handlers = {
            "gmalloc": self._handle_gmalloc,
            "gfree": self._handle_gfree,
            "lookup": self._handle_lookup,
            "report": self._handle_report,
            "attach": self._handle_attach,
            "renew": self._handle_renew,
        }
        for method, handler in handlers.items():
            if config.master_terms:
                handler = self._with_term(handler)
            self.rpc.register(method, handler)
        # Shard-to-shard plumbing (advisory, so deliberately outside the
        # term envelope): demand stats out, budgets in.
        self.rpc.register("shard_stats", self._handle_shard_stats)
        self.rpc.register("set_budget", self._handle_set_budget)

        #: Lease bookkeeping (empty unless ``config.client_lease_ns``):
        #: client name -> absolute expiry time; uid -> current fencing epoch
        #: (:meth:`rebuild` restores it from the journal's FENCE records).
        self._leases: Dict[str, int] = {}
        self._epochs: Dict[int, int] = {}
        self._lease_sweeper_started = False
        #: Idempotency: req_id -> gaddr for executed gmallocs, and the set
        #: of executed gfree req_ids.  A client whose RPC executed but whose
        #: reply was lost (master crashed first) retries with the same
        #: req_id and gets the original outcome instead of a double
        #: allocate/free.  Journaled (the record's req_id field), so
        #: :meth:`rebuild` restores both across a failover.
        self._alloc_replies: Dict[int, int] = {}
        self._freed_reqs: set = set()
        #: Deepest any one server's quarantine has been (freed extents
        #: waiting for their scrub).
        self.quarantine_peak = 0
        #: Objects whose FREE record is being journaled right now (journal
        #: on): a second free of one of them must not journal a second FREE.
        self._freeing: set = set()
        #: True between recover() and the end of recovery_process(): control
        #: RPCs fail typed ("master recovering") so clients retry instead of
        #: hitting an empty directory.  A *standby* master is born in this
        #: state: it serves nothing until promoted via recovery_process(),
        #: whose term claim simultaneously deposes the old incumbent.
        self._recovering = standby
        self.crashes = 0
        #: Control-plane generation (split-brain fencing).  0 with terms
        #: off; a serving master's replies and journal appends all carry it.
        self.term = 1 if config.master_terms else 0
        #: Set once a server rejects our term — a successor claimed a higher
        #: one.  A deposed master fails every control RPC typed until it is
        #: restarted (recover + recovery_process claims a fresh term).
        self._deposed = False
        #: Phi-accrual failure-detector state (inert unless
        #: ``config.failure_detector``): last heartbeat receipt and the
        #: recent inter-arrival window, per client, plus who is currently
        #: suspected (lease lapsed but cadence says "late, not dead").
        self._hb_last: Dict[str, int] = {}
        self._hb_intervals: Dict[str, List[int]] = {}
        self._suspected: set = set()

        m = self.sim.metrics
        self.allocations = m.counter("master.allocations")
        self.reports = m.counter("master.reports")
        self.promote_ops = m.counter("master.promotions")
        self.demote_ops = m.counter("master.demotions")
        self.lease_renewals = m.counter("master.lease_renewals")
        self.lease_expiries = m.counter("master.lease_expiries")
        self.fence_rejections = m.counter("master.fence_rejections")
        self.lock_recoveries = m.counter("master.lock_recoveries")
        self.failovers = m.counter("master.failovers")
        self.journal_replayed = m.counter("master.journal_replayed")
        self.dup_rpcs = m.counter("master.dup_rpcs")
        self.suspected_clients = m.counter("master.suspected_clients")
        self.term_claims = m.counter("master.term_claims")
        self.depositions = m.counter("master.depositions")
        self.txn_rolled_forward = m.counter("master.txn_rolled_forward")
        self._planner_started = False
        #: Highest term seen in any journal during the last rebuild().
        self._journal_term_max = 0
        #: The location log: the gaddr of every cache-location change this
        #: shard made, oldest first; entry ``i`` has sequence number
        #: ``_loc_head - len(_loc_log) + i``.  A client's ``report`` carries
        #: its cursor (the next sequence number it has not seen).
        self._loc_log: Deque[int] = deque(maxlen=LOCATION_LOG_ENTRIES)
        self._restart_location_log()

    # ------------------------------------------------------------------
    # Wiring (called by the deployment bootstrap)
    # ------------------------------------------------------------------
    def add_server(self, descriptor: ServerDescriptor, rpc_client: "RpcClient",
                   data_capacity: int, owned: bool = True) -> None:
        """Register a memory server with its control-plane connection.

        ``owned=False`` wires the connection without taking metadata
        ownership: the handle is reachable for cross-shard txn-intent
        applies (and as the landing pad for a later reshard adoption) but
        never allocated from, journaled to, or planned for.
        """
        sid = descriptor.server_id
        if sid in self._all_servers:
            raise MasterError(f"server {sid} already registered")
        handle = _ServerHandle(
            descriptor, rpc_client, data_capacity, self.config.lock_table_entries
        )
        self._all_servers[sid] = handle
        if not owned:
            return
        self._servers[sid] = handle
        self._policies[sid] = self._policy_factory()
        self._rebuild_alloc_policy()

    def _rebuild_alloc_policy(self) -> None:
        self._alloc_policy = PoolAllocationPolicy(
            {s: h.allocator for s, h in self._servers.items()}
        ) if self._servers else None

    def add_peer_shard(self, shard_id: int, rpc_client: "RpcClient") -> None:
        """Wire shard 0's control connection to a peer shard (aggregation)."""
        self._peer_shards[shard_id] = rpc_client

    def serve_control(self, qp: "QueuePair") -> None:
        """Start serving a client's control connection."""
        self.rpc.serve(qp)

    def _corack_servers(self, client_name: str) -> list:
        """Server ids sharing the client's rack ([] on a flat fabric)."""
        fabric = self.node.endpoint.fabric
        rack = fabric.rack_of(client_name)
        if not rack:
            return []
        return [sid for sid, h in self._servers.items()
                if fabric.rack_of(h.descriptor.node_name) == rack]

    def carve_rpc_span(self) -> int:
        """Reserve master DRAM for one outbound RPC client's buffer rings."""
        return self._carver.carve(
            2 * DEFAULT_RING_SLOTS * _RPC_BUFFER_SIZE, "rpc-client")

    def start_planner(self) -> None:
        """Launch the periodic promotion/demotion planner (and, on shard 0
        of a multi-shard pool, the cross-shard hotness aggregator)."""
        if not self._planner_started and self.config.enable_cache:
            self._planner_started = True
            self.sim.spawn(self._planner_loop(),
                           name=f"{self.node.name}.planner")
            if self.num_shards > 1 and self.shard_id == 0 and self._peer_shards:
                self.sim.spawn(self._aggregation_loop(),
                               name=f"{self.node.name}.aggregation")

    @property
    def servers(self) -> Dict[int, ServerDescriptor]:
        return {sid: h.descriptor for sid, h in self._servers.items()}

    # ------------------------------------------------------------------
    # Shard routing and dedup scoping
    # ------------------------------------------------------------------
    def _dedup_key(self, req_id: int) -> Tuple[int, int]:
        """Idempotency keys are ``(client uid, req_id)`` *inside the owning
        shard*, not the bare req_id.  The req_id already embeds the uid in
        its high 32 bits, but keying by the explicit pair makes the scope
        collision-proof: two clients' sequence numbers can never alias, and
        a reshard moves exactly the owning shard's entries — a retry that
        crosses a shard failover still finds (or is redirected to) the one
        entry that matches its issuer."""
        return (req_id >> 32, req_id)

    def _check_owner(self, gaddr: int) -> None:
        """Refuse ops on objects whose home server another shard owns.

        Raised *before* any state is touched, so a client with a stale
        shard map gets a typed redirect (it parses the owner and map epoch
        out of the message) and the misrouted op is never applied here.
        """
        if self.num_shards <= 1:
            return
        sid = server_of(gaddr)
        if sid in self._servers:
            return
        owner = self.shard_map.get(sid, sid % self.num_shards)
        raise MasterError(
            f"not my shard: server {sid} is owned by shard {owner}, "
            f"not shard {self.shard_id} (map epoch {self.map_epoch})")

    def _handle_shard_stats(self, request: dict) -> dict:
        """Per-server cache demand for the cross-shard aggregator."""
        self._check_serving()
        return {"demand": {sid: self._server_demand(sid)
                           for sid in sorted(self._servers)}}

    def _handle_set_budget(self, request: dict) -> bool:
        """Adopt the aggregator's per-server DRAM budgets (advisory)."""
        for sid, budget in request["budgets"].items():
            if sid in self._servers:
                self._cache_budget[sid] = budget
        return True

    def _server_demand(self, sid: int) -> int:
        """Bytes this server's working set wants in DRAM: what is cached
        now plus what the policy would promote if capacity allowed."""
        policy = self._policies[sid]
        hot = getattr(policy, "hot_bytes", None)
        return self.directory.cached_bytes(sid) + (hot() if hot else 0)

    # ------------------------------------------------------------------
    # RPC handlers
    # ------------------------------------------------------------------
    def _with_term(self, handler):
        """Wrap a handler so its reply rides in the ``{"t": term, "r": ...}``
        envelope (``master_terms`` only).  Clients compare ``t`` against the
        highest term they have observed and discard stale-term replies —
        the whole-control-plane analogue of per-object fencing epochs."""
        def wrapped(request):
            result = handler(request)
            if hasattr(result, "send"):  # generator-style handler
                result = yield from result
            return {"t": self.term, "r": result}
        return wrapped

    def _check_serving(self) -> None:
        """Fail typed while a restarted master is still replaying its
        journal; clients map this to a retryable MasterUnavailableError.
        A deposed master (a successor claimed a higher term) fails typed
        too — clients map that to StaleTermError and re-attach elsewhere."""
        if self._recovering:
            raise MasterError("master recovering; retry")
        if self._deposed:
            raise MasterError(f"master deposed: term {self.term} superseded")

    def _handle_gmalloc(self, request: dict) -> Generator[Any, Any, ObjectMeta]:
        self._check_serving()
        size = request["size"]
        if size <= 0:
            raise MasterError(f"gmalloc size must be positive, got {size}")
        req_id = request.get("req_id", 0)
        if req_id and self._dedup_key(req_id) in self._alloc_replies:
            # Retry of an RPC that executed but whose reply was lost:
            # return the original allocation instead of leaking a second.
            # If the object was resharded away after the original executed,
            # its dedup entry travelled with it — redirect the retry to the
            # owner (which replies from its copy) instead of answering from
            # a directory that no longer holds the record.
            gaddr = self._alloc_replies[self._dedup_key(req_id)]
            self._check_owner(gaddr)
            self.dup_rpcs.add()
            return self.directory.get(gaddr).to_meta()
        if self._alloc_policy is None:
            # Resharded down to zero servers: redirect the alloc to a shard
            # that owns one (same wire format as the object redirect — the
            # client learns that server's owner and re-routes the request).
            for sid in sorted(self.shard_map):
                owner = self.shard_map[sid]
                if owner != self.shard_id:
                    raise MasterError(
                        f"not my shard: server {sid} is owned by shard "
                        f"{owner}, not shard {self.shard_id} "
                        f"(map epoch {self.map_epoch})")
            raise MasterError("no memory servers registered")
        yield from self.node.cpu_work()
        preferred = None
        if self.config.placement == "rack-local":
            preferred = self._corack_servers(request.get("client", ""))
        while True:
            try:
                server_id = self._alloc_policy.choose(size, preferred=preferred)
                handle = self._servers[server_id]
                nvm_offset = handle.allocator.alloc(size)
                try:
                    lock_idx = handle.alloc_lock_idx()
                except OutOfMemory:
                    handle.allocator.free(nvm_offset)
                    raise
                break
            except OutOfMemory:
                # Freed space still in quarantine is a scrub away from being
                # allocatable: wait for it rather than fail a pool that is
                # not full.
                if not (yield from self.settle_frees()):
                    raise
        record = self.directory.add(server_id, nvm_offset, size, lock_idx)
        self._policies[server_id].track(record.gaddr, size)
        self.allocations.add(size)
        if self.config.metadata_journal:
            # Durability before visibility: the allocation is journaled in
            # the home server's NVM before the client learns the address.
            try:
                yield from self._journal_append(handle, {
                    "op": JOURNAL_OP_ALLOC, "lock_idx": lock_idx,
                    "gaddr": record.gaddr, "size": size, "req_id": req_id,
                })
            except (RpcError, MasterError):
                # Neither durable nor visible: nobody will ever free it.
                if self.directory.lookup(record.gaddr) is record:
                    self.directory.remove(record.gaddr)
                    self._policies[server_id].on_freed(record.gaddr)
                    handle.allocator.free(nvm_offset)
                    handle.free_lock_idx(lock_idx)
                raise
        if req_id:
            self._alloc_replies[self._dedup_key(req_id)] = record.gaddr
        return record.to_meta()

    def _journal_append(self, handle: _ServerHandle,
                        payload: dict) -> Generator[Any, Any, int]:
        """Journal one record on a server.  The durability-before-visibility
        ordering turns a stale-term rejection (:meth:`_fenced_call`) into
        write-path fencing: a stale master cannot ack a single allocation,
        because the ack depends on exactly the append that just failed."""
        return self._fenced_call(handle, "journal_append", payload)

    def _fenced_call(self, handle: _ServerHandle, method: str,
                     payload: dict) -> Generator[Any, Any, Any]:
        """A master→server call that changes NVM (journal append, scrub),
        carrying our term when terms are on.  A server that already saw a
        higher term rejects it — the moment a partitioned master learns it
        has been deposed."""
        if self.config.master_terms:
            payload["term"] = self.term
        try:
            result = yield from handle.rpc.call(method, payload)
        except RpcError as exc:
            if "stale master term" in str(exc):
                self._deposed = True
                self.depositions.add()
                rec = self.sim.spans
                if rec is not None:
                    rec.event(self.node.name, "term",
                              method.replace("_", " ") + " rejected: deposed",
                              term=self.term)
                raise MasterError(
                    f"master deposed: term {self.term} superseded") from exc
            raise
        return result

    def _handle_gfree(self, request: dict) -> Generator[Any, Any, bool]:
        """One round trip: unreachability is the ack.  The record leaves the
        directory, the extent and its lock index enter the home server's
        quarantine, and the scrub that makes them allocatable again runs
        behind the reply (:meth:`_scrub_loop`)."""
        self._check_serving()
        gaddr = request["gaddr"]
        req_id = request.get("req_id", 0)
        if req_id and self._dedup_key(req_id) in self._freed_reqs:
            self.dup_rpcs.add()
            return True  # retry of a free that already executed
        self._check_owner(gaddr)
        yield from self.node.cpu_work()
        record = self.directory.get(gaddr)
        handle = self._servers[record.server_id]
        if self.config.metadata_journal:
            # Durability before the free takes effect: nothing has changed
            # yet, so a failed append (home server down) leaves the object
            # fully live and the client's retry finds it.
            if gaddr in self._freeing:
                raise MasterError(f"free of {gaddr:#x} already in progress")
            self._freeing.add(gaddr)
            try:
                yield from self._journal_append(handle, {
                    "op": JOURNAL_OP_FREE, "lock_idx": record.lock_idx,
                    "gaddr": gaddr, "size": record.size, "req_id": req_id,
                })
            finally:
                self._freeing.discard(gaddr)
            if self.directory.lookup(gaddr) is not record:
                # Resharded away while the append was in flight: the owner
                # holds the record (still live) and redoes the free.
                self._check_owner(gaddr)
        self.directory.remove(gaddr)
        self._policies[record.server_id].on_freed(gaddr)
        if req_id:
            self._freed_reqs.add(self._dedup_key(req_id))
        handle.quarantine.append(
            (record.nvm_offset, record.size, record.lock_idx))
        depth = len(handle.quarantine)
        if depth > self.quarantine_peak:
            self.quarantine_peak = depth
        if self.sim.spans is not None:
            self._note_quarantine()
        self._kick_scrubber(handle)
        return True

    # ------------------------------------------------------------------
    # The free path's second half: quarantine -> scrub -> allocator
    # ------------------------------------------------------------------
    def _kick_scrubber(self, handle: _ServerHandle,
                       after: Optional["Process"] = None,
                       ) -> Optional["Process"]:
        """Make sure ``handle``'s quarantine is being drained; returns the
        scrubber (None when there is nothing to drain)."""
        if handle.scrubber is not None:
            # Remembered, so that a scrub sent to a server that has come
            # back meanwhile does not fail unnoticed.
            handle.rescrub = True
        elif handle.quarantine:
            handle.scrubber = self.sim.spawn(
                self._scrub_loop(handle, handle.quarantine, after),
                name=f"{self.node.name}.scrub.{handle.descriptor.server_id}")
        return handle.scrubber

    def _scrub_loop(self, handle: _ServerHandle, pending: list,
                    after: Optional["Process"]) -> Generator[Any, Any, None]:
        """Drain one server's quarantine, one ``scrub`` in flight at a time.

        Group commit: each message carries whatever accumulated while the
        previous one was in flight.  An extent (with its lock index) becomes
        allocatable only after the server confirmed zeroing it and killing
        its cache slot — calloc semantics.  A failed scrub leaves its batch
        quarantined and, unless someone asked again meanwhile, ends the
        process; the next free, a starved ``gmalloc`` or
        :meth:`on_server_recovered` starts another.
        """
        try:
            if after is not None and after.is_alive:
                # Reshard adoption: the exporter's last scrub may still be
                # in flight.  Ours must not overtake it, or the late one
                # could zero an extent we have handed out again by then.
                yield after
            while (pending and handle.quarantine is pending
                   and not self._deposed):
                batch = pending[:_SCRUB_MAX_EXTENTS]
                rec = self.sim.spans
                t0 = self.sim.now if rec is not None else 0
                handle.rescrub = False
                try:
                    yield from self._fenced_call(
                        handle, "scrub",
                        {"extents": [(off, size) for off, size, _ in batch]})
                except MasterError:
                    break  # deposed: the batch waits for a successor
                except RpcError:
                    if handle.rescrub:
                        continue  # kicked while in flight: worth another try
                    break  # server down: the batch waits for its restart
                if handle.quarantine is not pending:
                    # A reset or reshard took the quarantine over while the
                    # scrub was in flight; its new holder settles these
                    # extents.
                    break
                del pending[:len(batch)]
                for offset, _size, lock_idx in batch:
                    handle.allocator.free(offset)
                    if lock_idx is not None:
                        handle.free_lock_idx(lock_idx)
                if rec is not None:
                    rec.record(self.node.name, "master.scrub", t0,
                               server=handle.descriptor.server_id,
                               extents=len(batch),
                               bytes=sum(size for _, size, _ in batch))
                    self._note_quarantine()
        finally:
            if handle.quarantine is pending:
                handle.scrubber = None

    def settle_frees(self) -> Generator[Any, Any, bool]:
        """Wait until some owned server's quarantine has drained; returns
        whether any did (False: nothing quarantined, or no server reachable
        to scrub it)."""
        for sid in sorted(self._servers):
            handle = self._servers[sid]
            scrubber = self._kick_scrubber(handle)
            if scrubber is not None:
                yield scrubber
                if not handle.quarantine:
                    return True
        return False

    def _note_quarantine(self) -> None:
        """Publish the quarantine depth (callers hold the ``sim.spans``
        guard: the level exists only in instrumented runs)."""
        self.sim.metrics.level(f"{self.node.name}.quarantine").update(
            self.quarantined)

    @property
    def quarantined(self) -> int:
        """Extents freed but not yet scrubbed, over every owned server."""
        return sum(len(h.quarantine) for h in self._servers.values())

    def _handle_lookup(self, request: dict) -> Generator[Any, Any, ObjectMeta]:
        self._check_serving()
        self._check_owner(request["gaddr"])
        yield from self.node.cpu_work()
        return self.directory.get(request["gaddr"]).to_meta()

    def _handle_report(self, request: dict) -> Generator[Any, Any, dict]:
        """Fold a client's access report; reply with the location changes
        since its cursor.

        The reply carries the current directory location of every object
        whose location this shard changed since the request's ``cursor``
        (deduplicated, at most :data:`LOCATION_REPLY_UPDATES`) and the
        cursor past them: a client learns every promotion and demotion on
        its next report, not only those of objects it reported.  A cursor
        outside the log (older than its oldest entry, or from another
        incarnation) gets ``updates: None`` — resync — and the log's head.

        With leases enabled the request additionally carries the client's
        name and fencing epoch, a successful report doubles as a lease
        renewal, and the reply adds the lease verdict.
        """
        self._check_serving()
        yield from self.node.cpu_work()
        # Group entries per home server and flush each group in one
        # record_batch call.  Policies are independent per-server objects and
        # in-server order is preserved, so decisions match per-entry record().
        per_server: Dict[int, List[Tuple[int, int, int]]] = {}
        for entry in request["entries"]:
            record = self.directory.lookup(entry[0])
            if record is None:
                continue  # freed concurrently
            per_server.setdefault(record.server_id, []).append(entry)
        for sid, batch in per_server.items():
            self._policies[sid].record_batch(batch)
        self.reports.add()
        reply = self._location_changes(request["cursor"])
        name = request.get("client")
        if name is not None:
            verdict = self._lease_verdict(name, request.get("epoch", 0))
            if verdict == "ok":
                self._renew_lease(name)
            elif verdict == "fenced":
                self.fence_rejections.add()
            reply["lease"] = verdict
        return reply

    def _location_changes(self, cursor: int) -> dict:
        """``{"updates", "cursor"}`` for a report presenting ``cursor``."""
        log = self._loc_log
        kept = len(log)
        unseen = self._loc_head - cursor
        if not 0 <= unseen <= kept:
            return {"updates": None, "cursor": self._loc_head}
        updates: List[Tuple[int, bool, int]] = []
        seen: set = set()
        for i in range(kept - unseen, kept):
            gaddr = log[i]
            if gaddr not in seen:
                if len(seen) == LOCATION_REPLY_UPDATES:
                    break  # the rest rides the next report
                seen.add(gaddr)
                record = self.directory.lookup(gaddr)
                if record is not None:
                    updates.append((gaddr, record.cached, record.cache_offset))
            cursor += 1
        return {"updates": updates, "cursor": cursor}

    def _log_location(self, gaddr: int) -> None:
        """Record that ``gaddr``'s cache location changed."""
        self._loc_log.append(gaddr)
        self._loc_head += 1

    def _restart_location_log(self) -> None:
        """Start an empty location log under a fresh incarnation.

        A sequence number carries its log's incarnation in the high bits (a
        pool-wide count of logs started), so every cursor into another log
        — a restarted master's old one, the incumbent a standby replaced —
        lies outside this one and resyncs.
        """
        started = self.sim.metrics.counter("master.location_logs")
        started.add()
        self._loc_log.clear()
        self._loc_head = started.count << 32

    def _handle_attach(self, request: dict) -> Generator[Any, Any, dict]:
        if self._deposed:
            # A deposed master must not grant leases/identities: an attach
            # it served would park the client on a dead control plane
            # forever (re-attach "succeeds", renewals bounce, repeat).
            # The stale-term error sends the client to the incumbent.
            raise MasterError(f"master deposed: term {self.term} superseded")
        yield from self.node.cpu_work()
        name = request["client"]
        uid = self._client_uids.get(name)
        if uid is None:
            prev_uid = request.get("uid")
            if prev_uid:
                # Re-attach to a restarted master: adopt the client's old
                # uid so its existing lock words stay attributable to it.
                uid = prev_uid
                self._next_uid = max(self._next_uid, uid + 1)
            else:
                uid = self._next_uid
                self._next_uid += 1
            self._client_uids[name] = uid
        # The fencing epoch is the max of both views: ours is ahead if we
        # fenced this client while it was away (it rejoins under the fresh
        # epoch, which the journal restores across our own restart); the
        # client's is ahead if *we* restarted and lost it.
        epoch = max(self._epochs.get(uid, 0), request.get("epoch", 0))
        self._epochs[uid] = epoch
        if request.get("restart"):
            # A restarted client lost its old incarnation whole: recover
            # it (the fence bumps the epoch) before granting the new one.
            yield from self.evict_client(name)
            epoch = self._epochs[uid]
        if self.config.client_lease_ns:
            self._leases[name] = self.sim.now + self.config.client_lease_ns
            if self.config.failure_detector:
                # The attach is a heartbeat: without this, a client that
                # loses the master right after attaching has no arrival
                # history, phi comes back infinite, and the very first
                # lapsed sweep fences it — the spurious revocation the
                # detector exists to prevent.
                self._note_heartbeat(name)
            self._start_lease_sweeper()
            rec = self.sim.spans
            if rec is not None:
                rec.event(self.node.name, "lease", "lease granted",
                          client=name, uid=uid, epoch=epoch,
                          lease_ns=self.config.client_lease_ns)
        return {
            "servers": [h.descriptor for h in self._servers.values()],
            "client_id": uid,
            "epoch": epoch,
            "lease_ns": self.config.client_lease_ns,
            "log": self._loc_head,
        }

    def _handle_renew(self, request: dict) -> Generator[Any, Any, dict]:
        """Standalone lease heartbeat (for clients with nothing to report)."""
        self._check_serving()
        yield from self.node.cpu_work()
        name, epoch = request["client"], request.get("epoch", 0)
        verdict = self._lease_verdict(name, epoch)
        if verdict == "ok":
            self._renew_lease(name)
            return {"ok": True, "lease_ns": self.config.client_lease_ns}
        if verdict == "fenced":
            self.fence_rejections.add()
            rec = self.sim.spans
            if rec is not None:
                rec.event(self.node.name, "fence",
                          "renew rejected: epoch retired", client=name,
                          epoch=epoch)
        return {"ok": False, "reason": verdict}

    # ------------------------------------------------------------------
    # Leases and fenced lock recovery
    # ------------------------------------------------------------------
    def _lease_verdict(self, name: str, epoch: int) -> str:
        """``ok`` | ``fenced`` (we retired this epoch) | ``unknown`` (we
        have never heard of this client — typically a restarted master —
        so it must re-attach)."""
        if name not in self._client_uids:
            return "unknown"
        current = self._epochs.get(self._client_uids[name], 0)
        if current > epoch:
            return "fenced"
        if current < epoch:
            return "unknown"  # we restarted and lost the epoch; re-attach
        return "ok"

    def _renew_lease(self, name: str) -> None:
        if self.config.client_lease_ns:
            self._leases[name] = self.sim.now + self.config.client_lease_ns
            self.lease_renewals.add()
            if self.config.failure_detector:
                self._note_heartbeat(name)

    # ------------------------------------------------------------------
    # Phi-accrual failure detection (partition-aware lease expiry)
    # ------------------------------------------------------------------
    def _note_heartbeat(self, name: str) -> None:
        """Feed one heartbeat receipt into the inter-arrival estimator."""
        now = self.sim.now
        last = self._hb_last.get(name)
        if last is not None and now > last:
            window = self._hb_intervals.setdefault(name, [])
            window.append(now - last)
            if len(window) > PHI_WINDOW:
                del window[0]
        self._hb_last[name] = now
        if name in self._suspected:
            self._suspected.discard(name)
            rec = self.sim.spans
            if rec is not None:
                rec.event(self.node.name, "partition",
                          "suspected client heard again", client=name)

    def _phi(self, name: str) -> float:
        """Suspicion level for ``name``: how implausibly late is its next
        heartbeat, given the cadence we actually observed?

        Exponential-tail approximation of phi-accrual: with mean observed
        inter-arrival m and silence t, P(still alive) ~ exp(-t/m), so
        phi = t / (m * ln 10).  Flapping links inflate m, which keeps phi
        low through the next flap — exactly the spurious-revocation
        damping the detector exists for.
        """
        last = self._hb_last.get(name)
        if last is None:
            return float("inf")  # never heard a heartbeat at all
        window = self._hb_intervals.get(name, [])
        if len(window) >= 2:
            mean = sum(window) / len(window)
        else:
            mean = float(self.config.client_lease_ns)
        elapsed = self.sim.now - last
        return elapsed / (mean * 2.302585092994046)

    def _start_lease_sweeper(self) -> None:
        if not self._lease_sweeper_started:
            self._lease_sweeper_started = True
            self.sim.spawn(self._lease_sweeper_loop(),
                           name=f"{self.node.name}.leases")

    def _lease_sweeper_loop(self) -> Generator[Any, Any, None]:
        check = max(1, self.config.client_lease_ns // 4)
        validated_ns = self.sim.now
        while True:
            yield check
            # A dead master detects nothing: its clock is "stopped".  Its
            # sends would flush, but expiring a lease or suspecting a client
            # first bumps ``lease_expiries`` / ``suspected_clients``, which
            # recover() does not reset.
            if not self.node.endpoint.alive or self._recovering or self._deposed:
                continue
            now = self.sim.now
            if (self.config.master_terms and self._servers
                    and now - validated_ns >= self.config.client_lease_ns):
                # Periodic authority re-validation against the journal (the
                # master-lease-on-shared-storage pattern).  Without it a
                # healed stale master whose clients happen to still
                # heartbeat *it* would keep granting leases at its old term
                # forever — neither side ever hears about the successor,
                # because only the journal knows.  Rejection deposes us;
                # every later reply then bounces clients to the incumbent.
                validated_ns = now
                try:
                    yield from self._validate_term()
                except MasterError:
                    continue  # deposed: _check_serving refuses from now on
            expired = sorted(n for n, exp in self._leases.items() if exp <= now)
            for name in expired:
                yield from self._expire_lease(name)

    def _validate_term(self) -> Generator[Any, Any, bool]:
        """Ask the journal whether this master's term still rules.

        Appends a no-op TERM record at our own term; a server that saw a
        successor's higher term rejects it, which :meth:`_journal_append`
        turns into deposition + :class:`MasterError`.  Returns True when
        the journal accepted (authority confirmed), False when it was
        unreachable (authority unknown — act on nothing).
        """
        handle = self._servers[min(self._servers)]
        try:
            yield from self._journal_append(handle, {
                "op": JOURNAL_OP_TERM, "lock_idx": 0, "gaddr": self.term,
                "size": 0, "req_id": 0})
        except RpcError as exc:
            if "journal full" not in str(exc):
                return False  # journal unreachable: no verdict either way
            # A full journal still term-checked the append first: confirmed.
        return True

    def _expire_lease(self, name: str) -> Generator[Any, Any, None]:
        # Re-check the deadline at processing time, not snapshot time: the
        # sweeper yields inside each earlier client's recovery RPCs, and a
        # client that renewed or re-attached in that window holds a fresh
        # lease at the SAME epoch — fencing it now would clear locks it
        # legitimately holds and hand them to a second writer.
        expiry = self._leases.get(name)
        if expiry is None or expiry > self.sim.now:
            return  # renewed / re-attached while this sweep was in flight
        if self.config.failure_detector:
            # Partition-aware expiry: a lapsed deadline alone is not death.
            # While the accrued suspicion stays under the threshold the
            # client is only *suspected* (heartbeats were flowing at a
            # cadence that makes "late" more plausible than "dead"); its
            # lease entry stays so every sweep re-evaluates, and fencing
            # happens only once phi crosses the threshold.
            phi = self._phi(name)
            if phi < PHI_THRESHOLD:
                if name not in self._suspected:
                    self._suspected.add(name)
                    self.suspected_clients.add()
                    rec = self.sim.spans
                    if rec is not None:
                        rec.event(self.node.name, "partition",
                                  "client suspected", client=name,
                                  phi=round(phi, 2))
                return
            self._suspected.discard(name)
        if self.config.master_terms and self._servers:
            # Authority check before the irreversible part: lock recovery
            # CAS-clears lock words directly, so unlike allocations it is
            # not naturally fenced by the journal write path.  A deposed
            # master behind a healed partition would otherwise "expire"
            # every client it stopped hearing from and clear locks the
            # incumbent's clients legitimately hold.  Appending a no-op
            # TERM record at our own term makes the servers adjudicate:
            # rejection means a successor claimed a higher term — stand
            # down instead of fencing.
            try:
                confirmed = yield from self._validate_term()
            except MasterError:
                rec = self.sim.spans
                if rec is not None:
                    rec.event(self.node.name, "term",
                              "lease fence aborted: deposed", client=name,
                              term=self.term)
                return
            if not confirmed:
                return  # journal unreachable: no authority to fence now
        self.lease_expiries.add()
        rec = self.sim.spans
        if rec is not None:
            rec.event(self.node.name, "lease", "lease expired", client=name)
        yield from self.evict_client(name)

    def _fence_and_recover(self, held: Dict[int, int],
                           names: List[str]) -> Generator[Any, Any, int]:
        """Declare clients dead: ``held`` maps each dead uid to the highest
        epoch seen in its words and intents, ``names`` are its clients'
        names.  Their leases, suspicion and pins go; each uid's epoch is
        bumped past ours and the one seen (first, before any yield, so a
        zombie's renew is refused and its re-attach gets the fresh epoch)
        and journaled; then :meth:`_recover_dead` runs.  Returns the number
        of locks recovered."""
        for name in names:
            self._leases.pop(name, None)
            self._suspected.discard(name)
        owners = {uid: max(self._epochs.get(uid, 0), seen)
                  for uid, seen in held.items()}
        journaled = None
        if not self.config.client_lease_ns:
            owners = dict.fromkeys(owners)  # no epochs: any word is dead
        else:
            self._epochs.update((uid, epoch + 1) for uid, epoch in owners.items())
            if self.config.metadata_journal:
                # Durability before destruction: the retirement is durable
                # before the pass changes anything (it only scans while the
                # append is in flight), so a master that dies mid-sweep (and
                # rebuilds with a blank epoch map) still refuses to re-grant
                # the epoch whose locks it was recovering.
                journaled = self.sim.spawn(self._journal_fences(owners))
        cleared = yield from self._recover_dead({"owners": owners,
                                                 "clients": names}, journaled)
        for record in list(self.directory.objects()):
            if record.pinned and record.pinned_by in names:
                record.pinned = False
                record.pinned_by = None
                yield from self._demote(
                    self._servers[record.server_id],
                    self._policies[record.server_id], record.gaddr)
        rec = self.sim.spans
        if rec is not None:
            rec.event(self.node.name, "lease", "clients fenced",
                      clients=names, uids=sorted(owners),
                      locks_recovered=cleared)
        return cleared

    def _recover_dead(self, dead: dict,
                      journaled=None) -> Generator[Any, Any, int]:
        """The one recovery pass, run by :meth:`_fence_and_recover` for a
        lease expiry, a restart's eviction and the orphan sweep alike.

        ``dead`` is the filter ``txn_intent_scan`` and the servers'
        ``recover_dead`` take: ``owners`` (dead uid -> the epoch it is
        fenced at, None with leases off) and ``clients``, the dead clients'
        names.  ``journaled``, when given, is the fence's journal append:
        it is awaited after the scan, before the first load.

        Step 1 scans every server for the dead set's intents (a dead
        client's coordinator may belong to another shard than its
        write-set) and sends each home of a committed fragment one
        ``recover_dead`` per fragment (the server retires the dead rings,
        waits for their drain loops to exit and applies it); step 2 clears
        each intent whose every home answered; only then does step 3 send
        each owned server the lock indices of this shard's objects on it,
        skipping those of an intent left durable: the later sweep that
        re-applies it frees them (PROTOCOLS §8.2, §10.3).  Returns the
        number of words cleared.
        """
        rec = self.sim.spans
        t0 = self.sim.now if rec is not None else 0
        intents = yield from self._scan_intents(self._all_servers, dead)
        if journaled is not None:
            yield journaled
        _, applied = yield from self._send_loads({
            sid: [dict(dead, writes=writes) for writes in fragments]
            for sid, fragments in _fragments(intents).items()})
        held = yield from self._clear_intents(intents, applied, t0)
        unlocks, _ = yield from self._send_loads(self._lock_loads(dead, held))
        cleared = sum(len(reply["cleared"]) for _, reply in unlocks)
        self.lock_recoveries.add(cleared)
        return cleared

    def _scan_intents(self, sids, dead: dict) -> Generator[Any, Any, list]:
        """``(sid, record)`` of each durable intent of the ``dead`` filter
        on the servers ``sids``."""
        intents = []
        for sid in sorted(sids):
            try:
                records = yield from self._all_servers[sid].rpc.call(
                    "txn_intent_scan", dead)
            except RpcError:
                continue  # coordinator down: its intents wait for it
            intents += [(sid, record) for record in records]
        return intents

    def _lock_loads(self, dead: dict, held=()) -> Dict[int, list]:
        """Beside the ``dead`` filter, each owned server's lock indices of
        this shard's objects not in ``held``, ``_RECOVER_MAX_LOCKS`` a load
        (one load even with none, which still retires the rings there)."""
        idxs: Dict[int, list] = {sid: [] for sid in self._servers}
        for record in sorted(self.directory.objects(), key=lambda r: r.lock_idx):
            if record.gaddr not in held:
                idxs[record.server_id].append(record.lock_idx)
        return {sid: [dict(dead, lock_idxs=got[at:at + _RECOVER_MAX_LOCKS])
                      for at in range(0, max(len(got), 1), _RECOVER_MAX_LOCKS)]
                for sid, got in idxs.items()}

    def _send_loads(self, loads: Dict[int, list]) -> Generator[Any, Any, tuple]:
        """Send each server its ``recover_dead`` loads in order: the ``(sid,
        reply)`` of every answered load, and the servers that answered all."""
        replies, answered = [], set()
        for sid in sorted(loads):
            try:
                for load in loads[sid]:
                    reply = yield from self._all_servers[sid].rpc.call(
                        "recover_dead", load)
                    replies.append((sid, reply))
            except RpcError:
                continue  # dead server: its lock table and rings died too
            answered.add(sid)
        return replies, answered

    def _clear_intents(self, intents: list, applied: set,
                       t0: int) -> Generator[Any, Any, set]:
        """Step 2 of :meth:`_recover_dead` (begun at ``t0``): clear each
        intent whose every home ``applied`` its fragment; return the
        objects of those left durable."""
        rec = self.sim.spans
        held = set()
        rolled = 0
        for coordinator, record in intents:
            gaddrs = {g for g, _, _ in record["writes"]}
            landed = {server_of(g) for g in gaddrs} <= applied
            if landed:
                try:
                    yield from self._all_servers[coordinator].rpc.call(
                        "txn_intent_clear", {"txn": record["txn"]})
                except RpcError:
                    landed = False
            if not landed:
                held |= gaddrs
                continue
            rolled += 1
            self.txn_rolled_forward.add()
            if rec is not None:
                rec.event(self.node.name, "txn", "rolled forward",
                          txn=record["txn"], owner=record["owner"],
                          writes=len(record["writes"]))
        if rec is not None:
            rec.record(self.node.name, "txn.recover", t0,
                       rolled_forward=rolled)
        return held

    def _journal_fences(self, retired: Dict[int, int]) -> Generator[Any, Any, None]:
        """Journal each uid's new floor, one above its ``retired`` epoch, on
        the first reachable server (rebuild scans every journal; with none
        reachable the fence proceeds un-journaled).  A deposed master's
        append raises :class:`MasterError`: no authority to keep fencing."""
        for uid in sorted(retired):
            for sid in sorted(self._servers):
                try:
                    yield from self._journal_append(self._servers[sid], {
                        "op": JOURNAL_OP_FENCE, "lock_idx": 0, "gaddr": uid,
                        "size": retired[uid] + 1, "req_id": 0})
                    break
                except RpcError:
                    continue  # server (or its journal) down: try the next one

    # ------------------------------------------------------------------
    # Admin API: pin an object in DRAM (used by microbenchmarks and
    # operators who know an object is hot regardless of observed traffic).
    # ------------------------------------------------------------------
    def pin(self, gaddr: int, client: Optional[str] = None) -> Generator[Any, Any, None]:
        """Force-promote an object into its home server's DRAM cache and
        keep it there regardless of observed hotness (until a home-server
        crash wipes the cache or the pinning client's lease lapses).

        ``client`` attributes the pin, so lease expiry releases exactly the
        pins the dead client asked for (operator pins outlive any client).
        """
        record = self.directory.get(gaddr)
        handle = self._servers[record.server_id]
        yield from self._promote(handle, self._policies[record.server_id],
                                 gaddr)
        record.pinned = True
        record.pinned_by = client

    def evict_client(self, client_name: str) -> Generator[Any, Any, int]:
        """Recovery: roll a (dead) client's intents forward, clear every
        write lock it still holds, release its pins, and retire its proxy
        rings.  A restart's attach runs it for the old incarnation.

        Uses the owner id embedded in the lock word, so only that client's
        locks are touched; readers and other writers are unaffected.  With
        leases enabled this also retires the client's fencing epoch; a
        lease expiry ends here too.  Returns the number of locks recovered.
        """
        uid = self._client_uids.get(client_name)
        if uid is None:
            raise MasterError(f"unknown client {client_name!r}")
        return (yield from self._fence_and_recover({uid: 0}, [client_name]))

    def reset_volatile_state(self) -> None:
        """Simulate a master restart: forget everything not in NVM.

        The directory, allocators, lock bookkeeping, and hotness state are
        all DRAM-resident.  With the metadata journal enabled,
        :meth:`rebuild` restores the directory from the servers' NVM.
        Client identities (uids, epochs, leases) are volatile too, but are
        wiped by :meth:`recover` rather than here: callers driving a bare
        ``reset + rebuild`` (no process restart) keep their sessions.
        """
        self.directory = Directory()
        self._alloc_replies = {}
        self._freed_reqs = set()
        self._cache_budget = {}
        self._freeing = set()
        for sid, handle in self._servers.items():
            handle.allocator = ExtentAllocator(handle.allocator.capacity)
            self._alloc_policy.allocators[sid] = handle.allocator
            handle._lock_free = []
            handle._lock_next = 0
            # The quarantine dies with the allocator it was owed to (a
            # journal replay re-derives it); a scrub still in flight sees
            # the new list and settles nothing.
            handle.quarantine = []
            handle.scrubber = None
            self._policies[sid] = self._policy_factory()
        # Every location the old log described is gone with the directory.
        self._restart_location_log()

    def rebuild(self) -> Generator[Any, Any, int]:
        """Restore the directory from the NVM metadata journals.

        Replays every server's journal in order (alloc/free records), then
        reconstructs each server's lock-index bookkeeping.  Returns the
        number of live objects recovered.  Requires
        ``config.metadata_journal``.
        """
        if not self.config.metadata_journal:
            raise MasterError("metadata journal disabled; nothing to rebuild from")
        from repro.core.addressing import offset_of

        self._journal_term_max = 0
        for sid in sorted(self._servers):
            handle = self._servers[sid]
            records = yield from self._journal_records(handle)
            live_locks = set()
            freed: List[Tuple[int, int]] = []
            for rec in records:
                if rec["op"] == JOURNAL_OP_TERM:
                    # Term claims interleave with alloc/free records; the
                    # directory replay skips them, the successor's claim
                    # (journal max + 1) supersedes them.
                    self._journal_term_max = max(self._journal_term_max,
                                                 rec["gaddr"])
                    continue
                if rec["op"] == JOURNAL_OP_FENCE:
                    # Epoch retirement (uid in gaddr, floor in size): the
                    # attach path grants this uid nothing below the floor.
                    uid = rec["gaddr"]
                    self._epochs[uid] = max(self._epochs.get(uid, 0),
                                            rec["size"])
                    continue
                if rec["op"] == JOURNAL_OP_ALLOC:
                    handle.allocator.alloc_at(offset_of(rec["gaddr"]), rec["size"])
                    self.directory.add(sid, offset_of(rec["gaddr"]),
                                       rec["size"], rec["lock_idx"])
                    self._policies[sid].track(rec["gaddr"], rec["size"])
                    live_locks.add(rec["lock_idx"])
                    if rec.get("req_id"):
                        self._alloc_replies[
                            self._dedup_key(rec["req_id"])] = rec["gaddr"]
                else:  # free
                    if rec.get("req_id"):
                        self._freed_reqs.add(self._dedup_key(rec["req_id"]))
                    if rec["gaddr"] not in self.directory:
                        # A free journaled here whose record a reshard had
                        # just moved away; the owner journaled it again.
                        continue
                    self.directory.remove(rec["gaddr"])
                    handle.allocator.free(offset_of(rec["gaddr"]))
                    self._policies[sid].on_freed(rec["gaddr"])
                    live_locks.discard(rec["lock_idx"])
                    freed.append((offset_of(rec["gaddr"]), rec["size"]))
            # Lock-index bookkeeping: everything below the high-water mark
            # that is not live goes back on the free list.
            used = [rec["lock_idx"] for rec in records
                    if rec["op"] == JOURNAL_OP_ALLOC]
            high = max(used, default=-1) + 1
            handle._lock_next = high
            handle._lock_free = [i for i in range(high) if i not in live_locks]
            # The journal says which extents were freed, not which of them
            # the old master got round to scrubbing: every freed range that
            # nothing reuses goes back into quarantine (a scrub is
            # idempotent).  Newest first, so that a free the old master
            # never scrubbed is not shadowed by an older, narrower one of
            # the same range.  Lock indices need no scrub; the list above
            # already holds them.
            for offset, size in reversed(freed):
                try:
                    handle.allocator.alloc_at(offset, size)
                except AllocatorError:
                    continue  # reused since, so it was scrubbed before that
                handle.quarantine.append((offset, size, None))
            if not self._recovering:
                self._kick_scrubber(handle)
        return len(self.directory)

    @staticmethod
    def _journal_records(handle: "_ServerHandle") -> Generator[Any, Any, list]:
        """Every record of one server's journal, a ``journal_read`` page at
        a time; a short page is the last.  The first page's request is
        ``{}``, so a journal that fits one page costs one plain call."""
        records: list = []
        while True:
            page = yield from handle.rpc.call(
                "journal_read", {"start": len(records)} if records else {})
            records += page
            if len(page) < JOURNAL_PAGE_RECORDS:
                return records

    def _scan_journal_terms(self) -> Generator[Any, Any, None]:
        """Raise ``_journal_term_max`` to every TERM record a reachable
        server has journaled."""
        for sid in sorted(self._servers):
            try:
                records = yield from self._journal_records(self._servers[sid])
            except RpcError:
                continue
            for rec in records:
                if rec["op"] == JOURNAL_OP_TERM:
                    self._journal_term_max = max(self._journal_term_max,
                                                 rec["gaddr"])

    # ------------------------------------------------------------------
    # Resharding (admin handover, driven by GengarPool.reshard)
    # ------------------------------------------------------------------
    def export_server(self, sid: int) -> dict:
        """Strip ownership of server ``sid`` and hand its metadata to the
        caller for adoption by another shard.

        Instant in virtual time (no yields), so the pool can swap
        ownership atomically — no op ever observes a server owned by
        nobody.  The handle itself stays wired (demoted to the non-owned
        set) for cross-shard txn applies.  Dedup entries for the server's
        objects travel with it *and* stay behind: a retry landing on
        either side gets the original outcome or a typed redirect, never
        a double execution.
        """
        if sid not in self._servers:
            raise MasterError(
                f"shard {self.shard_id} does not own server {sid}")
        handle = self._servers.pop(sid)
        policy = self._policies.pop(sid)
        self._rebuild_alloc_policy()
        self._cache_budget.pop(sid, None)
        # The quarantine leaves with the allocator it is owed to, the batch
        # a scrub is carrying right now included: that scrub finds the list
        # replaced and settles nothing, the adopter scrubs the lot again
        # (idempotent) once it has returned.
        quarantine, handle.quarantine = handle.quarantine, []
        scrubber, handle.scrubber = handle.scrubber, None
        alloc_replies = {key: gaddr for key, gaddr in self._alloc_replies.items()
                         if server_of(gaddr) == sid}
        return {
            "server_id": sid,
            "term": self.term,
            "records": self.directory.take_server(sid),
            "allocator": handle.allocator,
            "lock_free": list(handle._lock_free),
            "lock_next": handle._lock_next,
            "quarantine": quarantine,
            "scrubber": scrubber,
            "alloc_replies": alloc_replies,
            # Freed objects left no directory trace to attribute a server
            # to, so the whole set rides along (a dup free is just "True").
            "freed_reqs": set(self._freed_reqs),
            "policy": policy,
        }

    def adopt_server(self, state: dict) -> None:
        """Adopt a server another shard exported (reshard handover).

        Grafts the exported allocator, lock bookkeeping, directory
        records, and dedup entries onto *our own* pre-wired handle — the
        exporter's RPC client belongs to its node and is never reused.
        """
        sid = state["server_id"]
        handle = self._all_servers.get(sid)
        if handle is None:
            raise MasterError(
                f"shard {self.shard_id} has no connection to server {sid}")
        if sid in self._servers:
            raise MasterError(
                f"shard {self.shard_id} already owns server {sid}")
        handle.allocator = state["allocator"]
        handle._lock_free = list(state["lock_free"])
        handle._lock_next = state["lock_next"]
        self._servers[sid] = handle
        self._policies[sid] = state["policy"]
        self._rebuild_alloc_policy()
        for record in state["records"]:
            self.directory.adopt(record)
            self._log_location(record.gaddr)
        self._alloc_replies.update(state["alloc_replies"])
        self._freed_reqs |= state["freed_reqs"]
        handle.quarantine = list(state["quarantine"])
        self._kick_scrubber(handle, after=state["scrubber"])
        # Term floor handover: the server's journal rejects appends below
        # the max term it has seen, which includes the exporter's — serve
        # at least there or our first journaled op would depose us.
        self.term = max(self.term, state["term"])

    def apply_shard_map(self, new_map: Dict[int, int]) -> None:
        """Install a new server->shard map and bump the map epoch (the
        pool calls this on every shard in the same virtual instant)."""
        self.shard_map = dict(new_map)
        self.map_epoch += 1

    # ------------------------------------------------------------------
    # Master crash / failover
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Fail the master process.  All volatile state (directory,
        allocators, leases, client identities) will be gone at restart;
        clients' control RPCs complete with ``RETRY_EXCEEDED`` and surface
        as a retryable ``MasterUnavailableError``.  The data plane is
        untouched: reads, writes, and lock atomics go straight to the
        memory servers and keep working."""
        if not self.node.endpoint.alive:
            return
        self.node.endpoint.alive = False
        self.crashes += 1
        rec = self.sim.spans
        if rec is not None:
            rec.event(self.node.name, "fault", "master crashed")

    def recover(self) -> None:
        """Restart the master process with empty volatile state.

        The master starts in *recovering* mode — control RPCs fail typed
        ("master recovering") until :meth:`recovery_process` finishes
        replaying the metadata journal — so no client ever observes the
        half-empty directory.
        """
        self.node.endpoint.alive = True
        self._recovering = True
        self.reset_volatile_state()
        self._client_uids = {}
        self._epochs = {}  # journal-rebuilt, not volatile carry-over
        self._leases = {}
        self._hb_last = {}
        self._hb_intervals = {}
        self._suspected = set()
        self._deposed = False
        rec = self.sim.spans
        if rec is not None:
            rec.event(self.node.name, "fault",
                      "master restarted; volatile state lost")

    def recovery_process(self) -> Generator[Any, Any, int]:
        """Journal-driven failover: rebuild the directory from the servers'
        NVM journals, then reopen for business.  Returns the number of live
        objects recovered.

        Must run (and finish) after every :meth:`recover` — it is the only
        thing that clears the *recovering* gate.  Without a journal the
        master reopens with an empty directory instead of replaying.

        With leases enabled, also arms the post-failover orphan sweep:
        clients get one lease interval to re-attach (keeping their uid and
        epoch); locks whose owner never re-registers are then recovered.
        """
        recovered = 0
        claimed = not self.config.master_terms
        try:
            if self.config.metadata_journal:
                recovered = yield from self.rebuild()
                self.journal_replayed.add(recovered)
            else:
                rec = self.sim.spans
                if rec is not None:
                    rec.event(self.node.name, "fault",
                              "no journal replay: master reopens with an "
                              "empty directory")
            if self.config.master_terms:
                # Claim a term above every journaled one *before* opening
                # for business: until the claim lands, this master keeps
                # failing RPCs typed ("recovering"), so it can never serve
                # concurrently with the incumbent it is deposing.
                yield from self._claim_term()
                claimed = True
        finally:
            # A master whose term claim never landed stays recovering: it
            # must not serve under a possibly-stale term.
            if claimed:
                self._recovering = False
                for sid in sorted(self._servers):
                    self._kick_scrubber(self._servers[sid])
        self.failovers.add()
        rec = self.sim.spans
        if rec is not None:
            rec.event(self.node.name, "failover", "master recovered",
                      objects=recovered, journal=self.config.metadata_journal)
        if self.config.client_lease_ns:
            self.sim.spawn(self._orphan_lock_sweep(),
                           name=f"{self.node.name}.orphan_sweep")
        return recovered

    def _claim_term(self) -> Generator[Any, Any, None]:
        """Persist a term strictly above every journaled one.

        The claim is a TERM record appended to each server's journal (the
        term value rides the record's gaddr field).  Servers adopt the max
        term they have journaled and reject appends below it, so the claim
        simultaneously (a) makes the new term durable and (b) fences every
        older master out of the write path on that server.  A concurrent
        higher claim surfaces as our own append being rejected; we re-read
        and re-claim above it.  Unreachable servers are retried a few
        times, then skipped — they learn the term from the next successor
        that can reach them (traced, so the audit sees the gap).
        """
        retry_wait = max(1, self.config.client_lease_ns // 4) \
            if self.config.client_lease_ns else 25_000
        while True:
            self.term = max(self.term, self._journal_term_max) + 1
            pending = sorted(self._servers)
            superseded = False
            for attempt in range(3):
                if attempt:
                    yield retry_wait
                still = []
                for sid in pending:
                    try:
                        yield from self._servers[sid].rpc.call(
                            "journal_append", {
                                "op": JOURNAL_OP_TERM, "lock_idx": 0,
                                "gaddr": self.term, "size": 0, "req_id": 0,
                                "term": self.term,
                            })
                    except RpcError as exc:
                        if "stale master term" in str(exc):
                            superseded = True
                        elif "journal full" in str(exc):
                            pass  # durable records exist; term rides appends
                        else:
                            still.append(sid)
                if superseded or not still:
                    break
                pending = still
            if superseded:
                # A rival claimed concurrently; its TERM record is in the
                # journal now — re-read and go strictly above it.
                self._journal_term_max = self.term
                yield from self._scan_journal_terms()
                continue
            spans = self.sim.spans
            if still and spans is not None:
                spans.event(self.node.name, "term",
                            "term claim skipped servers", term=self.term,
                            unreachable=still)
            self.term_claims.add()
            self._deposed = False
            if spans is not None:
                spans.event(self.node.name, "term", "term claimed",
                            term=self.term)
            return

    def _orphan_lock_sweep(self) -> Generator[Any, Any, None]:
        """Post-failover grace sweep (the restarted master lost all leases):
        after one lease interval, every holder on this shard's servers that
        did not re-attach belongs to a client that died with the old
        master, and is fenced as a lease expiry fences one.  Live clients
        re-attach within a heartbeat (lease/3), so they keep their locks
        and rings."""
        yield self.config.client_lease_ns
        if self._recovering:
            return
        wake = self.sim.now
        if self.config.failure_detector:
            # Partition-aware failover: a client absent after one lease may
            # be dead — or merely on the wrong side of a partition that
            # outlived the old master.  Retiring its rings now would greet
            # it with StaleRingError the moment the fabric heals, so the
            # absentees are only *suspected* for one extra grace lease;
            # whoever re-attaches during it keeps its rings and locks.
            wake += self.config.client_lease_ns
            rec = self.sim.spans
            if rec is not None:
                rec.event(self.node.name, "partition",
                          "orphan sweep deferred: absent clients suspected",
                          reattached=sorted(self._client_uids))
        # The holders, learned now that a client absent for a lease has
        # lapsed and takes nothing more until it re-attaches: every durable
        # intent's owner and epoch, and every write-locked word's, with the
        # servers' ring names (a bare ``recover_dead`` clears nothing).
        intents = yield from self._scan_intents(self._servers, {})
        held = [(record["owner"], record["epoch"]) for _, record in intents]
        rings = set()
        replies, _ = yield from self._send_loads(
            self._lock_loads({"owners": {}, "clients": []}))
        for _, reply in replies:
            held += reply["holders"][0]
            rings.update(reply["holders"][1])
        if self.sim.now < wake:
            yield wake - self.sim.now
        # Re-check after the last yield, as _expire_lease does: whoever
        # re-attached is alive; a later re-attach gets the bumped epoch.
        if self._recovering:
            return
        live = set(self._client_uids.values())
        dead = {uid: epoch for uid, epoch in sorted(held) if uid not in live}
        names = sorted(rings.difference(self._client_uids))
        if dead or names:
            try:
                yield from self._fence_and_recover(dead, names)
            except MasterError:
                return  # deposed mid-sweep: no authority to keep fencing

    def on_server_recovered(self, server_id: int) -> int:
        """Reconcile the directory after a server restart.

        Every DRAM copy that server held is gone, so its cached objects
        revert to NVM-only (pins are cleared too: the pinned copy no longer
        exists and must be re-pinned deliberately).  Returns the number of
        objects reconciled.
        """
        dropped = 0
        policy = self._policies[server_id]
        for record in self.directory.objects():
            if record.server_id != server_id:
                continue
            if record.cached:
                self.directory.mark_uncached(record.gaddr)
                policy.on_demoted(record.gaddr)
                self._log_location(record.gaddr)
                dropped += 1
            record.pinned = False
            record.pinned_by = None
        # Frees acked while the server was down are still owed their scrub.
        self._kick_scrubber(self._servers[server_id])
        rec = self.sim.spans
        if rec is not None:
            rec.event(self.node.name, "fault",
                      "directory reconciled after restart", server=server_id,
                      dropped_cache_entries=dropped)
        return dropped

    def check_extents(self) -> List[ExtentViolation]:
        """Audit the extent invariant on every owned server: each directory
        record and each quarantined entry holds exactly its own allocation,
        nothing else is allocated, and every lock index handed out is live,
        quarantined or on the free list — once.  Valid at any instant, not
        only at quiescence.  Returns the violations (empty = clean)."""
        found: List[ExtentViolation] = []
        held: Dict[int, List[Tuple[int, int, Optional[int], str]]] = {
            sid: [(off, size, lock, "quarantined")
                  for off, size, lock in handle.quarantine]
            for sid, handle in self._servers.items()}
        for record in self.directory.objects():
            if record.server_id not in held:
                found.append(ExtentViolation(
                    record.server_id, "extent",
                    f"{record.gaddr:#x} is homed on a server this shard "
                    "does not own"))
                continue
            held[record.server_id].append(
                (record.nvm_offset, record.size, record.lock_idx, "allocated"))
        for sid in sorted(held):
            handle = self._servers[sid]
            alloc = handle.allocator
            seen: Dict[int, str] = {}
            locks = list(handle._lock_free)
            total = 0
            for offset, size, lock, state in held[sid]:
                need = alloc._round_up(size)
                total += need
                holds = alloc.size_of(offset)
                if offset in seen:
                    found.append(ExtentViolation(
                        sid, "extent",
                        f"{offset:#x} is {seen[offset]} and {state}"))
                elif holds != need:
                    found.append(ExtentViolation(
                        sid, "extent",
                        f"{offset:#x} is {state} ({need} B) but the "
                        f"allocator holds {holds}"))
                seen[offset] = state
                if lock is not None:
                    locks.append(lock)
            if total != alloc.allocated_bytes:
                found.append(ExtentViolation(
                    sid, "bytes",
                    f"allocator holds {alloc.allocated_bytes} B, directory "
                    f"+ quarantine account for {total} B"))
            if sorted(locks) != list(range(handle._lock_next)):
                dup = sorted({i for i in locks if locks.count(i) > 1})
                lost = sorted(set(range(handle._lock_next)) - set(locks))
                found.append(ExtentViolation(
                    sid, "lock",
                    f"of {handle._lock_next} lock indices handed out, "
                    f"{lost} are nowhere and {dup} are held twice"))
            try:
                alloc.check_invariants()
            except AssertionError as exc:
                found.append(ExtentViolation(sid, "allocator", str(exc)))
        return found

    # ------------------------------------------------------------------
    # Hotness planner
    # ------------------------------------------------------------------
    def _planner_loop(self) -> Generator[Any, Any, None]:
        while True:
            yield self.config.epoch_ns
            if self._recovering:
                continue
            for sid in sorted(self._servers):
                yield from self._plan_server(sid)

    def _aggregation_loop(self) -> Generator[Any, Any, None]:
        """Shard 0's cross-shard hotness aggregation.

        Once per epoch it pulls every shard's per-server cache demand (what
        is cached plus what its policy wants promoted), splits the pool-wide
        DRAM budget across *all* servers, and pushes each shard the slice
        covering the servers it owns.  Shards plan independently against
        their budgets, so the global cache budget stays coherent without
        any shard seeing another's directory.  A shard that is down or
        mid-failover keeps its last budgets — advisory end to end.
        """
        while True:
            yield self.config.epoch_ns
            if self._recovering or self._deposed:
                continue
            demand: Dict[int, int] = {sid: self._server_demand(sid)
                                      for sid in self._servers}
            reached: List[int] = []
            for shard in sorted(self._peer_shards):
                try:
                    stats = yield from self._peer_shards[shard].call(
                        "shard_stats", {})
                except RpcError:
                    continue  # shard down/mid-failover: keeps last budgets
                demand.update(stats["demand"])
                reached.append(shard)
            budgets = self._split_budget(demand)
            for sid, budget in budgets.items():
                if sid in self._servers:
                    self._cache_budget[sid] = budget
            for shard in reached:
                share = {sid: b for sid, b in budgets.items()
                         if self.shard_map.get(sid, sid % self.num_shards)
                         == shard}
                try:
                    yield from self._peer_shards[shard].call(
                        "set_budget", {"budgets": share})
                except RpcError:
                    continue  # lost the push: next round re-delivers

    def _split_budget(self, demand: Dict[int, int]) -> Dict[int, int]:
        """Split the pool-wide DRAM budget across servers by demand.

        Every server keeps a floor (a quarter of its nominal capacity) so
        a cold server can still warm up; the remainder of the pool budget
        is divided proportionally to observed demand — equal split while
        nobody is hot yet — and clamped at the server's physical capacity
        (a server cannot spend a neighbour's DRAM).
        """
        cap = self.config.cache_capacity
        sids = sorted(demand)
        if not sids:
            return {}
        floor = cap // 4
        pool = (cap - floor) * len(sids)
        total = sum(demand.values())
        budgets: Dict[int, int] = {}
        for sid in sids:
            if total:
                extra = pool * demand[sid] // total
            else:
                extra = pool // len(sids)
            budgets[sid] = min(cap, floor + extra)
        return budgets

    def _plan_server(self, sid: int) -> Generator[Any, Any, None]:
        policy = self._policies[sid]
        handle = self._servers[sid]
        # The aggregator's budget (when sharded) caps this server below its
        # nominal capacity so the pool-wide DRAM budget stays coherent; a
        # server nobody aggregated for keeps the full capacity.
        budget = self._cache_budget.get(sid, self.config.cache_capacity)
        # Account the per-slot tag overhead against capacity so the server's
        # slot allocator cannot be overcommitted by the plan.
        plan = policy.plan(
            capacity=max(0, budget - self._tag_overhead(sid)),
            used=self.directory.cached_bytes(sid),
        )
        if plan.is_noop:
            return
        rec = self.sim.spans
        t0 = self.sim.now if rec is not None else 0
        for gaddr in plan.demotions:
            record = self.directory.lookup(gaddr)
            if record is not None and record.pinned:
                continue  # pinned objects are exempt from planner demotion
            yield from self._demote(handle, policy, gaddr)
        for gaddr in plan.promotions:
            yield from self._promote(handle, policy, gaddr)
        if rec is not None:
            rec.record(self.node.name, "master.plan_epoch", t0, server=sid,
                       promotions=len(plan.promotions),
                       demotions=len(plan.demotions))

    def _tag_overhead(self, sid: int) -> int:
        cached_count = sum(
            1 for r in self.directory.objects() if r.server_id == sid and r.cached
        )
        # Reserve headroom for tags: one per currently cached object plus a
        # small margin for this epoch's promotions.
        return (cached_count + 16) * CACHE_TAG_BYTES * 4

    def _promote(self, handle: _ServerHandle, policy,
                 gaddr: int) -> Generator[Any, Any, None]:
        record = self.directory.lookup(gaddr)
        if record is None or record.cached:
            return
        try:
            cache_offset = yield from handle.rpc.call(
                "promote", {"gaddr": gaddr, "size": record.size}
            )
        except RpcError:
            return  # server-side allocation failed (fragmentation); skip
        record = self.directory.lookup(gaddr)
        if record is None:
            # Freed while our RPC was in flight.  Undo: a slot must never
            # outlive its object — the tag is keyed by gaddr alone, so it
            # would validate for a future reallocation at the same address
            # and serve it stale bytes.
            try:
                yield from handle.rpc.call("demote", {"gaddr": gaddr})
            except RpcError:
                pass  # server down; its cache dies with it
            return
        if record.cached:
            # A concurrent promote (planner vs pin) won the race; the
            # server idempotently returned its slot.  Nothing to account.
            return
        self.directory.mark_cached(gaddr, cache_offset)
        policy.on_promoted(gaddr)
        self._log_location(gaddr)
        self.promote_ops.add()

    def _demote(self, handle: _ServerHandle, policy, gaddr: int) -> Generator[Any, Any, None]:
        record = self.directory.lookup(gaddr)
        if record is None or not record.cached:
            return
        try:
            yield from handle.rpc.call("demote", {"gaddr": gaddr})
        except RpcError:
            return
        self.directory.mark_uncached(gaddr)
        policy.on_demoted(gaddr)
        self._log_location(gaddr)
        self.demote_ops.add()
