"""The Gengar master: allocation, directory, and the hotness planner.

The master is control plane only.  It owns the global allocator and object
directory, receives the clients' piggybacked access reports, and every epoch
asks the placement policy for promotions/demotions, which it executes by RPC
against the home servers.  No data ever moves through the master.  Its
seams are objects: a :class:`ServerHandle` per server, the
:class:`Directory`, :class:`Planner`, :class:`Leases`, :class:`Journal`
and :class:`Recovery`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node
    from repro.rdma.qp import QueuePair
    from repro.rdma.rpc import RpcClient

from repro.core.addressing import offset_of, server_of
from repro.core.allocator import OutOfMemory, PoolAllocationPolicy, ServerHandle
from repro.core.config import GengarConfig
from repro.core.directory import Directory, Journal, entry as journal_entry
from repro.core.errors import MasterError
from repro.core.hotness import EpochDecayPolicy, NeverCachePolicy, Planner
from repro.core.layout import DramCarver
from repro.core.protocol import (JOURNAL_OP_ALLOC, JOURNAL_OP_FENCE,
                                 JOURNAL_OP_FREE, JOURNAL_OP_TERM, ObjectMeta,
                                 ServerDescriptor)
from repro.core.recovery import Leases, Recovery
from repro.rdma.rpc import DEFAULT_BUFFER_SIZE, DEFAULT_RING_SLOTS, RpcError, RpcServer


class Master:
    """Runtime state of the Gengar master."""

    def __init__(self, node: "Node", config: GengarConfig, policy_factory=None,
                 standby: bool = False, shard_id: int = 0, num_shards: int = 1):
        self.node = node
        self.sim = node.sim
        self.config = config
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
        #: Shard 0's control connections to the peer shards (aggregation).
        self._peer_shards: Dict[int, "RpcClient"] = {}
        #: Every wired server handle, owned or not.  Non-owned handles carry
        #: only a control connection: the txn-intent roll-forward uses them
        #: to apply a cross-shard write-set without forfeiting the intent.
        self._all_servers: Dict[int, ServerHandle] = {}
        self._servers: Dict[int, ServerHandle] = {}
        self._alloc_policy: Optional[PoolAllocationPolicy] = None
        if policy_factory is None:
            if config.enable_cache:
                policy_factory = lambda: EpochDecayPolicy(  # noqa: E731
                    promote_threshold=config.promote_threshold)
            else:
                policy_factory = NeverCachePolicy
        self._policy_factory = policy_factory

        carver = DramCarver(node.dram)
        rpc_base = carver.carve(
            2 * DEFAULT_RING_SLOTS * DEFAULT_BUFFER_SIZE, "rpc")
        self._carver = carver
        self.rpc = RpcServer(
            node.endpoint, node.dram, base=rpc_base, name=f"{node.name}.rpc",
            grow_cb=lambda nbytes: carver.carve(nbytes, "rpc-grow"),
        )
        self._client_uids: Dict[str, int] = {}
        self._next_uid = 1
        #: uid -> current fencing epoch (:meth:`rebuild` restores it from
        #: the journal's FENCE records).
        self._epochs: Dict[int, int] = {}
        self.leases = Leases(self)
        self.recovery = Recovery(self)
        self.planner = Planner(self)
        self.journal = Journal(self, 1 if config.metadata_journal else 0)
        handlers = {
            "gmalloc": self._handle_gmalloc,
            "gfree": self._handle_gfree,
            "lookup": self._handle_lookup,
            "report": self._handle_report,
            "attach": self._handle_attach,
            "renew": self._handle_renew,
        }
        for method, handler in handlers.items():
            if config.metadata_journal:
                handler = self._with_term(handler)
            self.rpc.register(method, handler)
        # Shard-to-shard plumbing (advisory, so deliberately outside the
        # term envelope): demand stats out, budgets in.
        self.rpc.register("shard_stats", self._handle_shard_stats)
        self.rpc.register("set_budget", self.planner.set_budgets)

        #: Idempotency: req_id -> gaddr for executed gmallocs, and the set
        #: of executed gfree req_ids.  A client whose RPC executed but whose
        #: reply was lost (master crashed first) retries with the same
        #: req_id and gets the original outcome instead of a double
        #: allocate/free.  A req_id carries its client's uid in the high 32
        #: bits, so two clients' sequence numbers never alias, and a reshard
        #: moves exactly the owning shard's entries.  Journaled (the
        #: record's req_id field), so :meth:`rebuild` restores both across a
        #: failover.
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
        #: Location logs started pool-wide; each directory starts one.
        self._logs_started = m.counter("master.location_logs")
        self.directory = Directory(self._logs_started)

    def _event(self, category: str, message: str, **fields) -> None:
        """One instant event on this master's track (instrumented runs)."""
        rec = self.sim.spans
        if rec is not None:
            rec.event(self.node.name, category, message, **fields)

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
        handle = ServerHandle(self, descriptor, rpc_client, data_capacity,
                              self._policy_factory() if owned else None)
        self._all_servers[sid] = handle
        if not owned:
            return
        self._servers[sid] = handle
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
            2 * DEFAULT_RING_SLOTS * DEFAULT_BUFFER_SIZE, "rpc-client")

    # ------------------------------------------------------------------
    # Shard routing
    # ------------------------------------------------------------------
    def _not_my_shard(self, sid: int) -> MasterError:
        """The typed redirect to server ``sid``'s owner: a client with a
        stale shard map parses the owner and map epoch out of it."""
        owner = self.shard_map.get(sid, sid % self.num_shards)
        return MasterError(
            f"not my shard: server {sid} is owned by shard {owner}, "
            f"not shard {self.shard_id} (map epoch {self.map_epoch})")

    def _check_owner(self, gaddr: int) -> None:
        """Refuse ops on objects whose home server another shard owns,
        *before* any state is touched, so the misrouted op is never applied
        here."""
        if self.num_shards <= 1:
            return
        sid = server_of(gaddr)
        if sid not in self._servers:
            raise self._not_my_shard(sid)

    def _handle_shard_stats(self, request: dict) -> dict:
        """Per-server cache demand for the cross-shard aggregator."""
        self._check_serving()
        return {"demand": {sid: self.planner.demand(sid)
                           for sid in sorted(self._servers)}}

    # ------------------------------------------------------------------
    # RPC handlers
    # ------------------------------------------------------------------
    def _with_term(self, handler):
        """Wrap a handler so its reply rides in the ``{"t": term, "r": ...}``
        envelope (journal on only).  Clients compare ``t`` against the
        highest term they have observed and discard stale-term replies —
        the whole-control-plane analogue of per-object fencing epochs."""
        def wrapped(request):
            result = yield from handler(request)
            return {"t": self.journal.term, "r": result}
        return wrapped

    def _check_serving(self) -> None:
        """Fail typed while a restarted master is still replaying its
        journal; clients map this to a retryable MasterUnavailableError.
        A deposed master (a successor claimed a higher term) fails typed
        too — clients map that to StaleTermError and re-attach elsewhere."""
        if self._recovering:
            raise MasterError("master recovering; retry")
        if self.journal.deposed:
            raise self.journal.superseded()

    def _handle_gmalloc(self, request: dict) -> Generator[Any, Any, ObjectMeta]:
        self._check_serving()
        size = request["size"]
        if size <= 0:
            raise MasterError(f"gmalloc size must be positive, got {size}")
        req_id = request.get("req_id", 0)
        if req_id and req_id in self._alloc_replies:
            # Retry of an RPC that executed but whose reply was lost:
            # return the original allocation instead of leaking a second.
            # If the object was resharded away after the original executed,
            # its dedup entry travelled with it — redirect the retry to the
            # owner (which replies from its copy) instead of answering from
            # a directory that no longer holds the record.
            gaddr = self._alloc_replies[req_id]
            self._check_owner(gaddr)
            self.dup_rpcs.add()
            return self.directory.get(gaddr).to_meta()
        if self._alloc_policy is None:
            # Resharded down to zero servers: redirect the alloc to a shard
            # that owns one (the client learns that server's owner and
            # re-routes the request).
            for sid in sorted(self.shard_map):
                if self.shard_map[sid] != self.shard_id:
                    raise self._not_my_shard(sid)
            raise MasterError("no memory servers registered")
        yield from self.node.cpu_work()
        preferred = None
        if self.config.placement == "rack-local":
            preferred = self._corack_servers(request.get("client", ""))
        while True:
            try:
                server_id = self._alloc_policy.choose(size, preferred=preferred)
                handle = self._servers[server_id]
                nvm_offset, lock_idx = handle.alloc(size)
                break
            except OutOfMemory:
                # Freed space still in quarantine is a scrub away from being
                # allocatable: wait for it rather than fail a pool that is
                # not full.
                if not (yield from self.settle_frees()):
                    raise
        record = self.directory.add(server_id, nvm_offset, size, lock_idx)
        handle.policy.track(record.gaddr, size)
        self.allocations.add(size)
        if self.config.metadata_journal:
            # Durability before visibility: the allocation is journaled in
            # the home server's NVM before the client learns the address.
            try:
                yield from self.journal.call(handle, "journal_append", journal_entry(
                    JOURNAL_OP_ALLOC, record.gaddr, size, lock_idx, req_id))
            except (RpcError, MasterError):
                # Neither durable nor visible: nobody will ever free it.
                if self.directory.lookup(record.gaddr) is record:
                    self.directory.remove(record.gaddr)
                    handle.policy.on_freed(record.gaddr)
                    handle.free(nvm_offset, lock_idx)
                raise
        if req_id:
            self._alloc_replies[req_id] = record.gaddr
        return record.to_meta()

    def _handle_gfree(self, request: dict) -> Generator[Any, Any, bool]:
        """One round trip: unreachability is the ack.  The record leaves the
        directory, the extent and its lock index enter the home server's
        quarantine, and the scrub that makes them allocatable again runs
        behind the reply (:meth:`ServerHandle.hold`)."""
        self._check_serving()
        gaddr = request["gaddr"]
        req_id = request.get("req_id", 0)
        if req_id and req_id in self._freed_reqs:
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
                yield from self.journal.call(handle, "journal_append", journal_entry(
                    JOURNAL_OP_FREE, gaddr, record.size, record.lock_idx,
                    req_id))
            finally:
                self._freeing.discard(gaddr)
            if self.directory.lookup(gaddr) is not record:
                # Resharded away while the append was in flight: the owner
                # holds the record (still live) and redoes the free.
                self._check_owner(gaddr)
        self.directory.remove(gaddr)
        handle.policy.on_freed(gaddr)
        if req_id:
            self._freed_reqs.add(req_id)
        depth = handle.hold(record.nvm_offset, record.size, record.lock_idx)
        if depth > self.quarantine_peak:
            self.quarantine_peak = depth
        if self.sim.spans is not None:
            self._note_quarantine()
        return True

    def settle_frees(self) -> Generator[Any, Any, bool]:
        """Wait until some owned server's quarantine has drained; returns
        whether any did (False: nothing quarantined, or no server reachable
        to scrub it)."""
        for sid in sorted(self._servers):
            handle = self._servers[sid]
            scrubber = handle.kick()
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
        since its cursor (:meth:`Directory.changes`): a client learns every
        promotion and demotion on its next report, not only those of
        objects it reported.

        With leases enabled the request additionally carries the client's
        name and fencing epoch, a successful report doubles as a lease
        renewal, and the reply adds the lease verdict.
        """
        self._check_serving()
        yield from self.node.cpu_work()
        # Group entries per home server and flush each group in one
        # record_batch call.  Policies are independent per-server objects and
        # in-server order is preserved, so decisions match per-entry record().
        per_server: Dict[int, list] = {}
        for entry in request["entries"]:
            record = self.directory.lookup(entry[0])
            if record is None:
                continue  # freed concurrently
            per_server.setdefault(record.server_id, []).append(entry)
        for sid, batch in per_server.items():
            self._servers[sid].policy.record_batch(batch)
        self.reports.add()
        reply = self.directory.changes(request["cursor"])
        name = request.get("client")
        if name is not None:
            reply["lease"] = self.leases.renew(name, request.get("epoch", 0))
        return reply

    def _handle_attach(self, request: dict) -> Generator[Any, Any, dict]:
        if self.journal.deposed:
            # A deposed master must not grant leases/identities: an attach
            # it served would park the client on a dead control plane
            # forever (re-attach "succeeds", renewals bounce, repeat).
            # The stale-term error sends the client to the incumbent.
            raise self.journal.superseded()
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
            self.leases.grant(name)
            self.recovery.start_sweeper()
            self._event("lease", "lease granted", client=name, uid=uid,
                        epoch=epoch, lease_ns=self.config.client_lease_ns)
        return {
            "servers": [h.descriptor for h in self._servers.values()],
            "client_id": uid,
            "epoch": epoch,
            "lease_ns": self.config.client_lease_ns,
            "log": self.directory.head,
        }

    def _handle_renew(self, request: dict) -> Generator[Any, Any, dict]:
        """Standalone lease heartbeat (for clients with nothing to report)."""
        self._check_serving()
        yield from self.node.cpu_work()
        name, epoch = request["client"], request.get("epoch", 0)
        verdict = self.leases.renew(name, epoch)
        if verdict == "ok":
            return {"ok": True, "lease_ns": self.config.client_lease_ns}
        if verdict == "fenced":
            self._event("fence", "renew rejected: epoch retired", client=name,
                        epoch=epoch)
        return {"ok": False, "reason": verdict}

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
        yield from self.planner.promote(gaddr)
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
        return (yield from self.recovery._fence_and_recover({uid: 0},
                                                            [client_name]))

    def reset_volatile_state(self) -> None:
        """Simulate a master restart: forget everything not in NVM.

        The directory, allocators, lock bookkeeping, and hotness state are
        all DRAM-resident.  With the metadata journal enabled,
        :meth:`rebuild` restores the directory from the servers' NVM.
        Client identities (uids, epochs, leases) are volatile too, but are
        wiped by :meth:`recover` rather than here: callers driving a bare
        ``reset + rebuild`` (no process restart) keep their sessions.
        """
        # Every location the old log described is gone with the directory.
        self.directory = Directory(self._logs_started)
        self._alloc_replies = {}
        self._freed_reqs = set()
        self._freeing = set()
        for sid, handle in self._servers.items():
            handle.reset(self._policy_factory())
            self._alloc_policy.allocators[sid] = handle.allocator

    def rebuild(self) -> Generator[Any, Any, int]:
        """Restore the directory from the NVM metadata journals.

        Replays every server's journal in order (alloc/free records), then
        reconstructs each server's lock-index bookkeeping and quarantine
        (:meth:`ServerHandle.restore`).  Returns the number of live objects
        recovered.  Requires ``config.metadata_journal``.
        """
        if not self.config.metadata_journal:
            raise MasterError("metadata journal disabled; nothing to rebuild from")
        for sid in sorted(self._servers):
            handle = self._servers[sid]
            records = yield from self.journal.read(handle)
            live_locks = set()
            freed: List[Tuple[int, int]] = []
            for rec in records:
                op, gaddr, size = rec["op"], rec["gaddr"], rec["size"]
                if op == JOURNAL_OP_TERM:
                    continue  # the journal's read folded it
                if op == JOURNAL_OP_FENCE:
                    # Epoch retirement (uid in gaddr, floor in size): the
                    # attach path grants this uid nothing below the floor.
                    self._epochs[gaddr] = max(self._epochs.get(gaddr, 0), size)
                    continue
                if op == JOURNAL_OP_ALLOC:
                    handle.allocator.alloc_at(offset_of(gaddr), size)
                    self.directory.add(sid, offset_of(gaddr), size,
                                       rec["lock_idx"])
                    handle.policy.track(gaddr, size)
                    live_locks.add(rec["lock_idx"])
                    if rec.get("req_id"):
                        self._alloc_replies[rec["req_id"]] = gaddr
                    continue
                # free
                if rec.get("req_id"):
                    self._freed_reqs.add(rec["req_id"])
                if gaddr not in self.directory:
                    # A free journaled here whose record a reshard had
                    # just moved away; the owner journaled it again.
                    continue
                self.directory.remove(gaddr)
                handle.allocator.free(offset_of(gaddr))
                handle.policy.on_freed(gaddr)
                live_locks.discard(rec["lock_idx"])
                freed.append((offset_of(gaddr), size))
            handle.restore([rec["lock_idx"] for rec in records
                            if rec["op"] == JOURNAL_OP_ALLOC],
                           live_locks, freed)
            if not self._recovering:
                handle.kick()
        return len(self.directory)

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
        self._rebuild_alloc_policy()
        state = handle.export()
        state.update(
            server_id=sid, term=self.journal.term,
            records=self.directory.take_server(sid),
            alloc_replies={req_id: gaddr
                           for req_id, gaddr in self._alloc_replies.items()
                           if server_of(gaddr) == sid},
            # Freed objects left no directory trace to attribute a server
            # to, so the whole set rides along (a dup free is just "True").
            freed_reqs=set(self._freed_reqs))
        return state

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
        handle.adopt(state)
        self._servers[sid] = handle
        self._rebuild_alloc_policy()
        for record in state["records"]:
            self.directory.adopt(record)
        self._alloc_replies.update(state["alloc_replies"])
        self._freed_reqs |= state["freed_reqs"]
        self.journal.floor(state["term"])

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
        self._event("fault", "master crashed")

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
        self.leases = Leases(self)
        self.journal = Journal(self, self.journal.term)
        self._event("fault", "master restarted; volatile state lost")

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
        if self.config.metadata_journal:
            recovered = yield from self.rebuild()
            self.journal_replayed.add(recovered)
            # Claim a term above every journaled one *before* opening: till it
            # lands this master fails RPCs typed ("recovering"), so it never
            # serves beside the incumbent it deposes, or under a stale term.
            yield from self.journal.claim()
        else:
            self._event("fault", "no journal replay: master reopens with "
                        "an empty directory")
        self._recovering = False
        for sid in sorted(self._servers):
            self._servers[sid].kick()
        self.failovers.add()
        self._event("failover", "master recovered", objects=recovered,
                    journal=self.config.metadata_journal)
        if self.config.client_lease_ns:
            self.sim.spawn(self.recovery._orphan_lock_sweep(),
                           name=f"{self.node.name}.orphan_sweep")
        return recovered

    def on_server_recovered(self, server_id: int) -> int:
        """Reconcile the directory after a server restart.

        Every DRAM copy that server held is gone, so its cached objects
        revert to NVM-only (pins are cleared too: the pinned copy no longer
        exists and must be re-pinned deliberately).  Returns the number of
        objects reconciled.
        """
        dropped = 0
        handle = self._servers[server_id]
        for record in self.directory.on_server(server_id):
            if record.cached:
                self.directory.mark_uncached(record.gaddr)
                handle.policy.on_demoted(record.gaddr)
                dropped += 1
            record.pinned = False
            record.pinned_by = None
        # Frees acked while the server was down are still owed their scrub.
        handle.kick()
        self._event("fault", "directory reconciled after restart",
                    server=server_id, dropped_cache_entries=dropped)
        return dropped

    def check_extents(self) -> List[str]:
        """Audit the extent invariant on every owned server
        (:meth:`ServerHandle.check`), and that no record is homed on a
        server this shard does not own.  Valid at any instant, not only at
        quiescence.  Returns the violations (empty = clean)."""
        found = [f"server {sid}: extent: {record.gaddr:#x} is homed on a "
                 "server this shard does not own"
                 for sid in self.directory.server_ids()
                 if sid not in self._servers
                 for record in self.directory.on_server(sid)]
        for sid in sorted(self._servers):
            found += self._servers[sid].check(self.directory.on_server(sid))
        return found
