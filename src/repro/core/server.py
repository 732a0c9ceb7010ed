"""The Gengar memory server.

A memory server contributes its NVM to the pool and dedicates slices of its
DRAM to the three server-side mechanisms:

* the **lock table** — one-sided reader/writer lock words,
* the **DRAM cache** — tagged slots holding promoted hot objects,
* per-client **proxy rings** — staging buffers that absorb writes at DRAM
  latency and drain to NVM in the background.

The data plane is entirely one-sided: clients READ the data/cache regions
and WRITE_WITH_IMM into their rings; the only CPU work here is the drain
loop and the (rare) promote/demote RPC handlers driven by the master.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Generator, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node
    from repro.rdma.qp import QueuePair

from repro.core.addressing import make_gaddr, offset_of, server_of
from repro.core.allocator import ExtentAllocator, OutOfMemory
from repro.core.config import GengarConfig
from repro.core.layout import DramCarver
from repro.core.protocol import (
    CACHE_TAG_BYTES,
    JOURNAL_HEADER_BYTES,
    JOURNAL_OP_TERM,
    JOURNAL_PAGE_RECORDS,
    JOURNAL_RECORD_BYTES,
    PROXY_COMMIT_BYTES,
    PROXY_HEADER_BYTES,
    RingDescriptor,
    ServerDescriptor,
    pack_cache_tag,
    pack_journal_record,
    proxy_commit_ok,
    unpack_journal_record,
    unpack_proxy_header,
)
from repro.rdma.mr import AccessFlags
from repro.rdma.rpc import DEFAULT_RING_SLOTS, RpcServer


class ServerError(Exception):
    """Invalid server-side operation (bad promote/demote, unknown client)."""


@dataclass
class _CacheEntry:
    cache_offset: int  # slot base (tag included) within the cache region
    size: int


@dataclass
class _ClientRing:
    ring_base: int  # DRAM offset of the ring window
    mr: object  # ring MemoryRegion
    counter_offset: int  # region-relative offset of the drained counter
    drained: int = 0
    client: str = ""  # owning client's name (span/trace attribution)


#: RPC buffer size for control traffic (attach/promote/demote); every ring
#: starts at ``DEFAULT_RING_SLOTS`` deep.
_RPC_BUFFER_SIZE = 4096

#: Metadata journal capacity (``metadata_journal``), in records.
JOURNAL_ENTRIES = 65536
#: Txn-intent region (``enable_txn``): slots per server, one per in-flight
#: committing txn this server coordinates, and bytes per slot — a txn whose
#: pickled intent record does not fit aborts cleanly at commit rather than
#: truncating.
TXN_INTENT_ENTRIES = 64
TXN_INTENT_SLOT_BYTES = 4096


class ReadCombineGroup:
    """Shared token for adjacent reads rung with one doorbell.

    Built by the client when it detects that several RDMA_READ WRs in one
    ``post_send_many`` batch target contiguous ranges of the same remote
    region; attached to each member WR (``wr.combine``).  The target's
    :class:`ReadCombiner` uses it to service the whole group with a single
    device transfer — one per-transfer setup charge instead of one per
    member, which is where the Optane read-combining win comes from.
    """

    __slots__ = ("rkey", "base_offset", "total_length", "members",
                 "_event", "_data")

    def __init__(self, rkey: int, base_offset: int, total_length: int,
                 members: int):
        self.rkey = rkey
        self.base_offset = base_offset
        self.total_length = total_length
        self.members = members
        self._event = None  # in-flight combined transfer (set by the first)
        self._data = None  # the combined bytes, once fetched

    def slice_for(self, wr) -> bytes:
        lo = wr.remote_offset - self.base_offset
        return self._data[lo : lo + wr.length]


class ReadCombiner:
    """Target-side service for :class:`ReadCombineGroup` tokens.

    Installed on the server's endpoint (``endpoint.read_combiner``) and
    consulted by the QP machinery for RDMA_READ WRs carrying a group: the
    first member to arrive performs one device read spanning the whole
    group and publishes the bytes on the token; members arriving while that
    transfer is in flight park on its event; members arriving after slice
    immediately.  Per-member wire costs (request, response) are unchanged —
    only the device transfer is coalesced.

    Crash safety: a member whose endpoint died before its target phase
    never reaches the combiner (it completes RETRY_EXCEEDED), and a member
    parked on the in-flight event always wakes because the device model
    completes transfers regardless of endpoint liveness — no wedge.
    """

    def __init__(self, server: "MemoryServer"):
        self.server = server
        m = server.sim.metrics
        name = server.node.name
        self.combined_reads = m.counter(f"{name}.combine.transfers")
        self.combined_members = m.counter(f"{name}.combine.members")
        self.combined_bytes = m.counter(f"{name}.combine.bytes")

    def fetch(self, mr, wr) -> Generator[Any, Any, bytes]:
        group: ReadCombineGroup = wr.combine
        if group._data is not None:
            return group.slice_for(wr)
        if group._event is not None:
            yield group._event
            return group.slice_for(wr)
        sim = self.server.sim
        group._event = sim.event(name=f"{self.server.node.name}.combine")
        rec = sim.spans
        t0 = sim.now if rec is not None else 0
        data = yield from mr.read(group.base_offset, group.total_length,
                                  need=AccessFlags.REMOTE_READ)
        group._data = data
        group._event.succeed()
        self.combined_reads.add()
        self.combined_members.add(group.members)
        self.combined_bytes.add(group.total_length)
        if rec is not None:
            rec.record(self.server.node.name, "srv.read_combine", t0,
                       bytes=group.total_length, members=group.members)
        return group.slice_for(wr)


class MemoryServer:
    """Runtime state of one memory server."""

    def __init__(self, node: "Node", server_id: int, config: GengarConfig):
        if config.data_in_dram:
            data_device = node.dram
        else:
            if node.nvm is None:
                raise ServerError(f"node {node.name} has no NVM to contribute")
            data_device = node.nvm
        self.node = node
        self.sim = node.sim
        self.server_id = server_id
        self.config = config
        self.data_device = data_device

        carver = DramCarver(node.dram)
        self._carver = carver

        # Control plane.  The receive/response rings form an elastic shared
        # pool that grows with attached QPs, carving further DRAM chunks on
        # demand.
        rpc_base = carver.carve(
            2 * DEFAULT_RING_SLOTS * _RPC_BUFFER_SIZE, "rpc")
        self.rpc = RpcServer(
            node.endpoint, node.dram, base=rpc_base,
            buffer_size=_RPC_BUFFER_SIZE, name=f"{node.name}.rpc",
            grow_cb=lambda nbytes: carver.carve(nbytes, "rpc-grow"),
        )
        self.rpc.register("promote", self._handle_promote)
        self.rpc.register("demote", self._handle_demote)
        self.rpc.register("attach", self._handle_attach)
        self.rpc.register("scrub", self._handle_scrub)
        self.rpc.register("clear_lock_if_owner", self._handle_clear_lock_if_owner)
        self.rpc.register("journal_append", self._handle_journal_append)
        self.rpc.register("journal_read", self._handle_journal_read)
        self.rpc.register("retire_ring", self._handle_retire_ring)
        self.rpc.register("retire_rings_except", self._handle_retire_rings_except)
        self.rpc.register("clear_lock_if_orphan", self._handle_clear_lock_if_orphan)
        self.rpc.register("txn_intent_put", self._handle_txn_intent_put)
        self.rpc.register("txn_intent_clear", self._handle_txn_intent_clear)
        self.rpc.register("txn_intent_scan", self._handle_txn_intent_scan)
        self.rpc.register("txn_apply", self._handle_txn_apply)
        self.rpc.register("txn_desc", self._handle_txn_desc)

        # Lock table.
        lock_bytes = config.lock_table_entries * 8
        lock_base = carver.carve(lock_bytes, "locks")
        self.lock_mr = node.endpoint.register_mr(
            node.dram, lock_base, lock_bytes,
            access=AccessFlags.LOCAL | AccessFlags.REMOTE_READ | AccessFlags.REMOTE_ATOMIC,
            name=f"{node.name}.locks",
        )

        # DRAM cache. When data itself lives in DRAM the cache is pointless;
        # the config presets disable it there, but guard anyway.
        self.cache_enabled = config.enable_cache and not config.data_in_dram
        if self.cache_enabled:
            cache_base = carver.carve(config.cache_capacity, "cache")
            self.cache_mr = node.endpoint.register_mr(
                node.dram, cache_base, config.cache_capacity,
                access=AccessFlags.LOCAL | AccessFlags.REMOTE_READ | AccessFlags.REMOTE_WRITE,
                name=f"{node.name}.cache",
            )
            self.cache_alloc = ExtentAllocator(config.cache_capacity)
        else:
            self.cache_mr = None
            self.cache_alloc = None

        # Optional persistent metadata journal at the tail of NVM.
        if config.metadata_journal:
            journal_span = (JOURNAL_HEADER_BYTES
                            + JOURNAL_ENTRIES * JOURNAL_RECORD_BYTES)
            self.journal_base = data_device.capacity - journal_span
            self.data_capacity = self.journal_base
            self._journal_count = 0
            #: Highest master term this server has accepted (``master_terms``):
            #: appends below it are rejected, which is what actually fences a
            #: deposed master out of the pool's write path.  Volatile, but
            #: re-learned from TERM records on the first post-restart
            #: journal_read — which every recovering master issues before
            #: claiming.  One scalar stays correct under control-plane
            #: sharding because a server is owned by exactly one shard at a
            #: time and a reshard handover raises the adopting master's term
            #: to at least the exporter's (``Master.adopt_server``) — so the
            #: floor never has to distinguish which shard set it.
            self._term_max = 0
        else:
            self.journal_base = None
            self.data_capacity = data_device.capacity

        # Optional durable txn-intent region, carved below the journal tail
        # (intents must survive a server power cycle so the master can roll
        # committed transactions forward after any crash combination).  Each
        # fixed-size slot holds one pickled intent record behind an 8-byte
        # length header; length 0 marks the slot free.
        if config.enable_txn:
            intent_span = TXN_INTENT_ENTRIES * TXN_INTENT_SLOT_BYTES
            self.intent_base = self.data_capacity - intent_span
            self.data_capacity = self.intent_base
            #: Volatile txn-id -> slot map; ``None`` forces a rebuild from
            #: the NVM headers (first use after construction or a restart).
            self._intent_index: Dict[str, int] | None = None
        else:
            self.intent_base = None
            self._intent_index = None

        # Advisory wait-die stamp table (``enable_txn``): one 8-byte stamp
        # per lock-table entry, written one-sided by lock holders and read
        # one-sided by contenders.  Never authoritative — a zero (unknown)
        # stamp always resolves to "wait", which is safe.
        if config.enable_txn:
            stamp_bytes = config.lock_table_entries * 8
            stamp_base = carver.carve(stamp_bytes, "txnstamps")
            self.stamp_mr = node.endpoint.register_mr(
                node.dram, stamp_base, stamp_bytes,
                access=AccessFlags.LOCAL | AccessFlags.REMOTE_READ | AccessFlags.REMOTE_WRITE,
                name=f"{node.name}.txnstamps",
            )
        else:
            self.stamp_mr = None

        # Data region: the contributed device minus the journal tail.
        self.data_mr = node.endpoint.register_mr(
            data_device, 0, data_device.capacity,
            access=AccessFlags.LOCAL | AccessFlags.REMOTE_READ | AccessFlags.REMOTE_WRITE,
            name=f"{node.name}.data",
        )

        #: Locally cached objects: gaddr -> entry (the drain loop consults it).
        self.cached: Dict[int, _CacheEntry] = {}
        self._rings: Dict[str, _ClientRing] = {}
        #: DRAM spans carved for each client's ring, reused across
        #: crash/re-attach cycles so repeated recoveries don't leak DRAM.
        self._ring_spans: Dict[str, int] = {}
        self._drain_loops: list = []  # (process, qp) pairs
        self._drain_proc_by_client: Dict[str, object] = {}
        self._drain_qps: Dict[str, "QueuePair"] = {}
        #: Fault injection: when set, drain loops park on this event.
        self._drain_gate = None
        self.crashes = 0
        #: Per-object applied-write sequence, bumped by every drained frame.
        #: Promotion copies race drains: a frame applied while the copy is
        #: in flight (entry not yet published) reaches NVM but not the slot,
        #: so _handle_promote redoes the copy until a full pass sees no
        #: concurrent apply.  Entries are pruned at scrub (free) time.
        self._applied_seq: Dict[int, int] = {}

        #: Adjacent reads in one doorbell batch collapse into single device
        #: transfers; the QP machinery finds the combiner via the endpoint.
        self.read_combiner = ReadCombiner(self)
        node.endpoint.read_combiner = self.read_combiner

        m = self.sim.metrics
        self.drained_writes = m.counter(f"{node.name}.proxy.drained")
        self.drained_bytes = m.counter(f"{node.name}.proxy.drained_bytes")
        self.ring_occupancy = m.level(f"{node.name}.proxy.occupancy")
        self.promotions = m.counter(f"{node.name}.cache.promotions")
        self.demotions = m.counter(f"{node.name}.cache.demotions")
        self.torn_skipped = m.counter(f"{node.name}.proxy.torn_skipped")
        self.txn_intents = m.counter(f"{node.name}.txn.intents")
        self.txn_applied = m.counter(f"{node.name}.txn.applied")

    # ------------------------------------------------------------------
    def descriptor(self) -> ServerDescriptor:
        """What clients need to reach this server one-sided."""
        return ServerDescriptor(
            server_id=self.server_id,
            node_name=self.node.name,
            data_rkey=self.data_mr.rkey,
            cache_rkey=self.cache_mr.rkey if self.cache_mr else 0,
            lock_rkey=self.lock_mr.rkey,
        )

    def serve_control(self, qp: "QueuePair") -> None:
        """Start serving RPC on a control connection (master or client)."""
        self.rpc.serve(qp)

    # ------------------------------------------------------------------
    # RPC handlers (invoked by the master / clients)
    # ------------------------------------------------------------------
    def _handle_promote(self, request: dict) -> Generator[Any, Any, int]:
        """Copy an object from NVM into a tagged DRAM cache slot.

        Returns the slot's cache-region offset.  Idempotent: promoting an
        already-cached object returns the existing slot.
        """
        if not self.cache_enabled:
            raise ServerError("cache disabled on this server")
        gaddr, size = request["gaddr"], request["size"]
        existing = self.cached.get(gaddr)
        if existing is not None:
            return existing.cache_offset
        slot_offset = self.cache_alloc.alloc(CACHE_TAG_BYTES + size)  # may raise OutOfMemory
        # A crash from here on wipes the cache and its allocator under us:
        # the copy dies with the server, and a write that lands after the
        # crash must not leave a valid tag in the wiped DRAM.
        crashes = self.crashes
        nvm_offset = offset_of(gaddr)
        rec = self.sim.spans
        t0 = self.sim.now if rec is not None else 0
        yield from self.node.cpu_work()
        # Publish locally *after* the copy so the drain loop never updates a
        # half-initialized slot that it then gets overwritten by stale data.
        # The flip side: a frame drained *during* the copy reaches NVM only
        # (the entry is unpublished), so the copy would install pre-drain
        # bytes under a valid tag — permanently stale.  Redo the copy until
        # one full pass races no concurrent apply to this object.
        while True:
            seq_before = self._applied_seq.get(gaddr, 0)
            data = yield from self.data_device.read(nvm_offset, size)
            if self.crashes != crashes:
                raise ServerError("server crashed during the promotion copy")
            yield from self.cache_mr.write(slot_offset, pack_cache_tag(gaddr) + data)
            if self.crashes != crashes:
                self.cache_mr.poke(slot_offset, pack_cache_tag(0, flags=0))
                raise ServerError("server crashed during the promotion copy")
            if self._applied_seq.get(gaddr, 0) == seq_before:
                break
        existing = self.cached.get(gaddr)
        if existing is not None:
            # A concurrent promote (planner vs pin) published first;
            # the drain keeps only that slot fresh, so ours must not replace
            # it.  Kill our tag and free the slot in the same instant as the
            # lookup, so the winner cannot be demoted in between.
            self.cache_mr.poke(slot_offset, pack_cache_tag(0, flags=0))
            self.cache_alloc.free(slot_offset)
            return existing.cache_offset
        self.cached[gaddr] = _CacheEntry(cache_offset=slot_offset, size=size)
        self.promotions.add()
        if rec is not None:
            rec.record(self.node.name, "srv.promote_copy", t0, bytes=size,
                       gaddr=hex(gaddr))
        return slot_offset

    def _handle_demote(self, request: dict) -> Generator[Any, Any, bool]:
        """Drop a cached object: invalidate its tag, free the slot.

        The cache is clean by construction (every write path updates NVM as
        well), so no writeback is needed.
        """
        gaddr = request["gaddr"]
        entry = self.cached.pop(gaddr, None)
        if entry is None:
            return False  # already demoted (idempotent)
        yield from self.node.cpu_work()
        # Kill the tag first so stale clients fail self-verification.
        yield from self.cache_mr.write(entry.cache_offset, pack_cache_tag(0, flags=0))
        self.cache_alloc.free(entry.cache_offset)
        self.demotions.add()
        rec = self.sim.spans
        if rec is not None:
            rec.event(self.node.name, "cache", "demoted", gaddr=hex(gaddr))
        return True

    def _handle_attach(self, request: dict) -> Generator[Any, Any, RingDescriptor]:
        """Set up a client's private proxy ring and start its drain loop."""
        client_name = request["client"]
        if client_name in self._rings:
            raise ServerError(f"client {client_name!r} already attached")
        # A previous incarnation's drain loop (pre-crash) must have fully
        # exited before a new one shares the QP's completion stream, or the
        # two would steal each other's doorbells.
        old_proc = self._drain_proc_by_client.get(client_name)
        if old_proc is not None and old_proc.is_alive:
            yield old_proc
        qp = self._find_qp(request["qp_num"])
        slots = self.config.proxy_ring_slots
        slot_size = self.config.proxy_slot_size
        span = slots * slot_size + 64  # slots + drained counter word
        # Reuse the span carved for this client's previous incarnation (its
        # MR was deregistered at crash time); repeated crash/recover cycles
        # must not consume fresh DRAM.
        ring_base = self._ring_spans.get(client_name)
        if ring_base is None:
            ring_base = self._carver.carve(span, f"ring:{client_name}")
            self._ring_spans[client_name] = ring_base
        mr = self.node.endpoint.register_mr(
            self.node.dram, ring_base, span,
            access=AccessFlags.LOCAL | AccessFlags.REMOTE_READ | AccessFlags.REMOTE_WRITE,
            name=f"{self.node.name}.ring.{client_name}",
        )
        counter_offset = slots * slot_size
        mr.write_u64(counter_offset, 0)
        ring = _ClientRing(ring_base=ring_base, mr=mr,
                           counter_offset=counter_offset, client=client_name)
        self._rings[client_name] = ring
        # Pre-post one doorbell recv per slot; the drain loop reposts.
        for _ in range(slots):
            qp.post_recv(mr, offset=counter_offset, length=0)
        proc = self.sim.spawn(
            self._drain_loop(qp, ring), name=f"{self.node.name}.drain.{client_name}"
        )
        self._drain_loops.append((proc, qp))
        self._drain_proc_by_client[client_name] = proc
        self._drain_qps[client_name] = qp
        yield from self.node.cpu_work()
        return RingDescriptor(
            ring_rkey=mr.rkey, slots=slots, slot_size=slot_size,
            counter_offset=counter_offset,
        )

    def _handle_scrub(self, request: dict) -> Generator[Any, Any, bool]:
        """Zero freed data extents so reallocations read as fresh memory.

        Gengar gives gmalloc calloc semantics; the cost is paid off the
        allocation critical path and off the free's too: the master acks a
        ``gfree`` first and sends one ``scrub`` for every extent freed since
        the last one.  Object death is authoritative here, so this is also
        where a dead object's cache slot and drain bookkeeping go — whether
        the master knew of the slot or a promote raced the free.
        """
        self._check_term(request.get("term"), "scrub")
        yield from self.node.cpu_work()
        for offset, size in request["extents"]:
            gaddr = make_gaddr(self.server_id, offset)
            self._applied_seq.pop(gaddr, None)
            # A cache slot must not outlive its object: its gaddr-keyed tag
            # would validate for the next allocation at this extent.
            entry = self.cached.pop(gaddr, None)
            if entry is not None:
                yield from self.cache_mr.write(
                    entry.cache_offset, pack_cache_tag(0, flags=0))
                self.cache_alloc.free(entry.cache_offset)
                self.demotions.add()
            zeros = bytes(min(size, 64 * 1024))
            pos = 0
            while pos < size:
                chunk = min(len(zeros), size - pos)
                yield from self.data_device.write(offset + pos, zeros[:chunk])
                pos += chunk
        return True

    def _check_term(self, term: Optional[int], what: str) -> None:
        """Term fencing for every master→server call that changes NVM:
        adopt monotonically, reject anything below the adopted max.  The
        exact message is a cross-module contract — the master maps it to
        deposition, the client to StaleTermError."""
        if term is None:
            return
        if term < self._term_max:
            rec = self.sim.spans
            if rec is not None:
                rec.event(self.node.name, "term", what + " rejected",
                          term=term, current=self._term_max)
            raise ServerError(
                f"stale master term {term} (current {self._term_max})")
        self._term_max = term

    def _handle_journal_append(self, request: dict) -> Generator[Any, Any, int]:
        """Durably journal one allocation/free into NVM.

        Write-ahead ordering: the record lands before the count header
        advances, so a crash between the two leaves the record invisible
        rather than half-valid.  Returns the new record count.
        """
        if self.journal_base is None:
            raise ServerError("metadata journal disabled on this server")
        # Checked before anything else: a full journal must not mask a
        # deposed master.
        self._check_term(request.get("term"), "journal append")
        if self._journal_count >= JOURNAL_ENTRIES:
            raise ServerError("metadata journal full")
        record = pack_journal_record(
            request["op"], request["lock_idx"], request["gaddr"],
            request["size"], request.get("req_id", 0),
        )
        yield from self.node.cpu_work()
        offset = (self.journal_base + JOURNAL_HEADER_BYTES
                  + self._journal_count * JOURNAL_RECORD_BYTES)
        yield from self.data_device.write(offset, record)
        self._journal_count += 1
        yield from self.data_device.write(
            self.journal_base, self._journal_count.to_bytes(8, "little")
        )
        return self._journal_count

    def _handle_journal_read(self, request: dict) -> Generator[Any, Any, list]:
        """Read one page of the journal back (recovery): the decoded records
        from index ``start`` (default 0) on, at most ``JOURNAL_PAGE_RECORDS``.

        Reads the persisted count header rather than trusting volatile
        state, so it works on a freshly restarted server process.
        """
        if self.journal_base is None:
            raise ServerError("metadata journal disabled on this server")
        raw_count = yield from self.data_device.read(self.journal_base, 8)
        count = int.from_bytes(raw_count, "little")
        self._journal_count = count
        start = request.get("start", 0)
        n = min(count - start, JOURNAL_PAGE_RECORDS)
        if n <= 0:
            return []
        raw = yield from self.data_device.read(
            self.journal_base + JOURNAL_HEADER_BYTES
            + start * JOURNAL_RECORD_BYTES,
            n * JOURNAL_RECORD_BYTES,
        )
        records = []
        for i in range(n):
            op, lock_idx, gaddr, size, req_id = unpack_journal_record(
                raw[i * JOURNAL_RECORD_BYTES:(i + 1) * JOURNAL_RECORD_BYTES]
            )
            if op == JOURNAL_OP_TERM:
                # Re-learn the adopted term across a server restart: the
                # recovering master always reads before claiming, so this
                # runs before any new append could be checked.
                self._term_max = max(self._term_max, gaddr)
            records.append({"op": op, "lock_idx": lock_idx,
                            "gaddr": gaddr, "size": size, "req_id": req_id})
        return records

    def _handle_clear_lock_if_owner(self, request: dict) -> Generator[Any, Any, bool]:
        """Recovery: clear the writer bits of a lock word iff the embedded
        owner id (and, when given, the fencing epoch) matches.  Serialized
        against inbound NIC atomics through the endpoint's atomic gate, so a
        concurrent CAS/FAA never interleaves with the read-modify-write.

        The epoch condition is what makes lease recovery safe to race with
        a re-attach: a client that rejoined under a fresh epoch (and
        re-acquired the lock) is never hit by a clear aimed at its dead
        incarnation.
        """
        from repro.core.protocol import (
            lock_epoch, lock_is_write_locked, lock_owner, write_lock_word)

        lock_idx, owner = request["lock_idx"], request["owner"]
        epoch = request.get("epoch")
        yield from self.node.cpu_work()
        with (yield self.node.endpoint.atomic_gate):
            word = self.lock_mr.read_u64(lock_idx * 8)
            if not (lock_is_write_locked(word) and lock_owner(word) == owner):
                return False
            if epoch is not None and lock_epoch(word) != epoch:
                return False
            # Preserve in-flight reader increments; drop only the writer part.
            new = word - write_lock_word(owner, lock_epoch(word))
            yield from self.lock_mr.write(lock_idx * 8, new.to_bytes(8, "little"))
        return True

    def _handle_clear_lock_if_orphan(self, request: dict) -> Generator[Any, Any, int]:
        """Post-failover recovery: clear a write lock iff its embedded owner
        uid is *not* in the given set of known (re-attached) client uids.

        A restarted master lost its lease table; after the re-attach grace
        period, any lock whose owner never re-registered belongs to a client
        that died with the old master.  Returns the orphan's uid (0 if the
        word was free or owned by a known client).
        """
        from repro.core.protocol import (
            lock_epoch, lock_is_write_locked, lock_owner, write_lock_word)

        lock_idx = request["lock_idx"]
        known = set(request["known"])
        yield from self.node.cpu_work()
        with (yield self.node.endpoint.atomic_gate):
            word = self.lock_mr.read_u64(lock_idx * 8)
            if not lock_is_write_locked(word):
                return 0
            owner = lock_owner(word)
            if owner in known:
                return 0
            new = word - write_lock_word(owner, lock_epoch(word))
            yield from self.lock_mr.write(lock_idx * 8, new.to_bytes(8, "little"))
        return owner

    # ------------------------------------------------------------------
    # Transaction intents + deterministic apply (``enable_txn``)
    # ------------------------------------------------------------------
    def _intent_offset(self, slot: int) -> int:
        return self.intent_base + slot * TXN_INTENT_SLOT_BYTES

    def _require_intents(self) -> None:
        if self.intent_base is None:
            raise ServerError("txn intents disabled on this server")

    def _intent_load_index(self) -> Generator[Any, Any, None]:
        """Rebuild the volatile txn-id -> slot map from the NVM headers.

        Runs on first use after construction or a server restart, which is
        what makes the intent region authoritative across crashes: the map
        is a cache of what NVM says, never the other way around.
        """
        index: Dict[str, int] = {}
        for slot in range(TXN_INTENT_ENTRIES):
            base = self._intent_offset(slot)
            raw = yield from self.data_device.read(base, 8)
            length = int.from_bytes(raw, "little")
            if not length:
                continue
            blob = yield from self.data_device.read(base + 8, length)
            index[pickle.loads(blob)["txn"]] = slot
        if self._intent_index:
            # A concurrent first-use already rebuilt (and may have taken
            # reservations since): NVM truth for txns we did not know,
            # but never clobber the live map with this stale snapshot.
            for txn_id, slot in index.items():
                self._intent_index.setdefault(txn_id, slot)
        else:
            self._intent_index = index

    def _handle_txn_intent_put(self, request: dict) -> Generator[Any, Any, int]:
        """Durably persist one transaction's intent record — the commit
        point of the whole protocol.

        Write-ahead ordering like the journal: the pickled record lands
        before the 8-byte length header, so a crash between the two leaves
        the slot free rather than half-valid.  Idempotent per txn id (a
        retried commit overwrites its own slot).  Returns the slot index.
        """
        self._require_intents()
        record = {
            "txn": request["txn"],
            "owner": request["owner"],
            "epoch": request["epoch"],
            "writes": request["writes"],
        }
        blob = pickle.dumps(record)
        if len(blob) > TXN_INTENT_SLOT_BYTES - 8:
            raise ServerError(
                f"txn intent record too large ({len(blob)} bytes > slot "
                f"capacity {TXN_INTENT_SLOT_BYTES - 8})")
        yield from self.node.cpu_work()
        if self._intent_index is None:
            yield from self._intent_load_index()
        slot = self._intent_index.get(record["txn"])
        reserved = slot is None
        if reserved:
            used = set(self._intent_index.values())
            slot = next((s for s in range(TXN_INTENT_ENTRIES)
                         if s not in used), None)
            if slot is None:
                raise ServerError("txn intent region full")
            # Reserve in the volatile index BEFORE yielding to NVM: two
            # commits landing concurrently would otherwise both see the
            # slot as free and the second would overwrite the first's
            # durable record — whose later clear then destroys it.
            self._intent_index[record["txn"]] = slot
        base = self._intent_offset(slot)
        try:
            yield from self.data_device.write(base + 8, blob)
            yield from self.data_device.write(
                base, len(blob).to_bytes(8, "little"))
        except BaseException:
            if reserved:  # nothing durable yet: return the slot
                self._intent_index.pop(record["txn"], None)
            raise
        self.txn_intents.add()
        rec = self.sim.spans
        if rec is not None:
            rec.event(self.node.name, "txn", "intent persisted",
                      txn=record["txn"], writes=len(record["writes"]))
        return slot

    def _handle_txn_intent_clear(self, request: dict) -> Generator[Any, Any, bool]:
        """Retire a transaction's intent record (post-apply, or rollback of
        a record that lost its race with recovery).  Idempotent."""
        self._require_intents()
        yield from self.node.cpu_work()
        if self._intent_index is None:
            yield from self._intent_load_index()
        slot = self._intent_index.pop(request["txn"], None)
        if slot is None:
            return False
        yield from self.data_device.write(
            self._intent_offset(slot), (0).to_bytes(8, "little"))
        rec = self.sim.spans
        if rec is not None:
            rec.event(self.node.name, "txn", "intent cleared",
                      txn=request["txn"])
        return True

    def _handle_txn_intent_scan(self, request: dict) -> Generator[Any, Any, list]:
        """Recovery: return the decoded intent records on this server,
        optionally filtered to a set of owner uids.

        Reads through NVM (rebuilding the volatile index if a restart wiped
        it), so it works on a freshly recovered server process.  Filters:
        ``owners`` keeps only those uids (a lease expiry names the dead
        client); ``exclude`` keeps every uid NOT listed (the post-failover
        orphan sweep names the survivors).
        """
        self._require_intents()
        yield from self.node.cpu_work()
        if self._intent_index is None:
            yield from self._intent_load_index()
        owners = request.get("owners")
        exclude = set(request.get("exclude") or ())
        records = []
        for txn_id in sorted(self._intent_index):
            base = self._intent_offset(self._intent_index[txn_id])
            raw = yield from self.data_device.read(base, 8)
            length = int.from_bytes(raw, "little")
            if not length:
                continue
            blob = yield from self.data_device.read(base + 8, length)
            record = pickle.loads(blob)
            if owners is not None and record["owner"] not in owners:
                continue
            if record["owner"] in exclude:
                continue
            records.append(record)
        return records

    def _handle_txn_apply(self, request: dict) -> Generator[Any, Any, int]:
        """Apply a committed write-set fragment to this server's NVM home
        (and freshen any cached copy), exactly like a proxy drain.

        Idempotent by construction — the payload bytes are absolute, so a
        zombie client and the recovering master both applying the same
        intent converge on the same final state.
        """
        yield from self.node.cpu_work()
        applied = 0
        for gaddr, obj_offset, payload in request["writes"]:
            if server_of(gaddr) != self.server_id:
                raise ServerError(
                    f"txn_apply for {gaddr:#x} routed to wrong server "
                    f"{self.server_id}")
            payload = bytes(payload)
            yield from self.data_device.write(
                offset_of(gaddr) + obj_offset, payload)
            self._applied_seq[gaddr] = self._applied_seq.get(gaddr, 0) + 1
            entry = self.cached.get(gaddr)
            if entry is not None and obj_offset + len(payload) <= entry.size:
                yield from self.cache_mr.write(
                    entry.cache_offset + CACHE_TAG_BYTES + obj_offset, payload)
            applied += 1
            self.txn_applied.add()
        return applied

    def _handle_txn_desc(self, request: dict) -> Generator[Any, Any, dict]:
        """Lazy per-server txn plumbing: the wait-die stamp table's rkey.

        Kept out of :meth:`descriptor` so the attach reply (protocol bytes)
        is unchanged when transactions are off — clients fetch this once,
        on first transactional contact with the server.
        """
        if self.stamp_mr is None:
            raise ServerError("txn stamps disabled on this server")
        yield from self.node.cpu_work()
        return {"stamp_rkey": self.stamp_mr.rkey}

    def _retire_ring(self, client_name: str) -> bool:
        """Free one client's ring resources (shared by the retire RPCs).

        Deregisters the ring MR (a zombie's one-sided write faults with
        ``REMOTE_ACCESS_ERROR`` instead of landing in an orphaned region)
        and poisons the drain loop *behind* any doorbells already received,
        so staged writes still drain before the loop exits.  The carved
        DRAM span stays parked in ``_ring_spans`` for reuse at re-attach —
        evicting a client must not leak (or re-carve) server DRAM.
        """
        from repro.rdma.wr import Opcode, WorkCompletion

        ring = self._rings.pop(client_name, None)
        if ring is None:
            return False  # never attached, or already retired (idempotent)
        self.node.endpoint.deregister_mr(ring.mr)
        qp = self._drain_qps.pop(client_name, None)
        if qp is not None:
            self._drain_loops = [
                (proc, q) for (proc, q) in self._drain_loops if q is not qp
            ]
            qp.recv_cq.push(WorkCompletion(
                wr_id=0, opcode=Opcode.RECV, context={"poison": True},
            ))
        rec = self.sim.spans
        if rec is not None:
            rec.event(self.node.name, "lease", "proxy ring retired",
                      client=client_name)
        return True

    def _handle_retire_ring(self, request: dict) -> Generator[Any, Any, bool]:
        """Free a dead/evicted client's ring resources (idempotent)."""
        yield from self.node.cpu_work()
        return self._retire_ring(request["client"])

    def _handle_retire_rings_except(self, request: dict) -> Generator[Any, Any, list]:
        """Post-failover: retire every ring whose owner is *not* in the
        given list of known (re-attached) client names.

        The restarted master lost its lease table, so it cannot name the
        orphans — but it knows exactly who re-attached; everyone else's
        staged-write path must be cut along with their orphaned locks.
        Returns the retired client names (sorted, for determinism).
        """
        known = set(request["known"])
        yield from self.node.cpu_work()
        orphans = sorted(name for name in self._rings if name not in known)
        for name in orphans:
            self._retire_ring(name)
        return orphans

    def _find_qp(self, qp_num: int) -> "QueuePair":
        # The client names the *server-side* QP of its data connection by
        # number (it learned it from qp.remote at connect time), so control
        # and data connections to the same client are never confused.
        for qp in self.node.endpoint.qps:
            if qp.qp_num == qp_num:
                return qp
        raise ServerError(f"no local QP numbered {qp_num}")

    # ------------------------------------------------------------------
    # The proxy drain loop — the heart of the write-latency redesign
    # ------------------------------------------------------------------
    def _drain_loop(self, qp: "QueuePair", ring: _ClientRing) -> Generator[Any, Any, None]:
        """Apply staged writes to NVM (and the DRAM cache) in arrival order.

        The client already got its completion when the payload landed in the
        ring (DRAM latency); this loop pays the NVM cost off the critical
        path.  Per-client FIFO draining preserves program order.
        """
        slot_size = self.config.proxy_slot_size
        while True:
            wc = yield from qp.recv_cq.wait()
            if wc.context.get("poison"):
                return  # server crashed: staged-but-undrained writes are lost
            gate = self._drain_gate
            if gate is not None and not gate.triggered:
                # Injected stall: hold the doorbell until the gate opens.
                # A crash during the stall opens the gate too, so the loop
                # always reaches its poison completion and exits.
                yield gate
            slot = wc.imm_data
            self.ring_occupancy.adjust(+1)
            rec = self.sim.spans
            t0 = self.sim.now if rec is not None else 0
            yield from self.node.cpu_work()  # parse the doorbell + header
            base = slot * slot_size
            header = ring.mr.peek(base, PROXY_HEADER_BYTES)
            gaddr, obj_offset, length = unpack_proxy_header(header)
            if self.config.proxy_commit:
                # Torn-slot detection: this doorbell's payload must carry a
                # commit word binding (seq, header+payload).  A client that
                # died mid-WRITE leaves a frame the commit word no longer
                # covers — skip it (advancing the drained cursor to keep
                # slot/seq alignment) rather than applying garbage to NVM.
                limit = slot_size - PROXY_HEADER_BYTES - PROXY_COMMIT_BYTES
                torn = not 0 <= length <= limit
                if not torn:
                    frame = header + ring.mr.peek(base + PROXY_HEADER_BYTES, length)
                    commit = ring.mr.peek(
                        base + PROXY_HEADER_BYTES + length, PROXY_COMMIT_BYTES)
                    torn = not proxy_commit_ok(commit, ring.drained, frame)
                if torn:
                    self.torn_skipped.add()
                    if rec is not None:
                        rec.event(self.node.name, "fault", "torn slot skipped",
                                  slot=slot, seq=ring.drained)
                    ring.drained += 1
                    ring.mr.write_u64(ring.counter_offset, ring.drained)
                    qp.post_recv(ring.mr, offset=ring.counter_offset, length=0)
                    self.ring_occupancy.adjust(-1)
                    if rec is not None:
                        rec.record(self.node.name, "srv.drain", t0,
                                   client=ring.client, torn=True)
                    continue
            payload = ring.mr.peek(base + PROXY_HEADER_BYTES, length)

            # Persist to the NVM home first, then — atomically with the
            # write's completion — bump the applied sequence and take a
            # *fresh* cache lookup.  The ordering closes the promotion race
            # both ways: a promote copy that missed this frame's bytes either
            # sees the bump (and redoes its copy) or published its entry
            # before this lookup (and the frame lands in the slot here).
            yield from self.data_device.write(offset_of(gaddr) + obj_offset, payload)
            self._applied_seq[gaddr] = self._applied_seq.get(gaddr, 0) + 1
            entry = self.cached.get(gaddr)
            if entry is not None and obj_offset + length <= entry.size:
                yield from self.cache_mr.write(
                    entry.cache_offset + CACHE_TAG_BYTES + obj_offset, payload
                )

            ring.drained += 1
            ring.mr.write_u64(ring.counter_offset, ring.drained)
            qp.post_recv(ring.mr, offset=ring.counter_offset, length=0)
            self.drained_writes.add()
            self.drained_bytes.add(length)
            self.ring_occupancy.adjust(-1)
            if rec is not None:
                rec.record(self.node.name, "srv.drain", t0,
                           client=ring.client, bytes=length, torn=False,
                           gaddr=hex(gaddr), seq=ring.drained)

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Fail the server process: DRAM contents are lost, NVM survives.

        Models a machine power cycle: the DRAM cache, the proxy rings
        (including any staged-but-undrained writes!), and the lock table all
        vanish; data that reached NVM (everything a client ``gsync``'ed) is
        durable.  In-flight and subsequent verbs targeting this node
        complete with ``RETRY_EXCEEDED``.
        """
        if not self.node.endpoint.alive:
            return
        self.node.endpoint.alive = False
        self.crashes += 1
        # DRAM is gone: invalidate every cached slot's tag and the rings.
        for entry in self.cached.values():
            self.cache_mr.poke(entry.cache_offset,
                               bytes(CACHE_TAG_BYTES + entry.size))
        self.cached.clear()
        if self.cache_alloc is not None:
            self.cache_alloc = ExtentAllocator(self.config.cache_capacity)
        for ring in self._rings.values():
            ring.mr.poke(0, bytes(ring.mr.length))
            # Tear down the ring's RDMA window: a client unaware of the
            # crash faults loudly (REMOTE_ACCESS_ERROR -> StaleRingError)
            # instead of silently writing into an orphaned region.  The
            # carved span itself is reused at re-attach (_ring_spans).
            self.node.endpoint.deregister_mr(ring.mr)
        self._rings.clear()
        # A stalled drain loop must still see its poison completion.
        gate = self._drain_gate
        if gate is not None:
            if not gate.triggered:
                gate.succeed()
            self._drain_gate = None
        # Stop the drain loops with poison completions (a poisoned wait is
        # consumed by the dying loop, so no live completion is ever lost to
        # a stale queue entry).
        from repro.rdma.wr import Opcode, WorkCompletion

        for _proc, qp in self._drain_loops:
            qp.recv_cq.push(WorkCompletion(
                wr_id=0, opcode=Opcode.RECV, context={"poison": True},
            ))
        self._drain_loops.clear()
        self._drain_qps.clear()
        # The lock table lived in DRAM: every lock is implicitly released.
        self.lock_mr.poke(0, bytes(self.lock_mr.length))
        if self.stamp_mr is not None:
            # Wait-die stamps lived in DRAM too; zero = "holder unknown",
            # which contenders resolve to the safe verdict (wait).
            self.stamp_mr.poke(0, bytes(self.stamp_mr.length))
        # The intent *records* are in NVM and survive; only the volatile
        # txn-id -> slot map is lost, so force a rebuild on next use.
        self._intent_index = None
        rec = self.sim.spans
        if rec is not None:
            rec.event(self.node.name, "fault", "server crashed")

    def recover(self) -> None:
        """Restart the server process (empty DRAM state, NVM intact).

        Clients must re-attach (:meth:`GengarClient.reattach_server`) to get
        fresh proxy rings, and the master must be told via
        :meth:`Master.on_server_recovered` so the directory drops the lost
        DRAM copies.
        """
        self.node.endpoint.alive = True
        rec = self.sim.spans
        if rec is not None:
            rec.event(self.node.name, "fault", "server recovered")

    def stall_drains(self, duration_ns: int) -> None:
        """Freeze every proxy drain loop for ``duration_ns`` (fault
        injection: a wedged drain thread or an NVM write stall).

        Staged writes keep landing in the rings (clients still get DRAM-
        latency acks) but nothing reaches NVM and the drained counter stops
        advancing until the gate reopens.  A stall during a stall is a
        no-op (the first release time stands); a crash releases the gate
        immediately.
        """
        if duration_ns < 1:
            raise ServerError("stall duration must be positive")
        if self._drain_gate is not None and not self._drain_gate.triggered:
            return
        gate = self.sim.event(name=f"{self.node.name}.drain_stall")
        self._drain_gate = gate
        self.sim.schedule(duration_ns, self._release_drain_gate, gate)
        rec = self.sim.spans
        if rec is not None:
            rec.event(self.node.name, "fault", "drain loops stalled",
                      duration_ns=duration_ns)

    def _release_drain_gate(self, gate) -> None:
        if not gate.triggered:
            gate.succeed()
        if self._drain_gate is gate:
            self._drain_gate = None
            rec = self.sim.spans
            if rec is not None:
                rec.event(self.node.name, "fault", "drain loops released")

    @property
    def is_alive(self) -> bool:
        return self.node.endpoint.alive

    # ------------------------------------------------------------------
    @property
    def cache_used_bytes(self) -> int:
        """Bytes currently allocated in the DRAM cache (tags included)."""
        return self.cache_alloc.allocated_bytes if self.cache_alloc else 0
