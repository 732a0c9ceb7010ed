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
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Deque, Dict, Generator, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node
    from repro.rdma.qp import QueuePair

from repro.core.addressing import make_gaddr, offset_of, server_of
from repro.core.allocator import ExtentAllocator, OutOfMemory
from repro.core.config import GengarConfig
from repro.core.layout import DramCarver
from repro.core.protocol import (
    CACHE_TAG_BYTES,
    COMMIT_WORD_BYTES,
    JOURNAL_HEADER_BYTES,
    JOURNAL_OP_TERM,
    JOURNAL_PAGE_RECORDS,
    JOURNAL_RECORD_BYTES,
    PROXY_HEADER_BYTES,
    PROXY_MORE,
    RingDescriptor,
    ServerDescriptor,
    lock_epoch,
    lock_is_write_locked,
    lock_owner,
    pack_cache_tag,
    pack_commit_word,
    pack_journal_record,
    proxy_payload_capacity,
    unpack_journal_record,
    unpack_proxy_header,
    write_lock_word,
)
from repro.rdma.mr import AccessFlags
from repro.rdma.rpc import DEFAULT_BUFFER_SIZE, DEFAULT_RING_SLOTS, RpcServer
from repro.rdma.wr import Opcode, WorkCompletion
from repro.sim import Store


class ServerError(Exception):
    """Invalid server-side operation (bad promote/demote, unknown client)."""


@dataclass
class _CacheEntry:
    cache_offset: int  # slot base (tag included) within the cache region
    size: int


#: Metadata journal capacity (``metadata_journal``), in records.
JOURNAL_ENTRIES = 65536
#: Txn-intent region: slots per server, one per in-flight committing txn
#: this server coordinates, and bytes per slot — a txn whose pickled intent
#: record does not fit aborts cleanly at commit rather than truncating.
#: The region starts with a length table, one u64 per slot (0: free).
TXN_INTENT_ENTRIES = 64
TXN_INTENT_SLOT_BYTES = 4096


def intent_span() -> int:
    """NVM bytes the txn-intent region reserves: length table plus slots."""
    return TXN_INTENT_ENTRIES * (8 + TXN_INTENT_SLOT_BYTES)


def journal_span() -> int:
    """NVM bytes the metadata journal reserves: count header plus records."""
    return JOURNAL_HEADER_BYTES + JOURNAL_ENTRIES * JOURNAL_RECORD_BYTES


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


class IntentStore:
    """The server's txn-intent region in NVM, durable so that committed
    transactions roll forward after any crash (a length table of one u64
    per slot, 0 when free, then one slot per pickled record), and the one
    writer of the volatile txn-id -> slot index that caches it.  Its
    :meth:`put`, :meth:`clear` and :meth:`scan` are the ``txn_intent_*``
    RPC handlers."""

    __slots__ = ("server", "intent_base", "_slot_of", "txn_intents")

    def __init__(self, server: "MemoryServer", base: int):
        self.server = server
        self.intent_base = base
        #: Volatile txn-id -> slot map; ``None`` forces a rebuild from the
        #: NVM length table (first use after construction or a restart).
        self._slot_of: Optional[Dict[str, int]] = None
        self.txn_intents = server.sim.metrics.counter(
            f"{server.node.name}.txn.intents")

    def reset(self) -> None:
        """A crash: the records survive in NVM, the index is rebuilt."""
        self._slot_of = None

    def _length_offset(self, slot: int) -> int:
        return self.intent_base + slot * 8

    def _slot_offset(self, slot: int) -> int:
        return self.intent_base + TXN_INTENT_ENTRIES * 8 + slot * TXN_INTENT_SLOT_BYTES

    def _load(self) -> Generator[Any, Any, Dict[str, dict]]:
        """Read every durable intent record, txn id -> record (the length
        table in one device read, then one read per live slot), and rebuild
        the index from them if a restart wiped it: the index caches what
        NVM says, never the other way around."""
        device = self.server.data_device
        table = yield from device.read(self.intent_base, TXN_INTENT_ENTRIES * 8)
        records: Dict[str, dict] = {}
        index: Dict[str, int] = {}
        for slot in range(TXN_INTENT_ENTRIES):
            length = int.from_bytes(table[slot * 8:slot * 8 + 8], "little")
            if not length:
                continue
            blob = yield from device.read(self._slot_offset(slot), length)
            record = pickle.loads(blob)
            records[record["txn"]] = record
            index[record["txn"]] = slot
        if self._slot_of is None:
            self._slot_of = {}
        # A live index (or one built meanwhile) may hold reservations made
        # since: NVM truth only for txns it does not know.
        for txn_id, slot in index.items():
            self._slot_of.setdefault(txn_id, slot)
        return records

    def put(self, request: dict) -> Generator[Any, Any, int]:
        """Durably persist one transaction's intent record — the commit
        point of the whole protocol.

        Write-ahead ordering like the journal: the pickled record lands
        before its length-table entry, so a crash between the two leaves
        the slot free rather than half-valid.  Idempotent per txn id (a
        retried commit overwrites its own slot).  Returns the slot index.
        """
        server = self.server
        record = {key: request[key] for key in ("txn", "owner", "epoch", "writes")}
        blob = pickle.dumps(record)
        if len(blob) > TXN_INTENT_SLOT_BYTES:
            raise ServerError(
                f"txn intent record too large ({len(blob)} bytes > slot "
                f"capacity {TXN_INTENT_SLOT_BYTES})")
        yield from server.node.cpu_work()
        if self._slot_of is None:
            yield from self._load()
        slot = self._slot_of.get(record["txn"])
        reserved = slot is None
        if reserved:
            used = set(self._slot_of.values())
            slot = next((s for s in range(TXN_INTENT_ENTRIES)
                         if s not in used), None)
            if slot is None:
                raise ServerError("txn intent region full")
            # Reserve in the volatile index BEFORE yielding to NVM: two
            # commits landing concurrently would otherwise both see the
            # slot as free and the second would overwrite the first's
            # durable record — whose later clear then destroys it.
            self._slot_of[record["txn"]] = slot
        try:
            yield from server.data_device.write(self._slot_offset(slot), blob)
            yield from server.data_device.write(
                self._length_offset(slot), len(blob).to_bytes(8, "little"))
        except BaseException:
            if reserved:  # nothing durable yet: return the slot
                self._slot_of.pop(record["txn"], None)
            raise
        self.txn_intents.add()
        rec = server.sim.spans
        if rec is not None:
            rec.event(server.node.name, "txn", "intent persisted",
                      txn=record["txn"], writes=len(record["writes"]))
        return slot

    def clear(self, request: dict) -> Generator[Any, Any, bool]:
        """Retire a transaction's intent record (post-apply, or rollback of
        a record that lost its race with recovery).  Idempotent."""
        server = self.server
        yield from server.node.cpu_work()
        if self._slot_of is None:
            yield from self._load()
        slot = self._slot_of.pop(request["txn"], None)
        if slot is None:
            return False
        yield from server.data_device.write(
            self._length_offset(slot), (0).to_bytes(8, "little"))
        rec = server.sim.spans
        if rec is not None:
            rec.event(server.node.name, "txn", "intent cleared",
                      txn=request["txn"])
        return True

    def scan(self, request: dict) -> Generator[Any, Any, list]:
        """Recovery: the decoded intent records on this server, read
        through NVM so a restarted server has them; a record whose clear is
        in flight is not listed.  ``owners``, when given, keeps only the
        uids it lists (a fence names the dead clients); other keys of the
        dead set (:meth:`MemoryServer._handle_recover_dead`) are ignored.
        """
        yield from self.server.node.cpu_work()
        durable = yield from self._load()
        owners = request.get("owners")
        return [durable[txn_id] for txn_id in sorted(durable)
                if txn_id in self._slot_of
                and (owners is None or durable[txn_id]["owner"] in owners)]


@dataclass(slots=True)
class _Ring:
    """One incarnation of a client's proxy ring.  Torn down, it stays in
    :attr:`ProxyDrain.rings` until the next incarnation reuses its span."""

    client: str  # owning client's name (span/trace attribution)
    base: int  # DRAM offset of the carved span
    mr: Any  # ring MemoryRegion
    counter_offset: int  # region-relative offset of the drained counter
    qp: "QueuePair"  # the data QP whose doorbells name this ring's slots
    proc: Any = None  # the drain loop
    retired: bool = False  # torn down: retired, or lost in a crash
    seq: int = 0  # frames taken off the doorbell queue: the next frame's seq
    drained: int = 0  # frames applied or skipped, as a prefix of seq order
    #: Frames finished ahead of the drained prefix (only while overlapped).
    done: set = field(default_factory=set)
    handed: int = 0  # frames handed to the drain writers, not yet finished
    lost: bool = False  # the server crashed under it: handed frames drop
    idle: Any = None  # the poisoned drain loop's wait for ``handed == 0``
    #: A frame group's payloads parsed so far (a torn one's as None).
    parked: list = field(default_factory=list)


class ProxyDrain:
    """The server half of the proxy write protocol, and the one writer of
    its state: a ring record per client, the loops that drain them, the
    overlapped writers they share, the stall gate and the ``proxy.*``
    counters.  Frames reach NVM through :meth:`MemoryServer._apply`.
    """

    __slots__ = ("server", "sim", "node", "rings", "_gate", "_ready", "_work",
                 "_applies", "_writers", "_applying", "drained_writes",
                 "drained_bytes", "ring_occupancy", "torn_skipped")

    def __init__(self, server: "MemoryServer"):
        self.server = server
        self.sim = sim = server.sim
        self.node = node = server.node
        #: Client name -> its ring's latest incarnation, attached or torn
        #: down, in the order of their latest attach.
        self.rings: Dict[str, _Ring] = {}
        #: The stall gate (fault injection): drain loops and writers park on
        #: it while set.  Set means not yet triggered: whatever triggers it
        #: (its release, a crash) clears it in the same step.
        self._gate: Any = None
        #: Overlapped drain: handed-off frames wait in ``_ready`` for
        #: admission (:meth:`_admit`), then go through ``_work`` to one of
        #: the writers, one per data-device channel, spawned at the first.
        self._ready: Deque[tuple] = deque()
        self._work = Store(sim, name=f"{node.name}.drain_work")
        self._applies = 0  # frame applies in flight or admitted
        self._writers = 0  # writers spawned: 0 or the channel count
        #: gaddr -> the frames waiting behind that object's handed-off apply
        #: in flight; the entry goes when its chain runs dry.
        self._applying: Dict[int, Deque[tuple]] = {}
        m = sim.metrics
        self.drained_writes = m.counter(f"{node.name}.proxy.drained")
        self.drained_bytes = m.counter(f"{node.name}.proxy.drained_bytes")
        self.ring_occupancy = m.level(f"{node.name}.proxy.occupancy")
        self.torn_skipped = m.counter(f"{node.name}.proxy.torn_skipped")

    def attached(self, client: str) -> Optional[_Ring]:
        """``client``'s ring while it is attached, else None."""
        ring = self.rings.get(client)
        return None if ring is None or ring.retired else ring

    def attach(self, request: dict) -> Generator[Any, Any, RingDescriptor]:
        """The ``attach`` handler: set up a client's private proxy ring and
        start its drain loop."""
        client = request["client"]
        node = self.node
        old = self.rings.get(client)
        if old is not None:
            if not old.retired:
                raise ServerError(f"client {client!r} already attached")
            # Its loop must have exited before a new one shares the QP's
            # completion stream, or the two would steal doorbells.
            if old.proc.is_alive:
                yield old.proc
        # The client names the *server-side* QP of its data connection by
        # number, so its control and data connections are never confused.
        qp = next((qp for qp in node.endpoint.qps
                   if qp.qp_num == request["qp_num"]), None)
        if qp is None:
            raise ServerError(f"no local QP numbered {request['qp_num']}")
        config = self.server.config
        slots = config.proxy_ring_slots
        slot_size = config.proxy_slot_size
        span = slots * slot_size + 64  # slots + drained counter word
        # Reuse the previous incarnation's span: repeated teardown and
        # re-attach cycles must not consume fresh DRAM.
        base = (old.base if old is not None
                else self.server._carver.carve(span, f"ring:{client}"))
        mr = node.endpoint.register_mr(
            node.dram, base, span,
            access=AccessFlags.LOCAL | AccessFlags.REMOTE_READ | AccessFlags.REMOTE_WRITE,
            name=f"{node.name}.ring.{client}",
        )
        counter_offset = slots * slot_size
        mr.write_u64(counter_offset, 0)
        ring = _Ring(client, base, mr, counter_offset, qp)
        self.rings.pop(client, None)  # to the end: attach order
        self.rings[client] = ring
        # Pre-post one doorbell recv per slot; the drain loop reposts.
        for _ in range(slots):
            qp.post_recv(mr, offset=counter_offset, length=0)
        ring.proc = self.sim.spawn(
            self._loop(ring), name=f"{node.name}.drain.{client}")
        yield from node.cpu_work()
        return RingDescriptor(
            ring_rkey=mr.rkey, slots=slots, slot_size=slot_size,
            counter_offset=counter_offset,
        )

    def retire(self, clients: set) -> Tuple[List[Any], List[str]]:
        """Retire the attached rings of dead ``clients``; returns, in name
        order, the loops of all their rings, attached or not, to wait for
        (taken before the caller yields: a dead name that re-attaches
        meanwhile gets a live loop nothing will poison), and the names."""
        rings = self.rings
        names = sorted(clients.intersection(rings))
        procs = [rings[name].proc for name in names]
        retired = [name for name in names if not rings[name].retired]
        for name in retired:
            self._teardown(rings[name], lost=False)
        return procs, retired

    def crash(self) -> None:
        """Open the stall gate at once, so a stalled loop sees its poison,
        and tear down every attached ring as lost with the DRAM."""
        if self._gate is not None:
            self._gate.succeed()
            self._gate = None
        for ring in self.rings.values():
            if not ring.retired:
                self._teardown(ring, lost=True)

    def _teardown(self, ring: _Ring, lost: bool) -> None:
        """Tear down an attached ring, retired or ``lost`` (zeroed: its
        frames drop).  Deregistering the MR makes a client unaware of it
        fault loudly (``StaleRingError``) instead of writing an orphaned
        region; the poison queues *behind* the doorbells already received,
        so a retired ring's staged frames still drain first."""
        ring.retired = True
        mr = ring.mr
        if lost:
            ring.lost = True
            mr.poke(0, bytes(mr.length))
        self.node.endpoint.deregister_mr(mr)
        ring.qp.recv_cq.push(WorkCompletion(
            wr_id=0, opcode=Opcode.RECV, context={"poison": True},
        ))
        rec = self.sim.spans
        if rec is not None and not lost:
            rec.event(self.node.name, "lease", "proxy ring retired",
                      client=ring.client)

    def stall(self, duration_ns: int) -> None:
        """Freeze every drain loop and writer for ``duration_ns`` (a wedged
        drain thread or an NVM write stall): staged writes still land and
        are acked, but none reaches NVM until the gate reopens.  A stall
        during a stall is a no-op (the first release time stands)."""
        if duration_ns < 1:
            raise ServerError("stall duration must be positive")
        if self._gate is not None:
            return
        gate = self._gate = self.sim.event(name=f"{self.node.name}.drain_stall")
        self.sim.schedule(duration_ns, self.release, gate)
        rec = self.sim.spans
        if rec is not None:
            rec.event(self.node.name, "fault", "drain loops stalled",
                      duration_ns=duration_ns)

    def release(self, gate) -> None:
        """End the stall that armed ``gate``, unless a crash already has."""
        if self._gate is gate:
            gate.succeed()
            self._gate = None
            rec = self.sim.spans
            if rec is not None:
                rec.event(self.node.name, "fault", "drain loops released")

    # The drain loop and its writers: the heart of the write-latency design.
    def _loop(self, ring: _Ring) -> Generator[Any, Any, None]:
        """Apply staged writes to NVM (and the DRAM cache) in arrival order.

        The client already got its completion when the payload landed in the
        ring (DRAM latency); this loop pays the NVM cost off the critical
        path.  It parses one frame at a time.  While nothing of the ring is
        in flight and fewer than half its slots hold frames that arrived
        but are not drained, it applies the frame itself before taking the
        next.  Otherwise the ring has backed up and the frame goes to the
        server's drain writers (:meth:`_writer`), so several NVM writes
        overlap; the loop stays in that mode until its handed-off
        frames have all been applied.  Either way frames for one object
        apply in program order, and the drained counter covers only the
        prefix of frames applied or skipped (:meth:`_finish`).
        A frame with the more-bit set is parked until its group's last
        frame arrives; the group then applies as one frame, or retires
        unapplied if any of its frames is torn.
        """
        config = self.server.config
        slot_size = config.proxy_slot_size
        capacity = proxy_payload_capacity(slot_size)
        half = config.proxy_ring_slots // 2
        doorbells = ring.qp.recv_cq.next_event()
        queued = doorbells._items  # doorbells arrived, not yet taken
        while True:
            wc = yield doorbells
            if "poison" in wc.context:
                # Retired or crashed.  Frames already handed off finish (or,
                # after a crash, drop) before the loop exits: a re-attach
                # waits for this process before reusing the ring's span.
                if ring.handed:
                    ring.idle = self.sim.event(name=f"{self.node.name}.drain_idle")
                    yield ring.idle
                return
            gate = self._gate
            if gate is not None:
                # Injected stall: hold the doorbell until the gate opens.
                # A crash during the stall opens the gate too, so the loop
                # always reaches its poison completion and exits.
                yield gate
            slot = wc.imm_data
            self.ring_occupancy.adjust(+1)
            rec = self.sim.spans
            t0 = self.sim.now if rec is not None else 0
            yield from self.node.cpu_work()  # parse the doorbell + header
            if ring.lost:
                # The server crashed under this doorbell and zeroed its
                # slot: nothing to apply or judge.  Keep consuming until
                # the poison, which the crash queued behind it.
                self.ring_occupancy.adjust(-1)
                continue
            seq = ring.seq
            ring.seq = seq + 1
            base = slot * slot_size
            header = ring.mr.peek(base, PROXY_HEADER_BYTES)
            gaddr, obj_offset, length = unpack_proxy_header(header)
            more = length & PROXY_MORE
            length ^= more
            # Torn-slot detection: this doorbell's frame must carry a commit
            # word binding (seq, header+payload).  A client that died
            # mid-WRITE leaves a frame the commit word no longer covers —
            # skip it (retiring its seq to keep slot/seq alignment) rather
            # than applying garbage to NVM.
            payload = None
            if length <= capacity:
                body = ring.mr.peek(base + PROXY_HEADER_BYTES,
                                    length + COMMIT_WORD_BYTES)
                payload = body[:length]
                if body[length:] != pack_commit_word(seq, header + payload):
                    payload = None
            else:
                more = 0  # a garbage header ends any group
            if payload is None:
                self.torn_skipped.add()
                if rec is not None:
                    rec.event(self.node.name, "fault", "torn slot skipped",
                              slot=slot, seq=seq)
            parked = ring.parked
            if parked or more:
                if parked:
                    ring.done.add(seq)  # retires along with the group's first
                parked.append(payload)
                if more:
                    continue
                # The group's last frame: the group applies as one frame.
                seq -= len(parked) - 1
                payload = None if None in parked else b"".join(parked)
                parked.clear()
                if payload is not None:  # from the group's first byte on
                    obj_offset -= len(payload) - length
                    length = len(payload)
            overlap = seq != ring.drained or len(queued) + 1 >= half
            if payload is None:
                # Torn: the frame, or its whole group, retires unapplied.
                yield from self._finish(ring, seq, t0, overlap,
                                        gaddr, obj_offset, length, None)
                continue
            if not overlap:
                self._applies += 1
                yield from self._finish(ring, seq, t0, False,
                                        gaddr, obj_offset, length, payload)
                continue
            ring.handed += 1
            frame = (ring, seq, t0, gaddr, obj_offset, length, payload)
            chain = self._applying.get(gaddr)
            if chain is not None:
                chain.append(frame)  # behind the object's apply in flight
                continue
            self._applying[gaddr] = deque()
            if not self._writers:
                self._writers = self.server.data_device.spec.channels
                for i in range(self._writers):
                    self.sim.spawn(self._writer(),
                                   name=f"{self.node.name}.drain_writer{i}")
            self._ready.append(frame)
            self._admit()

    def _admit(self) -> None:
        """Hand ready frames to the writers while fewer frame applies (NVM
        write plus cache refresh, serial ones counted though they never
        wait) are in flight than the data device has channels."""
        ready = self._ready
        channels = self._writers
        while ready and self._applies < channels:
            self._applies += 1
            self._work.put(ready.popleft())

    def _writer(self) -> Generator[Any, Any, None]:
        """Apply admitted frames, one at a time.  Finishing an object's
        frame makes the next in its chain (``_applying``) ready ahead of the
        rest: one object's frames apply in program order.  A frame of a
        lost ring is dropped unwritten: its bytes died with the DRAM."""
        work = self._work
        while True:
            ring, seq, t0, gaddr, obj_offset, length, payload = yield work
            gate = self._gate
            if gate is not None:
                yield gate
            if ring.lost:
                self._applies -= 1
            else:
                yield from self._finish(ring, seq, t0, True,
                                        gaddr, obj_offset, length, payload)
            ring.handed -= 1
            if not ring.handed and ring.idle is not None:
                ring.idle.succeed()
            chain = self._applying[gaddr]
            if chain:
                self._ready.appendleft(chain.popleft())
            else:
                del self._applying[gaddr]
            self._admit()

    def _finish(self, ring: _Ring, seq: int, t0: int, overlapped: bool,
                gaddr: int, obj_offset: int, length: int,
                payload: Optional[bytes]) -> Generator[Any, Any, None]:
        """Apply frame ``seq`` of ``ring``, or the group it heads as one write
        (``payload`` None: skip it as torn) through
        :meth:`MemoryServer._apply`, then retire it.

        Retiring moves the drained counter only when ``seq`` is the next in
        order, and then over every frame already finished behind it, so the
        counter always covers exactly a prefix of the ring: what ``gsync``,
        ring flow control and overlay pruning read it as.
        """
        if payload is not None:
            yield from self.server._apply(gaddr, obj_offset, payload)
            self._applies -= 1
            if self._ready:
                self._admit()
        if seq == ring.drained:
            done = ring.done
            drained = seq + 1
            while True:
                ring.qp.post_recv(ring.mr, offset=ring.counter_offset, length=0)
                self.ring_occupancy.adjust(-1)
                if drained not in done:
                    break
                done.remove(drained)
                drained += 1
            ring.drained = drained
            ring.mr.write_u64(ring.counter_offset, drained)
        else:
            ring.done.add(seq)
        rec = self.sim.spans
        if payload is None:
            if rec is not None:
                rec.record(self.node.name, "srv.drain", t0, client=ring.client,
                           torn=True, overlapped=overlapped)
            return
        self.drained_writes.add()
        self.drained_bytes.add(length)
        if rec is not None:
            rec.record(self.node.name, "srv.drain", t0, client=ring.client,
                       bytes=length, torn=False, gaddr=hex(gaddr),
                       seq=seq + 1, overlapped=overlapped)


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
            2 * DEFAULT_RING_SLOTS * DEFAULT_BUFFER_SIZE, "rpc")
        self.rpc = RpcServer(
            node.endpoint, node.dram, base=rpc_base, name=f"{node.name}.rpc",
            grow_cb=lambda nbytes: carver.carve(nbytes, "rpc-grow"),
        )

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

        # The durable spans at the tail of NVM: the txn-intent region, and
        # below it the optional metadata journal.
        journal = journal_span() if config.metadata_journal else 0
        if data_device.capacity <= intent_span() + journal:
            raise ServerError(
                f"{data_device.name} of {data_device.capacity} bytes leaves no "
                f"room for data beside its txn intent region ({intent_span()} "
                f"bytes) and metadata journal ({journal} bytes)")
        if config.metadata_journal:
            self.journal_base = data_device.capacity - journal
            self.data_capacity = self.journal_base
            self._journal_count = 0
            #: Highest master term this server has accepted:
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

        # The txn-intent region, below the journal tail.
        self.data_capacity -= intent_span()
        self.intents = IntentStore(self, self.data_capacity)

        # Advisory wait-die stamp table: one 8-byte stamp per lock-table
        # entry, written one-sided by lock holders and read one-sided by
        # contenders.  Never authoritative — a zero (unknown) stamp always
        # resolves to "wait", which is safe.
        stamp_bytes = config.lock_table_entries * 8
        stamp_base = carver.carve(stamp_bytes, "txnstamps")
        self.stamp_mr = node.endpoint.register_mr(
            node.dram, stamp_base, stamp_bytes,
            access=AccessFlags.LOCAL | AccessFlags.REMOTE_READ | AccessFlags.REMOTE_WRITE,
            name=f"{node.name}.txnstamps",
        )

        # Data region: the contributed device minus the journal tail.
        self.data_mr = node.endpoint.register_mr(
            data_device, 0, data_device.capacity,
            access=AccessFlags.LOCAL | AccessFlags.REMOTE_READ | AccessFlags.REMOTE_WRITE,
            name=f"{node.name}.data",
        )

        #: Locally cached objects: gaddr -> entry (the drain loop consults it).
        self.cached: Dict[int, _CacheEntry] = {}
        self.drain = ProxyDrain(self)
        self.crashes = 0
        #: Per-object applied-write sequence, bumped by every apply (the
        #: promotion race, :meth:`_apply`); pruned at scrub (free) time.
        self._applied_seq: Dict[int, int] = defaultdict(int)

        #: Adjacent reads in one doorbell batch collapse into single device
        #: transfers; the QP machinery finds the combiner via the endpoint.
        self.read_combiner = ReadCombiner(self)
        node.endpoint.read_combiner = self.read_combiner

        m = self.sim.metrics
        self.promotions = m.counter(f"{node.name}.cache.promotions")
        self.demotions = m.counter(f"{node.name}.cache.demotions")
        self.txn_applied = m.counter(f"{node.name}.txn.applied")

        rpc = self.rpc
        rpc.register("promote", self._handle_promote)
        rpc.register("demote", self._handle_demote)
        rpc.register("attach", self.drain.attach)
        rpc.register("scrub", self._handle_scrub)
        rpc.register("recover_dead", self._handle_recover_dead)
        rpc.register("journal_append", self._handle_journal_append)
        rpc.register("journal_read", self._handle_journal_read)
        rpc.register("txn_intent_put", self.intents.put)
        rpc.register("txn_intent_clear", self.intents.clear)
        rpc.register("txn_intent_scan", self.intents.scan)
        rpc.register("txn_apply", self._handle_txn_apply)

    # ------------------------------------------------------------------
    def descriptor(self) -> ServerDescriptor:
        """What clients need to reach this server one-sided."""
        return ServerDescriptor(
            server_id=self.server_id,
            node_name=self.node.name,
            data_rkey=self.data_mr.rkey,
            cache_rkey=self.cache_mr.rkey if self.cache_mr else 0,
            lock_rkey=self.lock_mr.rkey,
            stamp_rkey=self.stamp_mr.rkey,
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

    def _handle_recover_dead(self, request: dict) -> Generator[Any, Any, dict]:
        """Recovery of dead clients on this server (PROTOCOLS §8.2): retire
        their proxy rings and wait for their drain loops to exit, so a
        frame one staged drains before a roll-forward lands over it; then
        apply the committed fragment ``writes``, or clear the writer half
        of every listed lock word (``lock_idxs``) one of them holds.

        The dead set is the filter ``txn_intent_scan`` takes: ``owners``
        maps each dead uid to the epoch it was fenced at (None: any epoch);
        a word of that epoch or an older one is dead, so a client that
        re-attached under a fresh epoch keeps the locks it re-took.
        ``clients`` names the dead clients' rings.  Each word is rewritten
        under the endpoint's atomic gate, keeping in-flight reader
        increments.  Returns the cleared words as ``(lock_idx, owner)``
        pairs and the retired rings' names.  A call naming nobody dead (the
        orphan sweep's) clears nothing and returns ``holders`` too: the
        listed write-locked words' distinct ``(uid, epoch)`` pairs, and the
        running drain loops' names.
        """
        owners, clients = request["owners"], set(request["clients"])
        holders = None if owners or clients else set()
        yield from self.node.cpu_work()
        procs, retired = self.drain.retire(clients)
        for proc in procs:
            if proc.is_alive:
                yield proc
        if "writes" in request:
            yield from self._handle_txn_apply(request)
        cleared = []
        for lock_idx in request.get("lock_idxs", ()):
            with (yield self.node.endpoint.atomic_gate):
                word = self.lock_mr.read_u64(lock_idx * 8)
                if not lock_is_write_locked(word):
                    continue
                owner, epoch = lock_owner(word), lock_epoch(word)
                if holders is not None:
                    holders.add((owner, epoch))
                    continue
                fenced = owners.get(owner, -1)
                if fenced is not None and epoch > fenced:
                    continue
                new = word - write_lock_word(owner, epoch)
                yield from self.lock_mr.write(lock_idx * 8,
                                              new.to_bytes(8, "little"))
            cleared.append((lock_idx, owner))
        reply = {"cleared": cleared, "retired": retired}
        if holders is not None:
            reply["holders"] = sorted(holders), sorted(
                name for name, ring in self.drain.rings.items()
                if ring.proc.is_alive)
        return reply

    # ------------------------------------------------------------------
    # Deterministic apply: committed transactions and drained frames
    # ------------------------------------------------------------------
    def _handle_txn_apply(self, request: dict) -> Generator[Any, Any, int]:
        """Apply a committed write-set fragment through the drain's own
        :meth:`_apply`: a live commit's, or a roll-forward's.

        Idempotent by construction — the payload bytes are absolute, so a
        zombie client and the recovering master both applying the same
        intent converge on the same final state.
        """
        yield from self.node.cpu_work()
        for gaddr, obj_offset, payload in request["writes"]:
            if server_of(gaddr) != self.server_id:
                raise ServerError(
                    f"txn_apply for {gaddr:#x} routed to wrong server "
                    f"{self.server_id}")
            yield from self._apply(gaddr, obj_offset, bytes(payload))
            self.txn_applied.add()
        return len(request["writes"])

    def _apply(self, gaddr: int, obj_offset: int,
               payload: bytes) -> Generator[Any, Any, None]:
        """Write ``payload`` at ``obj_offset`` of ``gaddr``: the one path
        into NVM for drained frames and committed transactions alike.

        The bytes persist to the NVM home first, then — atomically with the
        write's completion — the object's applied sequence is bumped and a
        *fresh* cache lookup taken.  The ordering closes the promotion race
        both ways: a promote copy that missed these bytes either sees the
        bump (and redoes its copy) or published its entry before this
        lookup (and the bytes land in the slot here).
        """
        yield from self.data_device.write(offset_of(gaddr) + obj_offset, payload)
        self._applied_seq[gaddr] += 1
        entry = self.cached.get(gaddr)
        if entry is not None and obj_offset + len(payload) <= entry.size:
            yield from self.cache_mr.write(
                entry.cache_offset + CACHE_TAG_BYTES + obj_offset, payload)

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Fail the server process, as a machine power cycle: the DRAM
        cache, the proxy rings (staged-but-undrained writes too) and the
        lock table vanish; what reached NVM (all a client ``gsync``'ed)
        survives.  Verbs targeting this node complete ``RETRY_EXCEEDED``.
        """
        if not self.node.endpoint.alive:
            return
        self.node.endpoint.alive = False
        self.crashes += 1
        # DRAM is gone: invalidate every cached slot's tag.
        for entry in self.cached.values():
            self.cache_mr.poke(entry.cache_offset,
                               bytes(CACHE_TAG_BYTES + entry.size))
        self.cached.clear()
        if self.cache_alloc is not None:
            self.cache_alloc = ExtentAllocator(self.config.cache_capacity)
        # The rings lived in DRAM too, with any staged-but-undrained writes.
        self.drain.crash()
        # The lock table lived in DRAM: every lock is implicitly released.
        self.lock_mr.poke(0, bytes(self.lock_mr.length))
        # Wait-die stamps lived in DRAM too; zero = "holder unknown", which
        # contenders resolve to the safe verdict (wait).
        self.stamp_mr.poke(0, bytes(self.stamp_mr.length))
        self.intents.reset()
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

    @property
    def is_alive(self) -> bool:
        return self.node.endpoint.alive

    # ------------------------------------------------------------------
    @property
    def cache_used_bytes(self) -> int:
        """Bytes currently allocated in the DRAM cache (tags included)."""
        return self.cache_alloc.allocated_bytes if self.cache_alloc else 0
