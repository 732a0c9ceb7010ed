"""Master-side object directory.

One record per live object: where it lives in NVM, whether a DRAM-cached
copy exists and where, and which lock word guards it.  The directory is the
single source of truth; clients hold cached :class:`ObjectMeta` snapshots
that they re-validate through self-verifying cache reads.  It logs its
cache-location changes for the clients' ``report`` cursors; the
:class:`Journal` makes it durable in the servers' NVM under the master's
term.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Generator, Iterable, List, Optional, Tuple

from repro.core.addressing import make_gaddr
from repro.core.errors import MasterError
from repro.core.protocol import (JOURNAL_OP_TERM, JOURNAL_PAGE_RECORDS,
                                 LOCATION_REPLY_UPDATES, ObjectMeta)
from repro.rdma.rpc import RpcError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.allocator import ServerHandle
    from repro.core.master import Master
    from repro.sim.stats import Counter

#: Cache-location changes a shard keeps for its clients' ``report`` cursors
#: (PROTOCOLS §3.5); a cursor older than the oldest one kept resyncs.
LOCATION_LOG_ENTRIES = 4096


class DirectoryError(Exception):
    """Unknown object or inconsistent directory operation."""


@dataclass
class ObjectRecord:
    """Mutable master-side state of one object."""

    gaddr: int
    size: int
    server_id: int
    nvm_offset: int
    lock_idx: int
    cached: bool = False
    cache_offset: int = 0
    #: Pinned objects stay in DRAM regardless of observed hotness.
    pinned: bool = False
    #: Which client asked for the pin (None for operator pins); lease
    #: expiry releases exactly the pins attributed to the dead client.
    pinned_by: Optional[str] = None
    #: Memoized ObjectMeta snapshot; ObjectMeta is frozen, so sharing one
    #: instance across lookups is safe.  Cleared whenever a field that
    #: feeds the snapshot changes (see mark_cached/mark_uncached).
    _meta_snapshot: Optional[ObjectMeta] = field(
        default=None, repr=False, compare=False)

    def to_meta(self) -> ObjectMeta:
        meta = self._meta_snapshot
        if meta is None:
            meta = self._meta_snapshot = ObjectMeta(
                gaddr=self.gaddr,
                size=self.size,
                server_id=self.server_id,
                nvm_offset=self.nvm_offset,
                lock_idx=self.lock_idx,
                cached=self.cached,
                cache_offset=self.cache_offset,
            )
        return meta


class Directory:
    """The master's object table, by gaddr and by home server, and the
    shard's location log: the only code that appends to the log."""

    def __init__(self, logs: "Counter"):
        self._objects: Dict[int, ObjectRecord] = {}
        #: server_id -> gaddr -> record, each server's in insertion order.
        self._by_server: Dict[int, Dict[int, ObjectRecord]] = defaultdict(dict)
        self._cached_bytes: Dict[int, int] = defaultdict(int)  # sid -> bytes cached
        #: The gaddr of every cache-location change, oldest first; entry
        #: ``i`` has sequence number ``head - len(_loc_log) + i``.  A
        #: sequence number carries its log's incarnation in the high bits
        #: (``logs`` counts the logs started pool-wide), so a cursor into
        #: another log — a restarted master's old one, the incumbent a
        #: standby replaced — lies outside this one and resyncs.
        logs.add()
        self._loc_log: deque = deque(maxlen=LOCATION_LOG_ENTRIES)
        self.head = logs.count << 32

    # ------------------------------------------------------------------
    def add(self, server_id: int, nvm_offset: int, size: int, lock_idx: int) -> ObjectRecord:
        """Register a newly allocated object; returns its record."""
        gaddr = make_gaddr(server_id, nvm_offset)
        if gaddr in self._objects:
            raise DirectoryError(f"object {gaddr:#x} already exists")
        record = ObjectRecord(
            gaddr=gaddr, size=size, server_id=server_id,
            nvm_offset=nvm_offset, lock_idx=lock_idx,
        )
        self._objects[gaddr] = self._by_server[server_id][gaddr] = record
        return record

    def remove(self, gaddr: int) -> ObjectRecord:
        """Drop an object (gfree); returns the final record."""
        record = self._objects.pop(gaddr, None)
        if record is None:
            raise DirectoryError(f"unknown object {gaddr:#x}")
        del self._by_server[record.server_id][gaddr]
        if record.cached:
            self._cached_bytes[record.server_id] -= record.size
        return record

    def get(self, gaddr: int) -> ObjectRecord:
        record = self._objects.get(gaddr)
        if record is None:
            raise DirectoryError(f"unknown object {gaddr:#x}")
        return record

    def lookup(self, gaddr: int) -> Optional[ObjectRecord]:
        """Like :meth:`get` but returns None for unknown objects."""
        return self._objects.get(gaddr)

    def __contains__(self, gaddr: int) -> bool:
        return gaddr in self._objects

    def __len__(self) -> int:
        return len(self._objects)

    def objects(self) -> Iterable[ObjectRecord]:
        return self._objects.values()

    def on_server(self, server_id: int) -> Iterable[ObjectRecord]:
        """The records homed on ``server_id``, in insertion order."""
        return self._by_server[server_id].values()

    def server_ids(self) -> List[int]:
        """Every server some record is homed on."""
        return [sid for sid, records in self._by_server.items() if records]

    # ------------------------------------------------------------------
    def mark_cached(self, gaddr: int, cache_offset: int) -> None:
        record = self.get(gaddr)
        if record.cached:
            raise DirectoryError(f"object {gaddr:#x} already cached")
        record.cached = True
        record.cache_offset = cache_offset
        record._meta_snapshot = None
        self._cached_bytes[record.server_id] += record.size
        self._log(gaddr)

    def mark_uncached(self, gaddr: int) -> None:
        record = self.get(gaddr)
        if not record.cached:
            raise DirectoryError(f"object {gaddr:#x} is not cached")
        record.cached = False
        record.cache_offset = 0
        record._meta_snapshot = None
        self._cached_bytes[record.server_id] -= record.size
        self._log(gaddr)

    def cached_bytes(self, server_id: int) -> int:
        """Bytes of objects currently cached on ``server_id``."""
        return self._cached_bytes.get(server_id, 0)

    # ------------------------------------------------------------------
    def _log(self, gaddr: int) -> None:
        self._loc_log.append(gaddr)
        self.head += 1

    def changes(self, cursor: int) -> dict:
        """``{"updates", "cursor"}`` for a report presenting ``cursor``: the
        current location of every object whose location changed since it
        (deduplicated, at most :data:`LOCATION_REPLY_UPDATES`) and the
        cursor past them.  A cursor outside the log (older than its oldest
        entry, or from another incarnation) gets ``updates: None`` — resync
        — and the log's head."""
        log = self._loc_log
        kept = len(log)
        unseen = self.head - cursor
        if not 0 <= unseen <= kept:
            return {"updates": None, "cursor": self.head}
        updates: List[Tuple[int, bool, int]] = []
        seen: set = set()
        for i in range(kept - unseen, kept):
            gaddr = log[i]
            if gaddr not in seen:
                if len(seen) == LOCATION_REPLY_UPDATES:
                    break  # the rest rides the next report
                seen.add(gaddr)
                record = self._objects.get(gaddr)
                if record is not None:
                    updates.append((gaddr, record.cached, record.cache_offset))
            cursor += 1
        return {"updates": updates, "cursor": cursor}

    # ------------------------------------------------------------------
    def take_server(self, server_id: int) -> list:
        """Remove and return every record homed on ``server_id``.

        Reshard export: the records leave with their cached/pinned state
        intact (the adopting directory re-accounts and logs them), and this
        directory's cached-bytes ledger for the server drops to zero.
        """
        taken = list(self._by_server.pop(server_id, {}).values())
        for record in taken:
            del self._objects[record.gaddr]
        self._cached_bytes.pop(server_id, None)
        return taken

    def adopt(self, record: ObjectRecord) -> None:
        """Insert a record exported by another directory, preserving its
        cached-bytes accounting (reshard adoption), and log it."""
        if record.gaddr in self._objects:
            raise DirectoryError(f"object {record.gaddr:#x} already exists")
        self._objects[record.gaddr] = record
        self._by_server[record.server_id][record.gaddr] = record
        if record.cached:
            self._cached_bytes[record.server_id] += record.size
        self._log(record.gaddr)


def entry(op: int, gaddr: int, size: int = 0, lock_idx: int = 0,
          req_id: int = 0) -> dict:
    """One journal record; FENCE carries a uid and its epoch floor in
    ``gaddr`` and ``size``, TERM a term in ``gaddr``."""
    return {"op": op, "lock_idx": lock_idx, "gaddr": gaddr, "size": size,
            "req_id": req_id}


class Journal:
    """One master incarnation's journal and term; the only code that
    claims, checks or loses the term.  A restart replaces the object."""

    __slots__ = ("master", "term", "deposed", "term_max")

    def __init__(self, master: "Master", term: int):
        self.master = master
        #: Control-plane generation (split-brain fencing).  0 with the journal
        #: off; a serving master's replies and journal appends all carry it.
        self.term = term
        #: Set once a server rejects our term — a successor claimed a higher
        #: one.  A deposed master fails every control RPC typed until it is
        #: restarted (recover + recovery_process claims a fresh term).
        self.deposed = False
        #: Highest TERM record this incarnation has read in any journal.
        self.term_max = 0

    def superseded(self) -> MasterError:
        return MasterError(f"master deposed: term {self.term} superseded")

    def floor(self, term: int) -> None:
        """Serve at least at ``term``, an exporter's (reshard adoption): a
        journal rejects appends below the max term it has seen."""
        self.term = max(self.term, term)

    def call(self, handle: "ServerHandle", method: str,
             payload: dict) -> Generator[Any, Any, Any]:
        """A master→server call that changes NVM (journal append, scrub),
        carrying our term when the journal is on.  A server that already
        saw a higher term rejects it — the moment a partitioned master
        learns it has been deposed.  Journaling before acking turns that into
        write-path fencing: a stale master cannot ack a single allocation,
        because the ack depends on exactly the append that just failed."""
        master = self.master
        if master.config.metadata_journal:
            payload["term"] = self.term
        try:
            result = yield from handle.rpc.call(method, payload)
        except RpcError as exc:
            if "stale master term" in str(exc):
                self.deposed = True
                master.depositions.add()
                master._event("term", method.replace("_", " ") +
                              " rejected: deposed", term=self.term)
                raise self.superseded() from exc
            raise
        return result

    def read(self, handle: "ServerHandle") -> Generator[Any, Any, list]:
        """Every record of one server's journal, a ``journal_read`` page at
        a time; a short page is the last.  The first page's request is
        ``{}``, so a journal that fits one page costs one plain call.  Term
        claims interleave with the other records: :attr:`term_max` rises to
        each, and a successor's claim (journal max + 1) supersedes them."""
        records: list = []
        while True:
            page = yield from handle.rpc.call(
                "journal_read", {"start": len(records)} if records else {})
            records += page
            if len(page) < JOURNAL_PAGE_RECORDS:
                for rec in records:
                    if rec["op"] == JOURNAL_OP_TERM:
                        self.term_max = max(self.term_max, rec["gaddr"])
                return records

    def validate(self) -> Generator[Any, Any, bool]:
        """Ask the journal whether this master's term still rules.

        Appends a no-op TERM record at our own term; a server that saw a
        successor's higher term rejects it, which :meth:`call` turns into
        deposition + :class:`MasterError`.  Returns True when the journal
        accepted (authority confirmed), False when it was unreachable
        (authority unknown — act on nothing).
        """
        m = self.master
        try:
            yield from self.call(m._servers[min(m._servers)], "journal_append",
                                 entry(JOURNAL_OP_TERM, self.term))
        except RpcError as exc:
            if "journal full" not in str(exc):
                return False  # journal unreachable: no verdict either way
            # A full journal still term-checked the append first: confirmed.
        return True

    def claim(self) -> Generator[Any, Any, None]:
        """Persist a term strictly above every journaled one.

        The claim is a TERM record appended to each server's journal.
        Servers adopt the max term they have journaled and reject appends
        below it, so the claim simultaneously (a) makes the new term
        durable and (b) fences every older master out of the write path on
        that server.  A concurrent higher claim surfaces as our own append
        being rejected; we re-read and re-claim above it.  Unreachable
        servers are retried a few times, then skipped — they learn the term
        from the next successor that can reach them (traced, so the audit
        sees the gap).
        """
        m = self.master
        lease_ns = m.config.client_lease_ns
        retry_wait = max(1, lease_ns // 4) if lease_ns else 25_000
        while True:
            self.term = max(self.term, self.term_max) + 1
            pending = sorted(m._servers)
            superseded = False
            for attempt in range(3):
                if attempt:
                    yield retry_wait
                still = []
                for sid in pending:
                    try:
                        yield from m._servers[sid].rpc.call(
                            "journal_append",
                            dict(entry(JOURNAL_OP_TERM, self.term),
                                 term=self.term))
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
                # journal now — re-read every reachable one and go strictly
                # above it.
                self.term_max = self.term
                for sid in sorted(m._servers):
                    try:
                        yield from self.read(m._servers[sid])
                    except RpcError:
                        continue
                continue
            if still:
                m._event("term", "term claim skipped servers", term=self.term,
                         unreachable=still)
            m.term_claims.add()
            self.deposed = False
            m._event("term", "term claimed", term=self.term)
            return
