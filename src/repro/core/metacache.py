"""What a client knows of object metadata: one map of learned entries, each
devalued at once by a bump of its server's epoch, the lookup that fills it,
and the master's location log that keeps its cache locations current
(PROTOCOLS §3.5)."""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Any, Dict, Generator, Optional

from repro.core.errors import FatalError
from repro.core.protocol import ObjectMeta

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.client import GengarClient


def check_bounds(meta: ObjectMeta, offset: int, length: int) -> None:
    if offset < 0 or length < 0 or offset + length > meta.size:
        raise FatalError(
            f"access [{offset}, {offset + length}) outside object "
            f"{meta.gaddr:#x} of size {meta.size}"
        )


class MetaCache:
    """One client's metadata cache; the only code that writes its map or a
    server's epoch.  A kill forgets it whole."""

    __slots__ = ("client", "enabled", "_by_gaddr", "_srv_epochs", "cursors",
                 "_sizes")

    def __init__(self, client: "GengarClient"):
        self.client = client
        #: With ``metadata_cache`` off nothing is kept: every use looks up.
        self.enabled = client.config.metadata_cache
        #: gaddr -> (meta, the epoch of its server it was learned under).
        #: Bumping a server's epoch (:meth:`devalue`) devalues every entry
        #: for that server in O(1) instead of scanning the map.
        self._by_gaddr: Dict[int, tuple] = {}
        self._srv_epochs: Dict[int, int] = defaultdict(int)
        #: Per-shard cursor into the master's location log: the next report
        #: to a shard brings every cache-location change it made since.
        self.cursors: Dict[int, int] = {}
        #: The object sizes the last two lookups returned, older first.
        self._sizes = (None, None)

    def __len__(self) -> int:
        return len(self._by_gaddr)

    def get(self, gaddr: int) -> Optional[ObjectMeta]:
        """Hot-key fast path: a valid hit costs one dict probe and no
        generator machinery.  Returns None on miss or stale epoch."""
        entry = self._by_gaddr.get(gaddr)
        if entry is not None and entry[1] == self._srv_epochs[entry[0].server_id]:
            return entry[0]
        return None

    @property
    def agreed_size(self) -> Optional[int]:
        """The object size the last two lookups agreed on, else None: the
        span a metadata miss's READ-ahead reads when its caller names none.
        One lookup is not enough to go on where sizes are mixed."""
        older, last = self._sizes
        return last if older == last else None

    def store(self, meta: ObjectMeta) -> None:
        if self.enabled:
            self._by_gaddr[meta.gaddr] = (meta,
                                          self._srv_epochs[meta.server_id])

    def drop(self, gaddr: int) -> None:
        self._by_gaddr.pop(gaddr, None)

    def lookup(self, gaddr: int,
               span_op: int = 0) -> Generator[Any, Any, ObjectMeta]:
        """``gaddr``'s metadata: the cached entry, else the owning master
        shard's answer, which is kept.  An address the directory does not
        hold is a :class:`FatalError` that keeps the master's message, as
        every refusal of the master is (``_MasterShard.call``)."""
        meta = self.get(gaddr)
        if meta is not None:
            return meta
        client = self.client
        rec = client.sim.spans
        t0 = client.sim.now if rec is not None else 0
        meta = yield from client._shards[client._resolve_shard(gaddr)].call(
            "lookup", {"gaddr": gaddr})
        client.m_lookups.add()
        self._sizes = (self._sizes[1], meta.size)
        if rec is not None:
            rec.record(client.name, "phase.meta_lookup", t0, op=span_op,
                       gaddr=hex(gaddr))
        self.store(meta)
        return meta

    def devalue(self, server_ids) -> None:
        """The epoch bump: every entry on ``server_ids`` reads as a miss and
        is re-learned at its next use."""
        for sid in server_ids:
            self._srv_epochs[sid] += 1

    def resync(self, server_ids) -> None:
        """Forget every cached location on ``server_ids`` whose location
        log history is unknowable (:meth:`devalue`, counted)."""
        self.client.m_location_resyncs.add()
        self.devalue(server_ids)

    def apply(self, shard: int, reply: dict) -> None:
        """Fold one report reply's location changes into the map (only
        entries we hold) and move the shard's cursor."""
        client = self.client
        updates = reply["updates"]
        if updates is None:
            # The cursor fell off the log or names another incarnation of
            # the shard's master: what it missed is unknowable.
            self.resync([sid for sid in client._conns
                         if client._server_shard(sid) == shard])
        else:
            for gaddr, cached, cache_offset in updates:
                meta = self.get(gaddr)
                if meta is not None and (meta.cached != cached
                                         or meta.cache_offset != cache_offset):
                    self.store(meta.with_cache(cached, cache_offset))
                    client.m_location_updates.add()
        self.cursors[shard] = reply["cursor"]
