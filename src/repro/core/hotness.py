"""Hot-data identification from RDMA access semantics.

Gengar's insight: because clients access the pool exclusively through RDMA
verbs issued by the client library, the library can *classify and count*
accesses for free — each one-sided READ/WRITE it posts is also a perfect
access record, with no server-side instrumentation.  Clients batch these
counts and piggyback them to the master; the master keeps an exponentially
decayed score per object and periodically plans promotions into the home
server's DRAM buffer, evicting a colder cached object only when a hotter
one needs its room.

The policies are pure (no simulation dependencies) so they can be tested
exhaustively and swapped in benchmarks (E8 compares them against
LRU/LFU/random placement); :class:`Planner` runs them for a master.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional, Tuple

from repro.core.protocol import CACHE_TAG_BYTES
from repro.rdma.rpc import RpcError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.master import Master


@dataclass(slots=True)
class ObjectStats:
    """Per-object access statistics at the master.

    Slotted: the master holds one of these per live object and the planner
    walks all of them every epoch, so the per-instance dict is pure
    overhead (64 bytes/object on CPython 3.11, against 56 plus a 280-byte
    ``__dict__``; attribute access is at parity).
    """

    gaddr: int
    size: int
    score: float = 0.0
    cached: bool = False


@dataclass(frozen=True)
class PlacementPlan:
    """One epoch's cache-change decisions."""

    promotions: Tuple[int, ...]  # gaddrs to copy into DRAM
    demotions: Tuple[int, ...]  # gaddrs to drop from DRAM

    @property
    def is_noop(self) -> bool:
        return not self.promotions and not self.demotions


class EpochDecayPolicy:
    """Gengar's policy: decayed access frequency, evicting only for room.

    At each :meth:`plan`, every score is multiplied by ``decay`` and the
    epoch's accesses are added.  Objects at or above ``promote_threshold``
    are promoted hottest-first while DRAM capacity lasts.  A cached object
    leaves DRAM only when a candidate that needs its room is strictly
    hotter; the coldest goes first, and ties never churn.  A cooled object
    in a cache with room stays cached.
    """

    def __init__(self, decay: float = 0.5, promote_threshold: float = 4.0):
        if not 0.0 <= decay <= 1.0:
            raise ValueError("decay must be in [0, 1]")
        self.decay = decay
        self.promote_threshold = promote_threshold
        self._stats: Dict[int, ObjectStats] = {}
        #: Accesses reported since the last plan, per object.
        self._epoch_counts: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def track(self, gaddr: int, size: int) -> None:
        """Start tracking a newly allocated object."""
        self._stats.setdefault(gaddr, ObjectStats(gaddr=gaddr, size=size))

    def record(self, gaddr: int, reads: int, writes: int) -> None:
        """Fold a client's epoch report for one object."""
        if gaddr not in self._stats:
            return  # freed (or never tracked): stale report, drop it
        self._epoch_counts[gaddr] = self._epoch_counts.get(gaddr, 0) + reads + writes

    def record_batch(self, entries: List[Tuple[int, int, int]]) -> None:
        """Fold many ``(gaddr, reads, writes)`` entries in one flush.

        Equivalent to calling :meth:`record` per entry in order; batched so
        the per-call overhead is paid once per report, not once per object.
        """
        stats = self._stats
        counts = self._epoch_counts
        get = counts.get
        for gaddr, reads, writes in entries:
            if gaddr in stats:
                counts[gaddr] = get(gaddr, 0) + reads + writes

    def on_freed(self, gaddr: int) -> None:
        self._stats.pop(gaddr, None)
        self._epoch_counts.pop(gaddr, None)

    def on_promoted(self, gaddr: int) -> None:
        stats = self._stats.get(gaddr)
        if stats:
            stats.cached = True

    def on_demoted(self, gaddr: int) -> None:
        stats = self._stats.get(gaddr)
        if stats:
            stats.cached = False

    def stats_for(self, gaddr: int) -> Optional[ObjectStats]:
        return self._stats.get(gaddr)

    def hot_bytes(self) -> int:
        """Bytes this policy would promote if capacity allowed: the total
        size of uncached objects at or above the promote threshold.  Feeds
        the cross-shard DRAM-budget aggregation (a demand signal, so it
        deliberately ignores capacity)."""
        return sum(s.size for s in self._stats.values()
                   if not s.cached and s.score >= self.promote_threshold)

    # ------------------------------------------------------------------
    def plan(self, capacity: int, used: int) -> PlacementPlan:
        """Advance one epoch: promote hot objects, evicting for room.

        Args:
            capacity: DRAM cache bytes available (per the planner's scope).
            used: bytes currently occupied by cached objects.
        """
        # Fold the epoch's counts into decayed scores.
        counts = self._epoch_counts
        for stats in self._stats.values():
            stats.score = stats.score * self.decay + counts.get(stats.gaddr, 0)
        counts.clear()

        # Hot uncached candidates, hottest first.
        candidates = sorted(
            (
                s
                for s in self._stats.values()
                if not s.cached and s.score >= self.promote_threshold
            ),
            key=lambda s: (-s.score, s.gaddr),
        )
        cached = sorted(
            (s for s in self._stats.values() if s.cached),
            key=lambda s: (s.score, s.gaddr),
        )

        promotions: List[int] = []
        demotions: List[int] = []
        for cand in candidates:
            if cand.size > capacity:
                continue  # can never fit
            while used + cand.size > capacity and cached:
                coldest = cached[0]
                if coldest.score >= cand.score:
                    break  # nothing colder to evict; stop churn
                cached.pop(0)
                demotions.append(coldest.gaddr)
                used -= coldest.size
            if used + cand.size <= capacity:
                promotions.append(cand.gaddr)
                used += cand.size

        return PlacementPlan(promotions=tuple(promotions), demotions=tuple(demotions))


class _Comparator:
    """What the E8 comparators share: each tracked object's size and the
    set of cached objects."""

    def __init__(self):
        self._sizes: Dict[int, int] = {}
        self._cached: set[int] = set()

    def track(self, gaddr: int, size: int) -> None:
        self._sizes.setdefault(gaddr, size)

    def on_promoted(self, gaddr: int) -> None:
        self._cached.add(gaddr)

    def on_demoted(self, gaddr: int) -> None:
        self._cached.discard(gaddr)


class LruPolicy(_Comparator):
    """Comparator for E8: classic LRU over a fixed capacity.

    ``record`` is the touch; ``plan`` promotes the most recently used
    uncached objects and evicts least-recently-used cached ones to fit.
    """

    def __init__(self):
        super().__init__()
        self._clock = 0
        self._last_touch: Dict[int, int] = {}

    def record(self, gaddr: int, reads: int, writes: int) -> None:
        if gaddr not in self._sizes:
            return
        self._clock += 1
        self._last_touch[gaddr] = self._clock

    def record_batch(self, entries: List[Tuple[int, int, int]]) -> None:
        """Touch many objects in order (clock ticks once per entry)."""
        sizes = self._sizes
        touch = self._last_touch
        clock = self._clock
        for gaddr, _reads, _writes in entries:
            if gaddr in sizes:
                clock += 1
                touch[gaddr] = clock
        self._clock = clock

    def on_freed(self, gaddr: int) -> None:
        self._cached.discard(gaddr)
        self._last_touch.pop(gaddr, None)
        self._sizes.pop(gaddr, None)

    def plan(self, capacity: int, used: int) -> PlacementPlan:
        recency = sorted(
            self._last_touch.items(), key=lambda kv: (-kv[1], kv[0])
        )
        promotions: List[int] = []
        demotions: List[int] = []
        cached_by_age = sorted(
            (g for g in self._cached), key=lambda g: (self._last_touch.get(g, 0), g)
        )
        for gaddr, _touch in recency:
            if gaddr in self._cached:
                continue
            size = self._sizes[gaddr]
            if size > capacity:
                continue  # can never fit
            while used + size > capacity and cached_by_age:
                # Peek-then-pop, like the other policies: a victim too
                # recent to evict for THIS candidate must stay in the pool
                # (popping it first silently excluded it — and aborting the
                # whole plan handicapped LRU against smaller, still-placeable
                # candidates later in the recency order).
                victim = cached_by_age[0]
                if self._last_touch.get(victim, 0) >= self._last_touch.get(gaddr, 0):
                    break
                cached_by_age.pop(0)
                demotions.append(victim)
                used -= self._sizes[victim]
            if used + size <= capacity:
                promotions.append(gaddr)
                used += size
        return PlacementPlan(promotions=tuple(promotions), demotions=tuple(demotions))


class LfuPolicy(_Comparator):
    """Comparator for E8: undecayed lifetime frequency (classic LFU)."""

    def __init__(self, promote_threshold: float = 4.0):
        super().__init__()
        self.promote_threshold = promote_threshold
        self._counts: Dict[int, int] = {}

    def track(self, gaddr: int, size: int) -> None:
        self._sizes.setdefault(gaddr, size)
        self._counts.setdefault(gaddr, 0)

    def record(self, gaddr: int, reads: int, writes: int) -> None:
        if gaddr in self._counts:
            self._counts[gaddr] += reads + writes

    def record_batch(self, entries: List[Tuple[int, int, int]]) -> None:
        counts = self._counts
        for gaddr, reads, writes in entries:
            if gaddr in counts:
                counts[gaddr] += reads + writes

    def on_freed(self, gaddr: int) -> None:
        self._cached.discard(gaddr)
        self._counts.pop(gaddr, None)
        self._sizes.pop(gaddr, None)

    def plan(self, capacity: int, used: int) -> PlacementPlan:
        promotions: List[int] = []
        demotions: List[int] = []
        hot = sorted(
            ((g, c) for g, c in self._counts.items()
             if g not in self._cached and c >= self.promote_threshold),
            key=lambda kv: (-kv[1], kv[0]),
        )
        cold_cached = sorted(
            ((g, self._counts.get(g, 0)) for g in self._cached),
            key=lambda kv: (kv[1], kv[0]),
        )
        for gaddr, count in hot:
            size = self._sizes[gaddr]
            while used + size > capacity and cold_cached:
                victim, vcount = cold_cached[0]
                if vcount >= count:
                    break
                cold_cached.pop(0)
                demotions.append(victim)
                used -= self._sizes[victim]
            if used + size <= capacity:
                promotions.append(gaddr)
                used += size
        return PlacementPlan(promotions=tuple(promotions), demotions=tuple(demotions))


class RandomPolicy(_Comparator):
    """Comparator for E8: cache a random admissible subset each epoch."""

    def __init__(self, rng, churn: int = 4):
        super().__init__()
        self._rng = rng
        self.churn = churn
        self._seen: set[int] = set()

    def record(self, gaddr: int, reads: int, writes: int) -> None:
        if gaddr in self._sizes:
            self._seen.add(gaddr)

    def record_batch(self, entries: List[Tuple[int, int, int]]) -> None:
        sizes = self._sizes
        seen = self._seen
        for gaddr, _reads, _writes in entries:
            if gaddr in sizes:
                seen.add(gaddr)

    def on_freed(self, gaddr: int) -> None:
        self._cached.discard(gaddr)
        self._sizes.pop(gaddr, None)
        self._seen.discard(gaddr)

    def plan(self, capacity: int, used: int) -> PlacementPlan:
        promotions: List[int] = []
        demotions: List[int] = []
        candidates = sorted(self._seen - self._cached)
        self._rng.shuffle(candidates)
        for gaddr in candidates[: self.churn]:
            size = self._sizes[gaddr]
            if used + size <= capacity:
                promotions.append(gaddr)
                used += size
        return PlacementPlan(promotions=tuple(promotions), demotions=tuple(demotions))


class NeverCachePolicy:
    """Comparator for E8 and the cache-off ablation: caches nothing."""

    def track(self, gaddr: int, size: int) -> None:
        pass

    def record(self, gaddr: int, reads: int, writes: int) -> None:
        pass

    def record_batch(self, entries: List[Tuple[int, int, int]]) -> None:
        pass

    def on_promoted(self, gaddr: int) -> None:
        pass

    def on_demoted(self, gaddr: int) -> None:
        pass

    def on_freed(self, gaddr: int) -> None:
        pass

    def plan(self, capacity: int, used: int) -> PlacementPlan:
        return PlacementPlan(promotions=(), demotions=())


class Planner:
    """A master shard's placement: each epoch every owned server's policy
    plans against its budget, and only the planner promotes and demotes
    (shard 0 also splits the pool's DRAM budget across the shards)."""

    __slots__ = ("master", "started")

    def __init__(self, master: "Master"):
        self.master = master
        self.started = False

    def start(self) -> None:
        """Launch the periodic planner (and, on shard 0 of a multi-shard
        pool, the cross-shard hotness aggregator)."""
        m = self.master
        if not self.started and m.config.enable_cache:
            self.started = True
            m.sim.spawn(self._planner_loop(), name=f"{m.node.name}.planner")
            if m.num_shards > 1 and m.shard_id == 0 and m._peer_shards:
                m.sim.spawn(self._aggregation_loop(),
                            name=f"{m.node.name}.aggregation")

    def _planner_loop(self) -> Generator[Any, Any, None]:
        while True:
            yield self.master.config.epoch_ns
            if self.master._recovering:
                continue
            for sid in sorted(self.master._servers):
                yield from self._plan_server(sid)

    def _plan_server(self, sid: int) -> Generator[Any, Any, None]:
        m = self.master
        handle = m._servers[sid]
        # The aggregator's budget (when sharded) caps this server below its
        # nominal capacity so the pool-wide DRAM budget stays coherent; a
        # server nobody aggregated for keeps the full capacity.
        budget = m.config.cache_capacity if handle.budget is None else handle.budget
        # Account the per-slot tag overhead against capacity so the server's
        # slot allocator cannot be overcommitted by the plan: one tag per
        # cached object plus a small margin for this epoch's promotions.
        cached = sum(1 for r in m.directory.on_server(sid) if r.cached)
        tags = (cached + 16) * CACHE_TAG_BYTES * 4
        plan = handle.policy.plan(capacity=max(0, budget - tags),
                                  used=m.directory.cached_bytes(sid))
        if plan.is_noop:
            return
        rec = m.sim.spans
        t0 = m.sim.now if rec is not None else 0
        for gaddr in plan.demotions:
            record = m.directory.lookup(gaddr)
            if record is not None and record.pinned:
                continue  # pinned objects are exempt from planner demotion
            yield from self.demote(gaddr)
        for gaddr in plan.promotions:
            yield from self.promote(gaddr)
        if rec is not None:
            rec.record(m.node.name, "master.plan_epoch", t0, server=sid,
                       promotions=len(plan.promotions),
                       demotions=len(plan.demotions))

    def promote(self, gaddr: int) -> Generator[Any, Any, None]:
        m = self.master
        record = m.directory.lookup(gaddr)
        if record is None or record.cached:
            return
        handle = m._servers[record.server_id]
        try:
            cache_offset = yield from handle.rpc.call(
                "promote", {"gaddr": gaddr, "size": record.size})
        except RpcError:
            return  # server-side allocation failed (fragmentation); skip
        record = m.directory.lookup(gaddr)
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
        m.directory.mark_cached(gaddr, cache_offset)
        handle.policy.on_promoted(gaddr)
        m.promote_ops.add()

    def demote(self, gaddr: int) -> Generator[Any, Any, None]:
        m = self.master
        record = m.directory.lookup(gaddr)
        if record is None or not record.cached:
            return
        handle = m._servers[record.server_id]
        try:
            yield from handle.rpc.call("demote", {"gaddr": gaddr})
        except RpcError:
            return
        m.directory.mark_uncached(gaddr)
        handle.policy.on_demoted(gaddr)
        m.demote_ops.add()

    # ------------------------------------------------------------------
    # Cross-shard budgets
    # ------------------------------------------------------------------
    def demand(self, sid: int) -> int:
        """Bytes this server's working set wants in DRAM: what is cached
        now plus what the policy would promote if capacity allowed."""
        hot = getattr(self.master._servers[sid].policy, "hot_bytes", None)
        return self.master.directory.cached_bytes(sid) + (hot() if hot else 0)

    def set_budgets(self, request: dict) -> bool:
        """Adopt the aggregator's per-server DRAM ``budgets`` (advisory;
        the ``set_budget`` handler)."""
        for sid, budget in request["budgets"].items():
            handle = self.master._servers.get(sid)
            if handle is not None:
                handle.budget = budget
        return True

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
        m = self.master
        while True:
            yield m.config.epoch_ns
            if m._recovering or m.journal.deposed:
                continue
            demand: Dict[int, int] = {sid: self.demand(sid)
                                      for sid in m._servers}
            reached: List[int] = []
            for shard in sorted(m._peer_shards):
                try:
                    stats = yield from m._peer_shards[shard].call(
                        "shard_stats", {})
                except RpcError:
                    continue  # shard down/mid-failover: keeps last budgets
                demand.update(stats["demand"])
                reached.append(shard)
            budgets = self._split_budget(demand)
            self.set_budgets({"budgets": budgets})
            for shard in reached:
                share = {sid: b for sid, b in budgets.items()
                         if m.shard_map.get(sid, sid % m.num_shards) == shard}
                try:
                    yield from m._peer_shards[shard].call(
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
        cap = self.master.config.cache_capacity
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
