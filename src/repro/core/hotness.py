"""Hot-data identification from RDMA access semantics.

Gengar's insight: because clients access the pool exclusively through RDMA
verbs issued by the client library, the library can *classify and count*
accesses for free — each one-sided READ/WRITE it posts is also a perfect
access record, with no server-side instrumentation.  Clients batch these
counts and piggyback them to the master; the master keeps an exponentially
decayed score per object and periodically plans promotions into the home
server's DRAM buffer and demotions out of it.

This module is pure policy (no simulation dependencies) so it can be tested
exhaustively and swapped in benchmarks (E8 compares it against LRU/LFU/random
placement).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Tuple


@dataclass(slots=True)
class ObjectStats:
    """Per-object access statistics at the master.

    Slotted: the master holds one of these per live object and the planner
    walks all of them every epoch, so the per-instance dict is pure
    overhead (80 bytes/object against 176 with ``__dict__`` on CPython
    3.11; attribute access is at parity).
    """

    gaddr: int
    size: int
    score: float = 0.0
    reads: int = 0
    writes: int = 0
    cached: bool = False

    @property
    def accesses(self) -> int:
        return self.reads + self.writes


@dataclass(frozen=True)
class PlacementPlan:
    """One epoch's cache-change decisions."""

    promotions: Tuple[int, ...]  # gaddrs to copy into DRAM
    demotions: Tuple[int, ...]  # gaddrs to drop from DRAM

    @property
    def is_noop(self) -> bool:
        return not self.promotions and not self.demotions


class PlacementPolicy(Protocol):
    """Interface all cache-placement policies implement (for E8)."""

    def record(self, gaddr: int, reads: int, writes: int) -> None: ...

    def record_batch(self, entries: List[Tuple[int, int, int]]) -> None: ...

    def plan(self, capacity: int, used: int) -> PlacementPlan: ...

    def on_promoted(self, gaddr: int) -> None: ...

    def on_demoted(self, gaddr: int) -> None: ...

    def on_freed(self, gaddr: int) -> None: ...


class EpochDecayPolicy:
    """Gengar's policy: decayed access frequency with hysteresis.

    At each :meth:`plan`, every score is multiplied by ``decay`` and the
    epoch's counts are folded in.  Objects above ``promote_threshold`` are
    promoted hottest-first while DRAM capacity lasts; cached objects that
    fell below ``demote_threshold`` are demoted.  If the cache is full, a
    promotion may evict the *coldest* cached object, but only when the
    candidate is strictly hotter — so the cache never churns on ties.
    """

    def __init__(
        self,
        decay: float = 0.5,
        promote_threshold: float = 4.0,
        demote_threshold: float = 1.0,
    ):
        if not 0.0 <= decay <= 1.0:
            raise ValueError("decay must be in [0, 1]")
        if demote_threshold > promote_threshold:
            raise ValueError("demote threshold must not exceed promote threshold")
        self.decay = decay
        self.promote_threshold = promote_threshold
        self.demote_threshold = demote_threshold
        self._stats: Dict[int, ObjectStats] = {}
        self._epoch_counts: Dict[int, Tuple[int, int]] = {}

    # ------------------------------------------------------------------
    def track(self, gaddr: int, size: int) -> None:
        """Start tracking a newly allocated object."""
        self._stats.setdefault(gaddr, ObjectStats(gaddr=gaddr, size=size))

    def record(self, gaddr: int, reads: int, writes: int) -> None:
        """Fold a client's epoch report for one object."""
        if gaddr not in self._stats:
            return  # freed (or never tracked): stale report, drop it
        r, w = self._epoch_counts.get(gaddr, (0, 0))
        self._epoch_counts[gaddr] = (r + reads, w + writes)

    def record_batch(self, entries: List[Tuple[int, int, int]]) -> None:
        """Fold many ``(gaddr, reads, writes)`` entries in one flush.

        Equivalent to calling :meth:`record` per entry in order; batched so
        the per-call overhead is paid once per report, not once per object.
        """
        stats = self._stats
        counts = self._epoch_counts
        get = counts.get
        for gaddr, reads, writes in entries:
            if gaddr not in stats:
                continue
            r, w = get(gaddr, (0, 0))
            counts[gaddr] = (r + reads, w + writes)

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
        """Advance one epoch and emit promotion/demotion decisions.

        Args:
            capacity: DRAM cache bytes available (per the planner's scope).
            used: bytes currently occupied by cached objects.
        """
        # Fold the epoch's counts into decayed scores.
        for stats in self._stats.values():
            reads, writes = self._epoch_counts.get(stats.gaddr, (0, 0))
            stats.score = stats.score * self.decay + reads + writes
            stats.reads += reads
            stats.writes += writes
        self._epoch_counts.clear()

        demotions: List[int] = []
        cached = [s for s in self._stats.values() if s.cached]
        for stats in cached:
            if stats.score < self.demote_threshold:
                demotions.append(stats.gaddr)
                used -= stats.size

        # Hot uncached candidates, hottest first.
        candidates = sorted(
            (
                s
                for s in self._stats.values()
                if not s.cached and s.score >= self.promote_threshold
            ),
            key=lambda s: (-s.score, s.gaddr),
        )
        surviving = sorted(
            (s for s in cached if s.gaddr not in set(demotions)),
            key=lambda s: (s.score, s.gaddr),
        )

        promotions: List[int] = []
        for cand in candidates:
            if cand.size > capacity:
                continue  # can never fit
            while used + cand.size > capacity and surviving:
                coldest = surviving[0]
                if coldest.score >= cand.score:
                    break  # nothing colder to evict; stop churn
                surviving.pop(0)
                demotions.append(coldest.gaddr)
                used -= coldest.size
            if used + cand.size <= capacity:
                promotions.append(cand.gaddr)
                used += cand.size

        return PlacementPlan(promotions=tuple(promotions), demotions=tuple(demotions))


class LruPolicy:
    """Comparator for E8: classic LRU over a fixed capacity.

    ``record`` is the touch; ``plan`` promotes the most recently used
    uncached objects and evicts least-recently-used cached ones to fit.
    """

    def __init__(self):
        self._clock = 0
        self._last_touch: Dict[int, int] = {}
        self._sizes: Dict[int, int] = {}
        self._cached: set[int] = set()

    def track(self, gaddr: int, size: int) -> None:
        self._sizes.setdefault(gaddr, size)

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

    def on_promoted(self, gaddr: int) -> None:
        self._cached.add(gaddr)

    def on_demoted(self, gaddr: int) -> None:
        self._cached.discard(gaddr)

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
            if gaddr in self._cached or gaddr in set(promotions):
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


class LfuPolicy:
    """Comparator for E8: undecayed lifetime frequency (classic LFU)."""

    def __init__(self, promote_threshold: float = 4.0):
        self.promote_threshold = promote_threshold
        self._counts: Dict[int, int] = {}
        self._sizes: Dict[int, int] = {}
        self._cached: set[int] = set()

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

    def on_promoted(self, gaddr: int) -> None:
        self._cached.add(gaddr)

    def on_demoted(self, gaddr: int) -> None:
        self._cached.discard(gaddr)

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


class RandomPolicy:
    """Comparator for E8: cache a random admissible subset each epoch."""

    def __init__(self, rng, churn: int = 4):
        self._rng = rng
        self.churn = churn
        self._sizes: Dict[int, int] = {}
        self._cached: set[int] = set()
        self._seen: set[int] = set()

    def track(self, gaddr: int, size: int) -> None:
        self._sizes.setdefault(gaddr, size)

    def record(self, gaddr: int, reads: int, writes: int) -> None:
        if gaddr in self._sizes:
            self._seen.add(gaddr)

    def record_batch(self, entries: List[Tuple[int, int, int]]) -> None:
        sizes = self._sizes
        seen = self._seen
        for gaddr, _reads, _writes in entries:
            if gaddr in sizes:
                seen.add(gaddr)

    def on_promoted(self, gaddr: int) -> None:
        self._cached.add(gaddr)

    def on_demoted(self, gaddr: int) -> None:
        self._cached.discard(gaddr)

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


class AccessPredictor:
    """Client-side prefetch predictor: sequential/stride + Zipf frequency.

    Two complementary signals feed :meth:`predict`:

    * **stride** — two consecutive equal non-zero deltas between successive
      read addresses confirm a stream (sequential scans, strided walks);
      the next ``depth`` continuations are predicted first.  A predicted
      address may not name a live object — the master validates against
      its directory, so wrong guesses cost one skipped entry, never a
      fault.
    * **frequency** — a decayed per-address touch count ranks the Zipf
      head, so hot point-read objects are nominated even without spatial
      locality.  Decay keeps the ranking fresh and the prune keeps the
      table bounded under adversarial (uniform) traffic.

    Pure policy — no simulation dependencies — so it is exhaustively
    testable and deterministic: equal observation sequences yield equal
    predictions.
    """

    def __init__(self, depth: int = 8, table_size: int = 256,
                 decay: float = 0.5):
        if depth < 1:
            raise ValueError("depth must be at least 1")
        if table_size < 1:
            raise ValueError("table_size must be at least 1")
        if not 0.0 <= decay <= 1.0:
            raise ValueError("decay must be in [0, 1]")
        self.depth = depth
        self.table_size = table_size
        self.decay = decay
        self._last: Optional[int] = None
        self._delta: Optional[int] = None
        self._confirmed = False
        self._counts: Dict[int, float] = {}
        self._since_decay = 0

    def observe(self, gaddr: int) -> None:
        """Record one read access (call in program order)."""
        if self._last is not None:
            delta = gaddr - self._last
            if delta != 0:
                if delta == self._delta:
                    self._confirmed = True
                else:
                    self._confirmed = False
                    self._delta = delta
        self._last = gaddr
        self._counts[gaddr] = self._counts.get(gaddr, 0.0) + 1.0
        self._since_decay += 1
        if (self._since_decay >= 4 * self.table_size
                and len(self._counts) > self.table_size):
            # Decay, then drop the cold tail so the table stays bounded.
            self._since_decay = 0
            decay = self.decay
            self._counts = {
                g: v * decay for g, v in self._counts.items() if v * decay >= 0.5
            }

    def predict(self, limit: Optional[int] = None) -> List[int]:
        """Up to ``limit`` candidate addresses, most promising first."""
        limit = self.depth if limit is None else min(limit, self.depth)
        if limit <= 0:
            return []
        out: List[int] = []
        if self._confirmed and self._delta and self._last is not None:
            addr = self._last
            for _ in range(limit):
                addr += self._delta
                if addr < 0:
                    break
                out.append(addr)
        if len(out) < limit:
            hot = sorted(self._counts.items(), key=lambda kv: (-kv[1], kv[0]))
            seen = set(out)
            for gaddr, _count in hot:
                if len(out) >= limit:
                    break
                if gaddr != self._last and gaddr not in seen:
                    seen.add(gaddr)
                    out.append(gaddr)
        return out


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
